"""Every small board with fleets of one or two against the reference routes.

The boards are every connected labeled graph on 2 to 4 vertices, every
placement of one ship a side (an ordered pair of berths, Left's then
Right's) and every pile in {-1, 1, 2} on each other vertex: 4,178 boards.
On each one, for both first movers:

* ``final_scores`` equals plain minimax;
* ``solve``'s best first moves are the moves whose child keeps the minimax
  optimum, and each step of its variations is the optimal move with the
  lowest (ship, target vertex);
* ``left_wins_moving_first`` holds exactly when the banked score plus
  Left's value is positive, for banked scores around that value;
* the normal and misere winners and best moves of ``convention_comparison``
  equal the plain win/loss recursion of ``test_conventions.py``, on the
  482 boards that differ in more than their piles.

Fleets of two, (2, 1), (1, 2) and (2, 2) ships, keep the search's move
list where a one-ship mover reads its moves from one mask.  On their
2,988 boards on 3 and 4 vertices ``final_scores`` equals plain minimax.

Run as a script from the repository root::

    PYTHONPATH=src python tests/test_exhaustive.py

it checks ``final_scores`` against plain minimax on every such board up
to 5 vertices, one ship a side and fleets of two (397,298 and 461,628
boards, under a minute), and exits 1 on any difference.
"""

from __future__ import annotations

import dataclasses
import sys
from itertools import combinations, product

from test_conventions import _reference_best_moves, _reference_winner
from test_solver import _assert_report_matches_minimax

from pirates_treasure.algebra import SumPosition, sum_position
from pirates_treasure.engine import Player, initial_position
from pirates_treasure.model import Instance
from pirates_treasure.solver import (
    final_scores,
    left_wins_moving_first,
    minimax_final_score,
    solve,
)
from pirates_treasure.theory import connected_labeled_graphs, convention_comparison

L = Player.LEFT
R = Player.RIGHT
PILES = (-1, 1, 2)
ONE_SHIP = ((1, 1),)
TWO_SHIPS = ((2, 1), (1, 2), (2, 2))


def boards(max_n: int, piles=PILES, fleets=ONE_SHIP):
    """Every connected labeled board on 2..max_n vertices with each pair of
    (Left, Right) fleet sizes in ``fleets``, the ships on every placement
    and each other vertex's pile drawn from ``piles``."""
    for n in range(2, max_n + 1):
        for graph in connected_labeled_graphs(n):
            for sizes in fleets:
                yield from _placed(graph, n, sizes, piles)


def _placed(graph, n, sizes, piles):
    """The boards of one graph with ``sizes`` = (Left ships, Right ships)."""
    nl, nr = sizes
    for left in combinations(range(n), nl):
        for right in combinations([v for v in range(n) if v not in left], nr):
            others = [v for v in range(n) if v not in left + right]
            for values in product(piles, repeat=len(others)):
                yield Instance(graph, dict(zip(others, values)), left, right)


def minimax_scores(inst: Instance) -> tuple[int, int]:
    return tuple(minimax_final_score(initial_position(inst, first)) for first in (L, R))


def score_differences(max_n: int, fleets=ONE_SHIP) -> list[str]:
    """Boards up to ``max_n`` vertices whose final scores differ from minimax."""
    return [
        f"{inst}: {tuple(final_scores(inst))} against minimax {minimax_scores(inst)}"
        for inst in boards(max_n, fleets=fleets)
        if tuple(final_scores(inst)) != minimax_scores(inst)
    ]


def test_board_count():
    assert sum(1 for _ in boards(4)) == 4178
    assert sum(1 for _ in boards(4, piles=(1,))) == 482
    assert sum(1 for _ in boards(4, fleets=TWO_SHIPS)) == 2988


def test_final_scores_match_minimax():
    assert score_differences(4) == []


def test_best_moves_and_variations_match_minimax():
    for i, inst in enumerate(boards(4)):
        _assert_report_matches_minimax(inst, solve(inst), f"board {i}")


def test_fleets_of_two_match_minimax():
    assert score_differences(4, TWO_SHIPS) == []


def test_left_wins_around_the_value():
    for i, inst in enumerate(boards(4)):
        value = minimax_final_score(initial_position(inst, L))
        for banked in (-value - 1, -value, -value + 1):
            shifted = dataclasses.replace(inst, initial_score=banked)
            assert left_wins_moving_first(shifted) == (banked + value > 0), f"board {i}"


def test_convention_verdicts_match_the_reference_recursion():
    # normal and misere play ignore piles: one board per graph and berth pair
    for i, inst in enumerate(boards(4, piles=(1,))):
        report = convention_comparison(sum_position([inst], L))
        for first in (L, R):
            rooted = SumPosition((initial_position(inst, first),), first)
            why = f"board {i}, {first} first"
            for misere, winner, best in (
                (False, report.normal_winner, report.normal_best_moves),
                (True, report.misere_winner, report.misere_best_moves),
            ):
                assert winner[first] is _reference_winner(rooted, misere), why
                assert best[first] == _reference_best_moves(rooted, misere), why


if __name__ == "__main__":
    found = 0
    for name, fleets in (("one ship a side", ONE_SHIP), ("fleets of two", TWO_SHIPS)):
        differences = score_differences(5, fleets)
        for line in differences[:20]:
            print(line)
        print(f"boards up to 5 vertices, {name}: "
              f"{len(differences)} final-score differences from minimax")
        found += len(differences)
    sys.exit(1 if found else 0)
