from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pirates_treasure.algebra import (
    SumPosition,
    sum_apply,
    sum_legal_moves,
    sum_position,
)
from pirates_treasure.engine import Move, Player
from pirates_treasure.errors import BudgetExceededError
from pirates_treasure.fixtures import (
    _three_path,
    fig_add_b,
    fig_add_components,
    fig_ex,
    fig_half,
    fig_mis_components,
)
from pirates_treasure.model import random_instance
from pirates_treasure.solver import FinalScores, OutcomeClass, Search
from pirates_treasure.theory import (
    convention_best_moves,
    convention_comparison,
    misere_outcome,
    normal_outcome,
)

L = Player.LEFT
R = Player.RIGHT


def test_normal_and_misere_winners_on_the_path_board():
    half = fig_half()
    assert normal_outcome(sum_position([half], L)) is L
    assert normal_outcome(sum_position([half], R)) is L
    assert misere_outcome(sum_position([half], L)) is L
    assert misere_outcome(sum_position([half], R)) is R


def test_three_path_first_mover_effects():
    three = _three_path()
    # one forced grab: last to move wins normal play, loses misere play
    assert normal_outcome(sum_position([three], L)) is L
    assert normal_outcome(sum_position([three], R)) is R
    assert misere_outcome(sum_position([three], L)) is R
    assert misere_outcome(sum_position([three], R)) is L


def test_add_sum_right_wins_scoring_and_normal_with_the_same_move():
    report = convention_comparison(sum_position(fig_add_components(), L))
    assert report.scoring_final == FinalScores(0, -1)
    assert report.scoring_outcome is OutcomeClass.R
    assert report.normal_winner == {L: R, R: R}
    # the winning slide in both readings: march down the long path
    expected = frozenset({(0, Move(R, 0, 2))})
    assert report.scoring_best_moves[R] == expected
    assert report.normal_best_moves[R] == expected
    assert report.agrees(R, "normal")


def test_add_sum_misere_flips_the_winner():
    report = convention_comparison(sum_position(fig_add_components(), L))
    assert report.misere_winner == {L: L, R: L}


def test_mis_sum_left_plays_misere_like_the_scoring_game():
    report = convention_comparison(sum_position(fig_mis_components(), L))
    assert report.scoring_final == FinalScores(0, 0)
    assert report.scoring_outcome is OutcomeClass.TIE
    assert report.misere_winner[L] is L
    expected = frozenset({(0, Move(L, 0, 0)), (2, Move(L, 0, 1))})
    assert report.scoring_best_moves[L] == expected
    assert report.misere_best_moves[L] == expected
    assert report.agrees(L, "misere")
    assert not report.agrees(L, "normal")


def test_agreement_is_vacuous_without_moves():
    # Left has no ship at all here, so both move sets are empty
    report = convention_comparison(sum_position([fig_add_b()], L))
    assert report.scoring_best_moves[L] == frozenset()
    assert report.agrees(L, "normal")
    assert report.agrees(L, "misere")


def test_comparison_of_a_single_board():
    report = convention_comparison(sum_position([fig_half()], L))
    assert report.normal_winner[L] is L
    assert report.scoring_final == FinalScores(1, 0)


def test_convention_searches_honor_the_node_budget():
    ex = sum_position([fig_ex()], L)
    with pytest.raises(BudgetExceededError):
        normal_outcome(ex, budget=1)
    with pytest.raises(BudgetExceededError):
        misere_outcome(ex, budget=1)
    with pytest.raises(BudgetExceededError):
        convention_best_moves(ex, misere=False, budget=1)


def test_comparison_passes_its_budget_to_the_convention_searches(monkeypatch):
    seen = []
    real = Search.of

    def spy(boards, budget, **kwargs):
        if "stuck" in kwargs:
            seen.append((budget, kwargs["stuck"]))
        return real(boards, budget, **kwargs)

    monkeypatch.setattr(Search, "of", spy)
    convention_comparison(sum_position([fig_ex()], L), budget=12345)
    # one win/loss search per convention, normal then misere
    assert seen == [(12345, -1), (12345, 1)]


# ---------------------------------------------------------------------------
# Differential check against a plain win/loss recursion on positions


def _reference_mover_wins(sp: SumPosition, misere: bool, memo: dict) -> bool:
    key = (
        tuple(
            (tuple(sorted(c.left_ships)), tuple(sorted(c.right_ships)), c.visited)
            for c in sp.components
        ),
        sp.to_move,
    )
    hit = memo.get(key)
    if hit is not None:
        return hit
    moves = sum_legal_moves(sp)
    if not moves:
        result = misere  # stuck: loses under normal play, wins under misere
    else:
        result = any(
            not _reference_mover_wins(sum_apply(sp, m), misere, memo) for m in moves
        )
    memo[key] = result
    return result


def _reference_winner(sp: SumPosition, misere: bool) -> Player:
    return sp.to_move if _reference_mover_wins(sp, misere, {}) else sp.to_move.opponent


def _reference_best_moves(sp: SumPosition, misere: bool) -> frozenset:
    moves = sum_legal_moves(sp)
    memo: dict = {}
    winning = frozenset(
        m for m in moves if not _reference_mover_wins(sum_apply(sp, m), misere, memo)
    )
    return winning if winning else frozenset(moves)


@st.composite
def small_sums(draw):
    """1-3 small boards side by side, a few random moves into the game."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 5))
        left = draw(st.integers(0, min(2, n - 1)))
        right = draw(st.integers(0, min(1, n - left)))
        comps.append(
            random_instance(
                vertex_count=n,
                edge_probability=draw(st.integers(20, 95)) / 100,
                weight_range=(-2, 3),
                left_ships=left,
                right_ships=right,
                seed=draw(st.integers(0, 10_000)),
            )
        )
    sp = sum_position(comps, draw(st.sampled_from([L, R])))
    for _ in range(draw(st.integers(0, 3))):
        moves = sum_legal_moves(sp)
        if not moves:
            break
        sp = sum_apply(sp, moves[draw(st.integers(0, len(moves) - 1))])
    return sp


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_sums())
def test_convention_verdicts_match_the_reference_recursion(sp):
    assert normal_outcome(sp) is _reference_winner(sp, misere=False)
    assert misere_outcome(sp) is _reference_winner(sp, misere=True)
    for misere in (False, True):
        assert convention_best_moves(sp, misere) == _reference_best_moves(sp, misere)
    report = convention_comparison(sp)
    for first in (L, R):
        rooted = SumPosition(sp.components, first)
        assert report.normal_winner[first] is _reference_winner(rooted, misere=False)
        assert report.misere_winner[first] is _reference_winner(rooted, misere=True)
        assert report.normal_best_moves[first] == _reference_best_moves(rooted, misere=False)
        assert report.misere_best_moves[first] == _reference_best_moves(rooted, misere=True)
