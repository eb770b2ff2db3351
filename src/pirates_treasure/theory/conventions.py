"""Play conventions side by side: scoring, normal, and misere verdicts.

Normal play crowns whoever moves last; misere play the opposite; scoring
play counts treasure.  All three run on the same positions here so their
preferred first moves can be compared.  Agreement between conventions on
particular boards is reported as an observation, nothing more.

All three use the solver's one search kernel on the components laid side
by side as a single board.  Normal and misere play differ from scoring
play only in the value of a state whose mover is stuck: treasure counts
for nothing, and the stuck mover gets -1 (normal) or +1 (misere) from its
own side, so the sign of the searched value names the winner.  Best first
moves come from the solver's one mover-side routine, ``solver.best_moves``,
on that win/loss search: the moves that keep the mover's value are the
winning moves in a won game and every move in a lost one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import SumMove, SumPosition, solve_sum, sum_position
from ..engine import Player, Position
from ..model import Instance
from ..solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Search,
    best_moves,
)


def _as_sum(state: Instance | Position | SumPosition, first: Player | None) -> SumPosition:
    if isinstance(state, SumPosition):
        sp = state
    elif isinstance(state, Position):
        sp = SumPosition((state,), state.to_move)
    elif isinstance(state, Instance):
        sp = sum_position([state], first or Player.LEFT)
    else:
        raise TypeError(f"cannot interpret {type(state).__name__} as a position")
    if first is not None and sp.to_move is not first:
        sp = SumPosition(sp.components, first)
    return sp


def _search(sp: SumPosition, misere: bool, budget: int) -> Search:
    return Search(
        [c.instance for c in sp.components],
        budget,
        stuck=1 if misere else -1,
        what="misere play" if misere else "normal play",
    )


def _winner(search: Search, sp: SumPosition) -> Player:
    return Player.LEFT if search.left_wins(sp.components, sp.to_move) else Player.RIGHT


def normal_outcome(
    state: Instance | Position | SumPosition,
    first: Player | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Player:
    """Winner under optimal last-move-wins play, scores ignored."""
    sp = _as_sum(state, first)
    return _winner(_search(sp, False, budget), sp)


def misere_outcome(
    state: Instance | Position | SumPosition,
    first: Player | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Player:
    """Winner under optimal last-move-loses play, scores ignored."""
    sp = _as_sum(state, first)
    return _winner(_search(sp, True, budget), sp)


def convention_best_moves(
    state: Instance | Position | SumPosition,
    misere: bool,
    first: Player | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[SumMove]:
    """First moves optimal under the given convention.

    These are the moves that keep the mover's value: when the mover wins,
    the winning moves; in a lost game no move is better than another, so
    all of them count as best.
    """
    sp = _as_sum(state, first)
    return best_moves(_search(sp, misere, budget), sp.components, sp.to_move)[1]


@dataclass(frozen=True)
class ConventionReport:
    """One board, three rulesets, seen from both possible first movers."""

    scoring_final: FinalScores
    scoring_outcome: OutcomeClass
    scoring_best_moves: dict[Player, frozenset[SumMove]]
    normal_winner: dict[Player, Player]
    misere_winner: dict[Player, Player]
    normal_best_moves: dict[Player, frozenset[SumMove]]
    misere_best_moves: dict[Player, frozenset[SumMove]]

    __hash__ = None  # type: ignore[assignment]

    def agrees(self, player: Player, convention: str) -> bool:
        """Does some scoring-best first move stay best under the convention?

        Vacuously true when the player has no moves at all.
        """
        other = (
            self.normal_best_moves if convention == "normal" else self.misere_best_moves
        )
        scoring = self.scoring_best_moves[player]
        if not scoring and not other[player]:
            return True
        return bool(scoring & other[player])


def convention_comparison(
    state: Instance | Position | SumPosition, budget: int = DEFAULT_NODE_BUDGET
) -> ConventionReport:
    """Solve the same board under all three conventions."""
    sp = _as_sum(state, None)
    scoring = solve_sum(sp, budget)
    scoring_best = {
        Player.LEFT: scoring.best_first_moves_left,
        Player.RIGHT: scoring.best_first_moves_right,
    }
    normal_winner = {}
    misere_winner = {}
    normal_best = {}
    misere_best = {}
    for first in (Player.LEFT, Player.RIGHT):
        rooted = SumPosition(sp.components, first)
        normal_winner[first] = normal_outcome(rooted, budget=budget)
        misere_winner[first] = misere_outcome(rooted, budget=budget)
        normal_best[first] = convention_best_moves(rooted, misere=False, budget=budget)
        misere_best[first] = convention_best_moves(rooted, misere=True, budget=budget)
    return ConventionReport(
        scoring_final=scoring.final_scores,
        scoring_outcome=scoring.outcome,
        scoring_best_moves=scoring_best,
        normal_winner=normal_winner,
        misere_winner=misere_winner,
        normal_best_moves=normal_best,
        misere_best_moves=misere_best,
    )
