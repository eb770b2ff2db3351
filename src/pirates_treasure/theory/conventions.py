"""Play conventions side by side: scoring, normal, and misere verdicts.

Normal play crowns whoever moves last; misere play the opposite; scoring
play counts treasure.  All three run on the same positions here so their
preferred first moves can be compared.  Agreement between conventions on
particular boards is reported as an observation, nothing more.

All three use the solver's one search kernel on the components of a
:class:`SumPosition` laid side by side as a single board.  Normal and
misere play differ from scoring play only in the value of a state whose
mover is stuck: treasure counts for nothing, and the stuck mover gets -1
(normal) or +1 (misere) from its own side, so every score is +1 or -1 and
its sign names the winner.  One win/loss search per convention gives both
answers for both first movers: ``solver.report`` returns that score with
the moves that keep the mover's value, which are the winning moves in a
won game and every move in a lost one.  :func:`normal_outcome` and
:func:`misere_outcome` ask the winner alone: the sign of
the score from ``Search.root``, whose window ``(-1, 1)`` in a ±1 game
always returns a bound of the right sign.  :func:`convention_best_moves` asks
one first mover's best moves alone: its root, then the same keep-the-value
test of each first move.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import SumMove, SumPosition, solve_sum
from ..engine import Player
from ..solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Report,
    Search,
    _keeping,
    report,
)


def _search(sp: SumPosition, misere: bool, budget: int) -> Search:
    return Search.of(
        [c.instance for c in sp.components],
        budget,
        stuck=1 if misere else -1,
        what="misere play" if misere else "normal play",
    )


def _winner(sp: SumPosition, misere: bool, budget: int) -> Player:
    return _sign(_search(sp, misere, budget).root(sp.components, sp.to_move)[0])


def _sign(score: int) -> Player:
    """The winner of a game that ends at ``score``, never 0 under a convention."""
    return Player.LEFT if score > 0 else Player.RIGHT


def normal_outcome(sp: SumPosition, budget: int = DEFAULT_NODE_BUDGET) -> Player:
    """Winner under optimal last-move-wins play, scores ignored."""
    return _winner(sp, False, budget)


def misere_outcome(sp: SumPosition, budget: int = DEFAULT_NODE_BUDGET) -> Player:
    """Winner under optimal last-move-loses play, scores ignored."""
    return _winner(sp, True, budget)


def convention_best_moves(
    sp: SumPosition, misere: bool, budget: int = DEFAULT_NODE_BUDGET
) -> frozenset[SumMove]:
    """First moves optimal under the given convention.

    These are the moves that keep the mover's value: when the mover wins,
    the winning moves; in a lost game no move is better than another, so
    all of them count as best.  Only ``sp.to_move``'s side is searched:
    its root, then the keep-the-value test of each first move.
    """
    search = _search(sp, misere, budget)
    _, state, v = search.root(sp.components, sp.to_move)
    return frozenset(move for move, _, _ in _keeping(search, sp.components, sp.to_move, state, v))


def _best(r: Report) -> dict[Player, frozenset[SumMove]]:
    return {Player.LEFT: r.best_first_moves_left, Player.RIGHT: r.best_first_moves_right}


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
    sp: SumPosition, budget: int = DEFAULT_NODE_BUDGET
) -> ConventionReport:
    """Solve the same board under all three conventions, both sides first.

    ``sp.to_move`` is not read.  Scoring play is :func:`solve_sum`.  Normal
    and misere play take one ``solver.report`` each on a win/loss search:
    the sign of each ±1 score names the winner.
    """
    scoring = solve_sum(sp, budget)
    normal, misere = (report(_search(sp, m, budget), sp.components) for m in (False, True))
    return ConventionReport(
        scoring_final=scoring.final_scores,
        scoring_outcome=scoring.outcome,
        scoring_best_moves=_best(scoring),
        normal_winner=dict(zip(Player, map(_sign, normal.final_scores))),
        misere_winner=dict(zip(Player, map(_sign, misere.final_scores))),
        normal_best_moves=_best(normal),
        misere_best_moves=_best(misere),
    )
