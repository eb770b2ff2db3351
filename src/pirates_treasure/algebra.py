"""Game values as trees, negation, and disjunctive sums.

A :class:`GameTree` is the rules-free view of a position: the running
score plus the set of positions Left could move to and the set Right could
move to, recursively.  Option sets ignore whose turn it actually is, so
one tree answers both "Left starts" and "Right starts" questions.

Sums are computed two independent ways on purpose.  :func:`solve_sum`
plays the boards side by side as one disjoint-union board on the
solver's single search kernel (fast) and answers with the solver's one
report, :func:`.solver.report`; :func:`sum_trees` follows the textbook
recursion on trees.  The test suite holds them equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Iterable

from .engine import (
    Move,
    Player,
    Position,
    apply_move,
    initial_position,
    moves_for,
)
from .errors import BudgetExceededError
from .model import Instance
from .solver import DEFAULT_NODE_BUDGET, FinalScores, Report, Search, report

DEFAULT_EXPANSION_BUDGET = 1_000_000

#: A move inside a sum: (component index, move on that component).
SumMove = tuple[int, Move]


@dataclass(frozen=True)
class GameTree:
    score: int
    left_options: frozenset[GameTree]
    right_options: frozenset[GameTree]

    @property
    def is_leaf(self) -> bool:
        return not self.left_options and not self.right_options


def leaf(score: int) -> GameTree:
    return GameTree(score, frozenset(), frozenset())


def render_tree(t: GameTree) -> str:
    """Bracket form ``{left options|score|right options}``.

    Leaves render as their bare score, empty option sets as ``.``; options
    are comma separated and ordered by (score, text) for stable output.
    """

    @cache
    def render(node: GameTree) -> str:
        if node.is_leaf:
            return str(node.score)
        return "{%s|%d|%s}" % (
            _render_options(node.left_options, render),
            node.score,
            _render_options(node.right_options, render),
        )

    return render(t)


def _render_options(options: frozenset[GameTree], render) -> str:
    if not options:
        return "."
    return ", ".join(text for _, text in sorted((o.score, render(o)) for o in options))


def extract_tree(pos: Position, budget: int = DEFAULT_EXPANSION_BUDGET) -> GameTree:
    """Expand a position into its full game tree.

    Transpositions (same ships, plundered set and score) collapse into one
    shared node.  Raises BudgetExceededError if more distinct nodes than
    ``budget`` would be built.
    """
    memo: dict = {}
    counter = [0]

    def build(p: Position) -> GameTree:
        key = (
            tuple(sorted(p.left_ships)),
            tuple(sorted(p.right_ships)),
            p.visited,
            p.score,
        )
        hit = memo.get(key)
        if hit is not None:
            return hit
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(budget, "tree extraction")
        left = frozenset(
            build(apply_move(replace(p, to_move=Player.LEFT), m))
            for m in moves_for(p, Player.LEFT)
        )
        right = frozenset(
            build(apply_move(replace(p, to_move=Player.RIGHT), m))
            for m in moves_for(p, Player.RIGHT)
        )
        node = GameTree(p.score, left, right)
        memo[key] = node
        return node

    return build(pos)


def negate_tree(t: GameTree) -> GameTree:
    """Mirror the game: scores flip sign and the players swap option sets."""

    @cache
    def neg(node: GameTree) -> GameTree:
        return GameTree(
            -node.score,
            frozenset(neg(o) for o in node.right_options),
            frozenset(neg(o) for o in node.left_options),
        )

    return neg(t)


def negate_instance(inst: Instance) -> Instance:
    """Board-level mirror: swap fleets, negate the running score.

    Treasure values stay put; handing Right's berths to Left already turns
    every +w Left collects into the -w Right collected before, so the
    extracted tree of the result is exactly the negated tree.
    """
    return Instance(
        graph=inst.graph,
        weights=dict(inst.weights),
        left_starts=inst.right_starts,
        right_starts=inst.left_starts,
        initial_score=-inst.initial_score,
    )


def sum_trees(g: GameTree, h: GameTree, budget: int = DEFAULT_EXPANSION_BUDGET) -> GameTree:
    """Disjunctive sum by the defining recursion.

    A player moves in exactly one summand, scores add, and the game ends
    for a player only when they are stuck in both.  Adding a number ``d``
    to a game is the sum with ``leaf(d)``: every score moves by ``d``.
    """
    counter = [0]

    @cache
    def add(a: GameTree, b: GameTree) -> GameTree:
        # runs once per distinct pair, so the counter counts distinct pairs
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(budget, "tree sum")
        left = frozenset(add(al, b) for al in a.left_options) | frozenset(
            add(a, bl) for bl in b.left_options
        )
        right = frozenset(add(ar, b) for ar in a.right_options) | frozenset(
            add(a, br) for br in b.right_options
        )
        return GameTree(a.score + b.score, left, right)

    return add(g, h)


def tree_final_scores(t: GameTree) -> FinalScores:
    """Optimal terminal scores read straight off a tree.

    With Left to move, a node with no Left options is final; otherwise
    Left picks the option maximizing the Right-to-move result, and dually.
    """

    @cache
    def scores(node: GameTree) -> FinalScores:
        if node.left_options:
            s_left = max(scores(o).right_first for o in node.left_options)
        else:
            s_left = node.score
        if node.right_options:
            s_right = min(scores(o).left_first for o in node.right_options)
        else:
            s_right = node.score
        return FinalScores(s_left, s_right)

    return scores(t)


# ---------------------------------------------------------------------------
# Sums played directly on multi-board states


@dataclass(frozen=True)
class SumPosition:
    """A compound position: several boards side by side, one side to move.

    The ``to_move`` fields of the component positions are not meaningful
    here; only the sum's own ``to_move`` counts.
    """

    components: tuple[Position, ...]
    to_move: Player

    __hash__ = None  # type: ignore[assignment]

    @property
    def score(self) -> int:
        return sum(c.score for c in self.components)


def sum_position(instances: Iterable[Instance], first_player: Player) -> SumPosition:
    comps = tuple(initial_position(inst, first_player) for inst in instances)
    return SumPosition(comps, first_player)


def sum_legal_moves(sp: SumPosition) -> list[SumMove]:
    out: list[SumMove] = []
    for ci, comp in enumerate(sp.components):
        out.extend((ci, m) for m in moves_for(comp, sp.to_move))
    return out


def sum_apply(sp: SumPosition, sum_move: SumMove) -> SumPosition:
    ci, move = sum_move
    comp = replace(sp.components[ci], to_move=sp.to_move)
    new_comp = apply_move(comp, move)
    comps = sp.components[:ci] + (new_comp,) + sp.components[ci + 1 :]
    return SumPosition(comps, sp.to_move.opponent)


def solve_sum(sp: SumPosition, budget: int = DEFAULT_NODE_BUDGET) -> Report:
    """Scores, class and best (component, move) first moves for a compound
    position; ``sp.to_move`` is not read."""
    search = Search.of([c.instance for c in sp.components], budget, what="sum solve")
    return report(search, sp.components)
