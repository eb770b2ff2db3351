"""Exact play: final scores, outcome classes, best first moves, variations.

Every exact answer comes from one searcher, :class:`Search`: alpha-beta
with a bound-flagged transposition table over packed states (sorted ship
tuple per player, plundered-set bitmask, side to move).  It is built from
a sequence of boards laid side by side, which is again one board: their
disjoint union, with the fleets merged.  A single board is the
one-component case, and a disjunctive sum (:mod:`.algebra`) is just a
larger, disconnected board.  Scores are factored out additively: table
values are the optimal score still to come from a state, so
transpositions reached at different running scores share one entry.

Play conventions differ only in what a state with a stuck mover is worth.
Scoring play gives 0; normal and misere play ignore treasure and give the
stuck mover -1 or +1 from its own side (:mod:`.theory.conventions`).

``minimax_final_score`` is a deliberately plain exhaustive recursion kept
as a reference implementation; the test suite holds the two routes equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .engine import Player, Position, Move, initial_position, moves_for, apply_move
from .errors import BudgetExceededError
from .model import Instance

DEFAULT_NODE_BUDGET = 100_000_000

_EXACT, _LOWER, _UPPER = 0, 1, 2


class FinalScores(NamedTuple):
    """Optimal terminal scores: Left moving first, Right moving first."""

    left_first: int
    right_first: int


class OutcomeClass(Enum):
    L = "L"
    R = "R"
    N = "N"
    P = "P"
    TIE = "TIE"

    def __str__(self) -> str:
        return self.value


def classify(scores: FinalScores) -> OutcomeClass:
    """Outcome class from the two final scores.

    Left wins a game that ends positive, Right one that ends negative, so
    the signs of the two first-mover results pin the class: both favorable
    to one side gives L or R, first mover favored gives N, first mover
    hurt gives P, and two zeros tie.  A zero paired with a win counts for
    the winning side (the other direction still cannot lose).
    """
    sl = (scores.left_first > 0) - (scores.left_first < 0)
    sr = (scores.right_first > 0) - (scores.right_first < 0)
    if sl == 0 and sr == 0:
        return OutcomeClass.TIE
    if sl >= 0 and sr >= 0:
        return OutcomeClass.L
    if sl <= 0 and sr <= 0:
        return OutcomeClass.R
    if sl > 0:
        return OutcomeClass.N
    return OutcomeClass.P


@dataclass(frozen=True)
class SolveReport:
    final_scores: FinalScores
    outcome: OutcomeClass
    best_first_moves_left: frozenset[Move]
    best_first_moves_right: frozenset[Move]
    pv_left: tuple[Move, ...]
    pv_right: tuple[Move, ...]
    nodes_expanded: int


class Search:
    """Alpha-beta with a transposition table over boards laid side by side.

    Component ``i`` keeps its own vertex numbering, shifted up by the
    vertex counts of the components before it.  A merged fleet is then
    the concatenation of the components' sorted fleets, which is itself
    sorted, so a state of the union packs exactly as the tuple of its
    component states would.

    ``stuck`` is what the player to move gets, from its own side, when it
    has no move: 0 in scoring play, -1 in normal play, +1 in misere play.
    A nonzero ``stuck`` also makes all treasure, banked or not, worth 0.
    """

    __slots__ = ("adj", "wt", "terminal", "scored", "inf", "memo", "nodes", "budget", "what")

    def __init__(
        self,
        instances: Iterable[Instance],
        budget: int,
        stuck: int = 0,
        what: str = "solve",
    ):
        adj: list[int] = []
        wt: list[int] = []
        for inst in instances:
            offset = len(adj)
            bits = inst.graph.adjacency_bits
            adj += [b << offset for b in bits] if offset else bits
            values = [0] * inst.graph.vertex_count
            if not stuck:
                for v, w in inst.weights.items():
                    values[v] = w
            wt += values
        self.adj = adj
        self.wt = wt
        # indexed by left_to_move: Right stuck, Left stuck
        self.terminal = (-stuck, stuck)
        self.scored = not stuck
        self.inf = sum(abs(w) for w in wt) + abs(stuck) + 1
        self.memo: dict = {}
        self.nodes = 0
        self.budget = budget
        self.what = what

    def final_score(self, positions: Sequence[Position], to_move: Player) -> int:
        """Terminal score under best play from the positions side by side."""
        lships, rships, visited = _union_state(positions)
        return self._banked(positions) + self.value(
            lships, rships, visited, to_move is Player.LEFT, -self.inf, self.inf
        )

    def left_wins(self, positions: Sequence[Position], to_move: Player) -> bool:
        """Does Left force a positive final score?

        Searches a zero-width window, which is much cheaper than an exact
        value when only the sign matters.
        """
        banked = self._banked(positions)
        lships, rships, visited = _union_state(positions)
        bound = self.value(
            lships, rships, visited, to_move is Player.LEFT, -banked, 1 - banked
        )
        return banked + bound > 0

    def _banked(self, positions: Sequence[Position]) -> int:
        return sum(p.score for p in positions) if self.scored else 0

    def value(self, lships, rships, visited, left_to_move, alpha, beta):
        """Optimal score still to come; exact within (alpha, beta)."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(self.budget, self.what)
        adj = self.adj
        wt = self.wt
        ships = lships if left_to_move else rships
        moves = []
        for si in range(len(ships)):
            m = adj[ships[si]] & ~visited
            while m:
                b = m & -m
                m ^= b
                moves.append((si, b.bit_length() - 1, b))
        if not moves:
            return self.terminal[left_to_move]
        key = (lships, rships, visited, left_to_move)
        entry = self.memo.get(key)
        if entry is not None:
            flag, v = entry
            if flag == _EXACT:
                return v
            if flag == _LOWER:
                if v >= beta:
                    return v
                if v > alpha:
                    alpha = v
            else:
                if v <= alpha:
                    return v
                if v < beta:
                    beta = v
        alpha0, beta0 = alpha, beta
        if len(moves) > 1:
            moves.sort(key=lambda t: -wt[t[1]])
        single = len(ships) == 1
        if left_to_move:
            best = -self.inf
            for si, to, bit in moves:
                if single:
                    nl = (to,)
                else:
                    tmp = list(lships)
                    tmp[si] = to
                    tmp.sort()
                    nl = tuple(tmp)
                w = wt[to]
                v = w + self.value(nl, rships, visited | bit, False, alpha - w, beta - w)
                if v > best:
                    best = v
                    if v > alpha:
                        alpha = v
                        if alpha >= beta:
                            break
        else:
            best = self.inf
            for si, to, bit in moves:
                if single:
                    nr = (to,)
                else:
                    tmp = list(rships)
                    tmp[si] = to
                    tmp.sort()
                    nr = tuple(tmp)
                w = wt[to]
                v = -w + self.value(lships, nr, visited | bit, True, alpha + w, beta + w)
                if v < best:
                    best = v
                    if v < beta:
                        beta = v
                        if alpha >= beta:
                            break
        if best <= alpha0:
            flag = _UPPER
        elif best >= beta0:
            flag = _LOWER
        else:
            flag = _EXACT
        self.memo[key] = (flag, best)
        return best


def _union_state(
    positions: Sequence[Position],
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Packed (Left fleet, Right fleet, plundered mask) of boards side by side."""
    lships: list[int] = []
    rships: list[int] = []
    visited = 0
    offset = 0
    for pos in positions:
        lships += [v + offset for v in pos.left_ships]
        rships += [v + offset for v in pos.right_ships]
        mask = 0
        for v in pos.visited:
            mask |= 1 << v
        visited |= mask << offset
        offset += pos.instance.graph.vertex_count
    lships.sort()
    rships.sort()
    return tuple(lships), tuple(rships), visited


def left_final_score(pos: Position, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Terminal score under best play from ``pos`` with Left to move."""
    if pos.to_move is not Player.LEFT:
        raise ValueError("position must have Left to move")
    return Search([pos.instance], budget).final_score((pos,), pos.to_move)


def right_final_score(pos: Position, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Terminal score under best play from ``pos`` with Right to move."""
    if pos.to_move is not Player.RIGHT:
        raise ValueError("position must have Right to move")
    return Search([pos.instance], budget).final_score((pos,), pos.to_move)


def final_scores(*boards: Instance, budget: int = DEFAULT_NODE_BUDGET) -> FinalScores:
    """Final scores under best play, Left first and Right first.

    Several boards are played side by side as one sum; one board is the
    one-component case.  Cheaper than :func:`solve` or a sum report when
    only the scores or the class are wanted: no first move is valued.
    """
    search = Search(boards, budget)
    return FinalScores._make(
        search.final_score([initial_position(b, first) for b in boards], first)
        for first in (Player.LEFT, Player.RIGHT)
    )


def solve(inst: Instance, budget: int = DEFAULT_NODE_BUDGET) -> SolveReport:
    """Full report: both final scores, best first moves, variations."""
    search = Search([inst], budget)
    scores = []
    bests = []
    pvs = []
    for first in (Player.LEFT, Player.RIGHT):
        root = initial_position(inst, first)
        score, best = _root_moves(search, root)
        scores.append(score)
        bests.append(best)
        pvs.append(_principal_variation(search, root))
    final = FinalScores(scores[0], scores[1])
    return SolveReport(
        final_scores=final,
        outcome=classify(final),
        best_first_moves_left=bests[0],
        best_first_moves_right=bests[1],
        pv_left=pvs[0],
        pv_right=pvs[1],
        nodes_expanded=search.nodes,
    )


def move_values(
    positions: Sequence[Position], to_move: Player, evaluate: Callable
) -> list[tuple[tuple[int, Move], Any]]:
    """Value of every move from the boards side by side, in generation order.

    A move is (component index, move on that component).  ``evaluate`` is
    a search method such as ``Search.final_score`` or ``Search.left_wins``;
    it gets the child's boards and the opponent to move.
    """
    positions = tuple(positions)
    out = []
    for ci, pos in enumerate(positions):
        mover = replace(pos, to_move=to_move)
        for m in moves_for(pos, to_move):
            child = positions[:ci] + (apply_move(mover, m),) + positions[ci + 1 :]
            out.append(((ci, m), evaluate(child, to_move.opponent)))
    return out


def _root_moves(search: Search, root: Position) -> tuple[int, frozenset[Move]]:
    """Exact value of every root move; returns (score, optimal move set)."""
    values = move_values((root,), root.to_move, search.final_score)
    if not values:
        return root.score, frozenset()
    score = (max if root.to_move is Player.LEFT else min)(v for _, v in values)
    return score, frozenset(m for (_, m), v in values if v == score)


def _principal_variation(search: Search, pos: Position) -> tuple[Move, ...]:
    """Optimal line, breaking ties by lowest (ship, target vertex)."""
    line = []
    while True:
        values = move_values((pos,), pos.to_move, search.final_score)
        if not values:
            return tuple(line)
        # generation order is tie-break order; max and min keep the first
        pick = max if pos.to_move is Player.LEFT else min
        (_, best_move), _ = pick(values, key=lambda mv: mv[1])
        line.append(best_move)
        pos = apply_move(pos, best_move)


def left_wins_moving_first(inst: Instance, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Decision form of the solver: does Left force a positive final score?"""
    root = initial_position(inst, Player.LEFT)
    return Search([inst], budget).left_wins((root,), Player.LEFT)


def greedy_score(
    inst: Instance,
    greedy_player: Player,
    first_player: Player,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Terminal score when one player is a treasure-grabbing automaton.

    The greedy player always slides to the highest-value reachable vertex
    (ties: lowest vertex id, then lowest ship index); the opponent plays
    optimally against that fixed policy.
    """
    adj = list(inst.graph.adjacency_bits)
    n = inst.graph.vertex_count
    wt = [0] * n
    for v, w in inst.weights.items():
        wt[v] = w
    greedy_left = greedy_player is Player.LEFT
    budget_box = [0]
    memo: dict = {}

    def rec(lships, rships, visited, left_to_move):
        budget_box[0] += 1
        if budget_box[0] > budget:
            raise BudgetExceededError(budget, "greedy playout")
        ships = lships if left_to_move else rships
        moves = []
        for si in range(len(ships)):
            m = adj[ships[si]] & ~visited
            while m:
                b = m & -m
                m ^= b
                moves.append((si, b.bit_length() - 1, b))
        if not moves:
            return 0
        key = (lships, rships, visited, left_to_move)
        if key in memo:
            return memo[key]

        def child(si, to, bit):
            tmp = list(ships)
            tmp[si] = to
            tmp.sort()
            nt = tuple(tmp)
            if left_to_move:
                sub = rec(nt, rships, visited | bit, False)
                return wt[to] + sub
            sub = rec(lships, nt, visited | bit, True)
            return -wt[to] + sub

        if left_to_move == greedy_left:
            si, to, bit = min(moves, key=lambda t: (-wt[t[1]], t[1], t[0]))
            result = child(si, to, bit)
        elif left_to_move:
            result = max(child(*m) for m in moves)
        else:
            result = min(child(*m) for m in moves)
        memo[key] = result
        return result

    pos = initial_position(inst, first_player)
    l, r, visited = _union_state((pos,))
    return pos.score + rec(l, r, visited, first_player is Player.LEFT)


def minimax_final_score(pos: Position, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Reference result: plain exhaustive minimax, no table, no pruning."""
    adj = list(pos.instance.graph.adjacency_bits)
    n = pos.instance.graph.vertex_count
    wt = [0] * n
    for v, w in pos.instance.weights.items():
        wt[v] = w
    counter = [0]

    def rec(lships, rships, visited, left_to_move):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(budget, "reference minimax")
        ships = lships if left_to_move else rships
        results = []
        for si in range(len(ships)):
            m = adj[ships[si]] & ~visited
            while m:
                b = m & -m
                m ^= b
                to = b.bit_length() - 1
                tmp = list(ships)
                tmp[si] = to
                tmp.sort()
                nt = tuple(tmp)
                if left_to_move:
                    results.append(wt[to] + rec(nt, rships, visited | b, False))
                else:
                    results.append(-wt[to] + rec(lships, nt, visited | b, True))
        if not results:
            return 0
        return max(results) if left_to_move else min(results)

    l, r, visited = _union_state((pos,))
    return pos.score + rec(l, r, visited, pos.to_move is Player.LEFT)
