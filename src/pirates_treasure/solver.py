"""Exact play: final scores, outcome classes, best first moves, variations.

Every exact answer comes from one searcher, :class:`Search`: negamax
alpha-beta with a bound-flagged transposition table over packed states.
It is built from one board's neighbor bitmasks and pile values;
:meth:`Search.of` lays a sequence of boards side by side, which is again
one board: their disjoint union, with the fleets merged.  A disjunctive
sum (:mod:`.algebra`) is just a larger, disconnected board.  A packed
state is three vertex masks: the mover's fleet, the other fleet and the
plundered vertices.  Ships never share a vertex, so a fleet mask holds
what a sorted tuple of ship vertices would.  Table values are the
optimal score still to come from a state, taken from the mover's side,
so transpositions reached at different running scores share one entry.
A state whose mover has exactly one move takes no entry: its value is
that move's pile minus its child's, and the child holds its own entry.
Each ship's moves are one target mask, its neighbors less the plundered
vertices, and no move list is ever built.  Moves are tried by pile,
highest first, then by ship and by target, low to high: the board's
piles are split once into tiers, one vertex mask per pile value from the
highest down, and each tier's moves are the targets it shares with the
ships' masks.  That is the order of a stable sort by pile of the moves
generated ship by ship, so node counts do not depend on which of the two
is used.  A mover with one ship reads its one mask first, so its stuck
and forced states cost no tier walk; a larger fleet reads each ship's
mask once.

Play conventions differ only in what a stuck mover gets, read directly
from its own side: 0 in scoring play; normal and misere play ignore
treasure and give -1 or +1 (:mod:`.theory.conventions`).

:meth:`Search.root` is the one place an exact root is searched; every
threshold question is a zero-window :meth:`Search.value` on a packed
root.  :func:`report` answers boards (:func:`solve`), sums
and the normal and misere conventions alike with one :class:`Report`:
each first mover's final score, class and best first moves.  A first
move taking pile ``w`` keeps the mover's value ``v`` exactly when a
zero-window search of its packed child shows the opponent gets at most
``w - v``.  The principal variation takes, at each step, the first move
in (ship, target vertex) order that passes the same test, and steps to
that child with value ``w - v``.
``minimax_final_score`` and ``greedy_score`` are reference routes over
one deliberately plain exhaustive recursion, with no table and no
pruning; in ``greedy_score`` the greedy side is offered only its grab.
The test suite holds minimax and the solver equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .engine import Player, Position, Move, initial_position, moves_for, apply_move
from .errors import BudgetExceededError, ValidationError
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
class Report:
    """Who wins from each first mover, and with which opening moves.

    Best first moves are (component, move) pairs, component 0 on one
    board; the variations are ``()`` unless asked for."""

    final_scores: FinalScores
    outcome: OutcomeClass
    best_first_moves_left: frozenset[tuple[int, Move]]
    best_first_moves_right: frozenset[tuple[int, Move]]
    pv_left: tuple[Move, ...]
    pv_right: tuple[Move, ...]
    nodes_expanded: int


class Search:
    """Negamax alpha-beta with a transposition table over one board.

    The board is ``adj``, each vertex's neighbor bitmask, and ``wt``, each
    vertex's pile value (a berth's is never read).  A pile counts for
    whoever takes it, so :meth:`value` scores from the mover's side and one
    move loop serves both players.  ``stuck`` is what a mover with no move gets: 0 in
    scoring play, -1 in normal play, +1 in misere play.  The table key
    packs (mover's fleet, other fleet, plundered) masks into one int
    without the side to move, so a state and its mirror image (fleets
    swapped, the other side to move) share one entry.
    """

    __slots__ = ("adj", "wt", "tiers", "n", "stuck", "inf", "memo", "nodes", "budget", "what")

    def __init__(
        self, adj: list[int], wt: list[int], budget: int, stuck: int = 0, what: str = "solve"
    ):
        self.adj = adj
        self.wt = wt
        self.tiers, total = _tiers(tuple(wt))
        self.n = len(adj)
        self.stuck = stuck
        self.inf = total + abs(stuck) + 1
        self.memo: dict = {}
        self.nodes = 0
        self.budget = budget
        self.what = what

    @classmethod
    def of(
        cls, boards: Iterable[Instance], budget: int, stuck: int = 0, what: str = "solve"
    ) -> Search:
        """A search over boards side by side, laid out by :func:`_beside`:
        component ``i`` keeps its own vertex numbering, shifted up by the
        vertex counts of the components before it.  A nonzero ``stuck``
        makes all treasure worth 0."""
        adj, wt, _, _ = _beside(*(
            (b.graph.adjacency_bits, [0] * b.graph.vertex_count if stuck else b.pile_values, 0, 0)
            for b in boards
        ))
        return cls(adj, wt, budget, stuck, what)

    def root(
        self, positions: Sequence[Position], to_move: Player
    ) -> tuple[int, tuple[int, int, int], int]:
        """Final score from the positions side by side, their packed state
        with ``to_move`` to move, and that mover's value of it.

        The packed root is searched in the mover's window ``(1 - inf,
        inf - 1)``: no value lies beyond it, so a result at either edge is
        exact.  When every pile is 0 in scoring play that window is empty
        and the value is 0 unsearched.
        """
        state = _union_state(positions, to_move)
        m = self.inf - 1
        v = self.value(*state, -m, m) if m else 0
        banked = 0 if self.stuck else sum(p.score for p in positions)
        return (banked + v if to_move is Player.LEFT else banked - v), state, v

    def value(self, ships, others, visited, alpha, beta):
        """Optimal score still to come for the mover, who owns the fleet mask
        ``ships``; exact within (alpha, beta).

        Moves are tried by pile, highest first, then by ship, low bit to
        high, then by target, low to high: the order of a stable sort by
        pile of the moves generated ship by ship.  No move list is built or
        sorted.  The moves are walked tier by tier, each tier the vertex
        mask of one pile value, and a tier's moves are the targets it
        shares with each ship's target mask ``adj[ship] & ~visited``.  The
        walk stops on a cutoff or once every target has been tried, so the
        tiers below the last target are never scanned.  Over ``n`` vertices
        the table key is one int, ``(ships << n | others) << n | visited``,
        and so is the entry, ``value << 2 | flag``.  A mover with one move
        searches its child in the shifted window and builds no key: the
        table holds no entry for a forced state, which is counted against
        the budget all the same.  The lowest ship's targets are read first,
        as one mask, with ``rest`` the fleet without it.  When that ship is
        the whole fleet, an empty mask is a stuck state, a mask of one bit
        a forced state, and a larger mask is walked alone.  A larger fleet
        reads each ship's mask once, as a (fleet without the ship, mask)
        pair, and finds its stuck and forced states from those pairs.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(self.budget, self.what)
        adj = self.adj
        rest = ships & ships - 1
        if rest:
            # the lowest ship is read before the loop: one loop over the fleet cost solve 5%
            m = adj[(ships ^ rest).bit_length() - 1] & ~visited
            pairs = [(rest, m)] if m else []
            targets = m
            fleet = rest
            while fleet:
                at = fleet & -fleet
                fleet ^= at
                m = adj[at.bit_length() - 1] & ~visited
                if m:
                    pairs.append((ships ^ at, m))
                    targets |= m
            if len(pairs) < 2:
                if not pairs:
                    return self.stuck
                rest, m = pairs[0]
                if not m & m - 1:
                    w = self.wt[m.bit_length() - 1]
                    return w - self.value(others, rest | m, visited | m, w - beta, w - alpha)
        else:
            if not ships:
                return self.stuck
            m = adj[ships.bit_length() - 1] & ~visited
            if not m & m - 1:
                if not m:
                    return self.stuck
                w = self.wt[m.bit_length() - 1]
                return w - self.value(others, m, visited | m, w - beta, w - alpha)
            pairs = None
        n = self.n
        key = (ships << n | others) << n | visited
        memo = self.memo
        entry = memo.get(key)
        if entry is not None:
            flag = entry & 3
            v = entry >> 2
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
        alpha0 = alpha
        best = -self.inf
        if pairs is None:
            for w, tier in self.tiers:
                t = m & tier
                if not t:
                    continue
                m ^= t
                while t:
                    b = t & -t
                    t ^= b
                    v = w - self.value(others, b, visited | b, w - beta, w - alpha)
                    if v > best:
                        best = v
                        if v > alpha:
                            if v >= beta:
                                memo[key] = v << 2 | _LOWER
                                return v
                            alpha = v
                if not m:
                    break
        else:
            for w, tier in self.tiers:
                if not targets & tier:
                    continue
                targets &= ~tier
                for rest, m in pairs:
                    t = m & tier
                    while t:
                        b = t & -t
                        t ^= b
                        v = w - self.value(others, rest | b, visited | b, w - beta, w - alpha)
                        if v > best:
                            best = v
                            if v > alpha:
                                if v >= beta:
                                    memo[key] = v << 2 | _LOWER
                                    return v
                                alpha = v
                if not targets:
                    break
        # no cutoff: best is below beta
        memo[key] = best << 2 | (_UPPER if best <= alpha0 else _EXACT)
        return best


@lru_cache(maxsize=256)
def _tiers(wt: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int]:
    """The (pile, vertex mask) tiers of a board's piles, highest pile first,
    and the sum of the piles' absolute values."""
    masks: dict[int, int] = {}
    for v, w in enumerate(wt):
        masks[w] = masks.get(w, 0) | 1 << v
    return tuple(sorted(masks.items(), reverse=True)), sum(map(abs, wt))


def _beside(*boards) -> tuple[list[int], list[int], int, int]:
    """Bitmask boards side by side as one, each (adjacency, piles, Left's
    fleet mask, Right's fleet mask): each board's vertices are shifted up
    by the vertex counts of the boards before it."""
    adj: list[int] = []
    wt: list[int] = []
    lefts = rights = 0
    for board_adj, board_wt, board_lefts, board_rights in boards:
        offset = len(adj)
        adj += [b << offset for b in board_adj]
        wt += board_wt
        lefts |= board_lefts << offset
        rights |= board_rights << offset
    return adj, wt, lefts, rights


def _union_state(positions: Sequence[Position], mover: Player) -> tuple[int, int, int]:
    """Packed (mover's fleet, other fleet, plundered mask) of boards side by
    side, each a vertex mask.  A mask holds one ship per vertex, so two ships
    of one fleet on one vertex are rejected here rather than merged."""
    lships = rships = visited = 0
    offset = 0
    for pos in positions:
        lships |= _fleet_mask(pos.left_ships) << offset
        rships |= _fleet_mask(pos.right_ships) << offset
        for v in pos.visited:
            visited |= 1 << v + offset
        offset += pos.instance.graph.vertex_count
    if mover is Player.LEFT:
        return lships, rships, visited
    return rships, lships, visited


def _fleet_mask(fleet: Sequence[int]) -> int:
    mask = 0
    for v in fleet:
        if mask >> v & 1:
            raise ValidationError(f"two ships share vertex {v}")
        mask |= 1 << v
    return mask


def final_scores(*boards: Instance, budget: int = DEFAULT_NODE_BUDGET) -> FinalScores:
    """Final scores under best play, Left first and Right first.

    Several boards are played side by side as one sum; one board is the
    one-component case.  Cheaper than :func:`solve` or a sum report when
    only the scores or the class are wanted: no first move is valued.
    """
    search = Search.of(boards, budget)
    return FinalScores._make(
        search.root([initial_position(b, first) for b in boards], first)[0]
        for first in (Player.LEFT, Player.RIGHT)
    )


def solve(inst: Instance, budget: int = DEFAULT_NODE_BUDGET) -> Report:
    """Full report on one board: both final scores, best first moves, variations."""
    return report(Search.of([inst], budget), (initial_position(inst, Player.LEFT),), True)


def report(search: Search, positions: Sequence[Position], variations: bool = False) -> Report:
    """Scores, class and best first moves of the positions side by side,
    Left first and then Right first, on ``search``'s one table.

    With ``variations`` each first mover also gets the principal variation
    from ``positions[0]``, which must then be the only board.
    """
    sides = []
    for first in (Player.LEFT, Player.RIGHT):
        score, state, v = search.root(positions, first)
        best = frozenset(move for move, _, _ in _keeping(search, positions, first, state, v))
        pv = ()
        if variations:
            pv = _principal_variation(search, replace(positions[0], to_move=first), state, v)
        sides.append((score, best, pv))
    (sl, best_left, pv_left), (sr, best_right, pv_right) = sides
    final = FinalScores(sl, sr)
    return Report(final, classify(final), best_left, best_right, pv_left, pv_right, search.nodes)


def _keeping(search: Search, positions: Sequence[Position], mover: Player, state, v: int):
    """First moves, lazily and in generation order, that keep ``v``, the
    value of the packed ``state`` of ``positions`` to ``mover``: each as
    (component, move), the pile it takes and its packed child, whose
    value to the opponent is then the pile minus ``v``."""
    for move, w, child in _children(search, positions, mover, state):
        t = w - v
        # a state is worth at most inf - 1 to its mover: such a test passes unsearched
        if t >= search.inf - 1 or search.value(*child, t, t + 1) <= t:
            yield move, w, child


def _children(search: Search, positions: Sequence[Position], mover: Player, root):
    """Each (component, move) of ``mover`` with the pile it takes and the
    child packed from ``root`` for the opponent; the moves, ship indices
    included, are those of :func:`moves_for` on the unsorted fleets."""
    ships, others, visited = root
    offset = 0
    for ci, pos in enumerate(positions):
        fleet = pos.ships_of(mover)
        for move in moves_for(pos, mover):
            at = fleet[move.ship] + offset
            to = move.to + offset
            yield (ci, move), search.wt[to], (others, ships ^ 1 << at | 1 << to, visited | 1 << to)
        offset += pos.instance.graph.vertex_count


def _principal_variation(search: Search, pos: Position, state, v: int) -> tuple[Move, ...]:
    """Optimal line from ``pos``, packed as ``state`` and worth ``v`` to its
    mover: at each step the first move in (ship, target vertex) order that
    keeps the value, stepping to its packed child."""
    line = []
    while True:
        kept = next(_keeping(search, (pos,), pos.to_move, state, v), None)
        if kept is None:
            return tuple(line)
        (_, move), w, state = kept
        v = w - v
        line.append(move)
        pos = apply_move(pos, move)


def left_wins_moving_first(inst: Instance, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Decision form of the solver: does Left force a positive final score?"""
    t = 1 - inst.initial_score
    root = _union_state((initial_position(inst, Player.LEFT),), Player.LEFT)
    return Search.of([inst], budget).value(*root, t - 1, t) >= t


def greedy_score(
    inst: Instance,
    greedy_player: Player,
    first_player: Player,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Final score when one player is a treasure-grabbing automaton.

    The greedy player always slides to the highest-value reachable vertex
    (ties: lowest vertex id, then lowest ship index); the opponent plays
    optimally against that fixed policy.  Every position of the playout
    tree counts against ``budget``.
    """
    return _playout(initial_position(inst, first_player), greedy_player, budget, "greedy playout")


def minimax_final_score(pos: Position, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Reference result: plain exhaustive minimax, no table, no pruning."""
    return _playout(pos, None, budget, "reference minimax")


def _playout(pos: Position, greedy: Player | None, budget: int, what: str) -> int:
    """Final score of plain minimax from ``pos``: no table, no pruning, and
    every position counted against ``budget``.  The ``greedy`` side, when
    set, is offered only its grab: the highest pile, then the lowest
    vertex, then the lowest ship index."""
    _one_ship_per_vertex(pos.left_ships, pos.right_ships)
    adj = pos.instance.graph.adjacency_bits
    wt = pos.instance.pile_values
    greedy_left = None if greedy is None else greedy is Player.LEFT
    counter = [0]

    def rec(lships, rships, visited, left_to_move):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceededError(budget, what)
        ships = lships if left_to_move else rships
        moves = []
        for si in range(len(ships)):
            m = adj[ships[si]] & ~visited
            while m:
                b = m & -m
                m ^= b
                to = b.bit_length() - 1
                moves.append((-wt[to], to, si))
        if not moves:
            return 0
        if left_to_move is greedy_left:
            moves = [min(moves)]
        results = []
        for _, to, si in moves:
            tmp = list(ships)
            tmp[si] = to
            tmp.sort()
            nt = tuple(tmp)
            if left_to_move:
                results.append(wt[to] + rec(nt, rships, visited | 1 << to, False))
            else:
                results.append(-wt[to] + rec(lships, nt, visited | 1 << to, True))
        return max(results) if left_to_move else min(results)

    visited = sum(1 << v for v in pos.visited)
    return pos.score + rec(pos.left_ships, pos.right_ships, visited, pos.to_move is Player.LEFT)


def _one_ship_per_vertex(*fleets: Sequence[int]) -> None:
    """The reference routes' own check of what :func:`_fleet_mask` rejects:
    two ships of one fleet on one vertex."""
    for fleet in fleets:
        for i, v in enumerate(fleet):
            if v in fleet[:i]:
                raise ValidationError(f"two ships share vertex {v}")
