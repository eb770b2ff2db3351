"""Instance families: exhaustive enumeration and seeded random sampling.

The uniform-value families (every pile worth the same x > 0, or the same
-x < 0) are where the structural claims about outcome classes live, so
they get first-class generators here.  The distinguishing context, the
board summed with each random board of the distinguishing sweep, is
built here too, as the reference for the sweep's bitmask copy.
:func:`instance_from_bits` builds the Instance of a drawn bitmask board.

Each seeded draw reads its generator through ``getrandbits()`` and
``random()`` only, never ``randint``, ``randrange`` or ``sample``: a
``Random(seed)`` state still gives the boards that those calls gave,
since :func:`_below` is the routine they use underneath, but Python pins
only those two streams across releases, and the draw skips their Python
layers.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterator, Sequence

from ..errors import ValidationError
from ..model import Graph, Instance, adjacency_connected

#: Largest vertex count that exhaustive enumeration supports.
MAX_ENUMERATION_N = 7

#: Largest board a seeded sweep draws.  A 64-vertex draw takes well under
#: a millisecond, but one of 100,000 vertices needs about 10**9
#: ``random()`` calls, and no node budget stops a draw.  Exact search is
#: out of reach long before 64 vertices anyway.
MAX_DRAW_N = 64

#: ``random.sample`` picks two of at most this many items from a list, and
#: two of more by rejection from a set.
_SAMPLE_POOL_N = 21


def _mask_count(n: int) -> int:
    """Edge masks of n-vertex graphs: one bit per vertex pair."""
    return 1 << n * (n - 1) // 2


def connected_labeled_graphs(n: int) -> Iterator[Graph]:
    """All connected simple graphs on vertices 0..n-1, labels distinct.

    Enumerates every subset of the possible edges in ascending bitmask
    order, so the stream is deterministic.
    """
    if n < 1:
        raise ValidationError("need at least one vertex")
    for adj in connected_adjacencies(n, range(_mask_count(n))):
        yield graph_from_bits(adj)


def connected_adjacencies(n: int, masks: range) -> Iterator[list[int]]:
    """Per-vertex neighbor bitmasks of each connected graph on 0..n-1 whose
    edge mask lies in ``masks``, in the order of ``masks``.

    Bit i of an edge mask stands for the i-th pair of
    ``combinations(range(n), 2)``.
    """
    pairs = list(combinations(range(n), 2))
    for mask in masks:
        adj = [0] * n
        m = mask
        while m:
            b = m & -m
            m ^= b
            u, v = pairs[b.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if adjacency_connected(adj):
            yield adj


def graph_from_bits(adj: Sequence[int]) -> Graph:
    """The graph with these per-vertex neighbor bitmasks."""
    n = len(adj)
    return Graph(
        n, frozenset((u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1)
    )


def uniform_instance(graph: Graph, left: int, right: int, value: int) -> Instance:
    """One Left ship, one Right ship, every other vertex worth ``value``."""
    weights = {
        v: value for v in range(graph.vertex_count) if v != left and v != right
    }
    return Instance(graph, weights, (left,), (right,))


def enumerate_ptx(n: int, x: int) -> Iterator[Instance]:
    """All connected n-vertex boards with uniform value x, one ship each side.

    Streams labeled boards: every connected labeled graph times every
    ordered choice of distinct (Left, Right) berths.
    """
    if x <= 0:
        raise ValidationError(
            "uniform value must be positive; with x = 0 every game ties and "
            "the family is trivial"
        )
    yield from _enumerate_uniform(n, x)


def enumerate_pt_negx(n: int, x: int) -> Iterator[Instance]:
    """Mirror family: every pile worth -x for the given x > 0."""
    if x <= 0:
        raise ValidationError("x must be positive; the piles are negated internally")
    yield from _enumerate_uniform(n, -x)


def _enumerate_uniform(n: int, value: int) -> Iterator[Instance]:
    if not 2 <= n <= MAX_ENUMERATION_N:
        raise ValidationError(
            f"exhaustive enumeration supports 2 <= n <= {MAX_ENUMERATION_N}"
        )
    for adj in connected_adjacencies(n, range(_mask_count(n))):
        graph = graph_from_bits(adj)
        for left, right in permutations(range(n), 2):
            yield uniform_instance(graph, left, right, value)


def _below(getrandbits, n: int) -> int:
    """A number in [0, n), n > 0, as ``Random.randrange(n)`` draws it: CPython's
    ``_randbelow_with_getrandbits``, which ``randint`` and ``sample`` use too."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_connected_adjacency(n: int, rng: random.Random) -> list[int]:
    """Per-vertex neighbor bitmasks of a random attachment tree plus extra
    edges, each of the other pairs independently with probability 1/4:
    always connected."""
    if n < 1:
        raise ValidationError("need at least one vertex")
    bits = rng.getrandbits
    adj = [0] * n
    for v in range(1, n):
        u = _below(bits, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    draw = rng.random
    for u in range(n):
        for v in range(u + 1, n):
            # a tree edge draws no number: seeded boards depend on this order
            if not adj[u] >> v & 1 and draw() < 0.25:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def random_uniform_bits(n: int, rng: random.Random) -> tuple[list[int], int, int]:
    """(adjacency, Left berth, Right berth) of a random connected board: the
    graph is drawn first, then the two distinct berths, as
    ``rng.sample(range(n), 2)`` picks them."""
    if n < 2:
        raise ValidationError("need room for two ships")
    adj = random_connected_adjacency(n, rng)
    bits = rng.getrandbits
    left = _below(bits, n)
    if n <= _SAMPLE_POOL_N:
        # the pool pick: the last item moves into the vacancy Left leaves
        j = _below(bits, n - 1)
        right = n - 1 if j == left else j
    else:
        right = _below(bits, n)
        while right == left:
            right = _below(bits, n)
    return adj, left, right


def random_ptx_instance(n: int, x: int, rng: random.Random) -> Instance:
    """Random connected uniform-value board, one ship per side."""
    adj, left, right = random_uniform_bits(n, rng)
    return uniform_instance(graph_from_bits(adj), left, right, x)


def random_pt_bits(n: int, rng: random.Random) -> tuple[list[int], list[int], int, int]:
    """(adjacency, piles, Left fleet mask, Right fleet mask) of a random
    connected board with piles worth 1 to 4, one ship per side.

    The draw is repeated until the Left ship has at least one unplundered
    neighbor, i.e. Left can actually move first.  Each try draws its piles
    before that test, keeping the generator in step; a berth's pile is 0.
    """
    if n < 2:
        raise ValidationError("need room for two ships")
    if n < 3:
        # on two vertices Left's one neighbor is always Right's berth
        raise ValidationError("no 2-vertex board leaves Left a first move")
    bits = rng.getrandbits
    while True:
        adj, left, right = random_uniform_bits(n, rng)
        wt = [0 if v == left or v == right else 1 + _below(bits, 4) for v in range(n)]
        if adj[left] & ~(1 << right):
            return adj, wt, 1 << left, 1 << right


def random_pt_instance(n: int, rng: random.Random) -> Instance:
    """Random connected board with piles worth 1 to 4, one ship per side,
    drawn as :func:`random_pt_bits` draws it."""
    return instance_from_bits(*random_pt_bits(n, rng))


def instance_from_bits(adj: Sequence[int], wt: Sequence[int], lefts: int, rights: int) -> Instance:
    """The board with these per-vertex neighbor bitmasks and piles, and
    these fleet masks: every vertex outside the fleets holds its pile."""
    ships = lefts | rights
    weights = {v: w for v, w in enumerate(wt) if not ships >> v & 1}
    fleets = [tuple(v for v in range(len(adj)) if mask >> v & 1) for mask in (lefts, rights)]
    return Instance(graph_from_bits(adj), weights, *fleets)


def distinguishing_context(g_inst: Instance) -> Instance:
    """The overweight edge that separates ``g_inst`` from the empty game.

    Score-preserving play admits no nonzero game that sums invisibly: any
    board with a Left ship is exposed by one overwhelming context.  This
    context is a single edge holding a Right ship next to a pile worth one
    more than the sum of the positive piles of ``g_inst``, more than
    everything Left could ever collect.  Left's forced opening move
    elsewhere lets Right cash it, driving the Left-moving-first result
    negative while the context alone ends level.  Requires at least one
    Left ship; the construction leans on Left having to move somewhere on
    the board.
    """
    if not g_inst.left_starts:
        raise ValidationError("needs a Left ship on the board to distinguish")
    bait = 1 + g_inst.total_positive_weight()
    return Instance(
        Graph.from_edges(2, [(0, 1)]),
        weights={1: bait},
        left_starts=(),
        right_starts=(0,),
    )
