"""Hamiltonian-path reduction: the hardness construction, plus oracles.

Given a graph G and a chosen berth L, build the board: every other vertex
of G gets value 1, and a fresh path of |V(G)| - 1 vertices is grafted onto
L (so the path through L has |V(G)| vertices in total).  Right berths on
the path vertex next to L and is forced down the path with |V(G)| - 2
piles to take; Left roams G with up to |V(G)| - 1.  Left can finish one
pile ahead exactly when G has a Hamiltonian path starting at L; otherwise
the game ends level the moment Left runs out of fresh vertices.
:func:`gadget_board` gives the same games on bitmasks, one board for
every berth of a graph, each berth a root on it.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from ..errors import ValidationError
from ..model import Graph, Instance


def reduce_from_hampath(g: Graph, left_start: int) -> Instance:
    """Build the board whose first-player question encodes a path question."""
    n = g.vertex_count
    if not 0 <= left_start < n:
        raise ValidationError(f"berth {left_start} out of range")
    edges = list(g.edges)
    prev = left_start
    for fresh in range(n, 2 * n - 1):
        edges.append((prev, fresh))
        prev = fresh
    weights = {v: 1 for v in range(n) if v != left_start}
    weights.update({v: 1 for v in range(n + 1, 2 * n - 1)})
    right = (n,) if n >= 2 else ()
    return Instance(
        Graph.from_edges(2 * n - 1, edges),
        weights,
        left_starts=(left_start,),
        right_starts=right,
    )


def gadget_board(
    adj: Sequence[int],
) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """The boards of :func:`reduce_from_hampath` for every berth at once,
    straight from the graph's neighbor bitmasks: one adjacency, one list
    of pile values and, at index ``L``, berth ``L``'s packed root with
    Left to move, ready for one :class:`Search`.  A root is three vertex
    masks: Left's fleet, Right's fleet and the plundered vertices.

    The path's fresh vertices ``n .. 2n - 2`` lie beside the graph, not
    grafted onto it.  The graft's one edge joins the berth ``L`` to
    Right's berth ``n``, and both are plundered at the root, so no ship
    ever crosses it: the board without it plays the same game from every
    berth's root.  Every pile is 1; the berths' piles are never taken.
    A one-vertex graph has no path and no Right ship.
    """
    n = len(adj)
    board = list(adj)
    wt = [1] * (2 * n - 1)
    if n < 2:
        return board, wt, [(1, 0, 1)]
    board += [0] * (n - 1)
    for fresh in range(n, 2 * n - 2):
        board[fresh] |= 1 << fresh + 1
        board[fresh + 1] |= 1 << fresh
    right = 1 << n
    return board, wt, [(1 << berth, right, 1 << berth | right) for berth in range(n)]


def hampath_oracle(g: Graph, start: int | None = None) -> bool:
    """Is there a path through every vertex (starting at ``start`` if given)?

    A path here must traverse at least one edge, so a one-vertex graph has
    none; that convention is what makes the reduction exact for all sizes.
    Backtracking search (:func:`hampath_from`), practical to roughly 12
    vertices; larger graphs raise :class:`ValidationError`.
    """
    n = g.vertex_count
    if start is not None and not 0 <= start < n:
        raise ValidationError(f"start {start} out of range")
    if n > 12:
        raise ValidationError(f"path oracle supports at most 12 vertices, got {n}")
    if n < 2 or not g.is_connected():
        return False
    adj = g.adjacency_bits
    starts = [start] if start is not None else range(n)
    return any(hampath_from(adj, s) for s in starts)


def hampath_from(adj: Sequence[int], start: int) -> bool:
    """Is there a path from ``start`` through every vertex of the graph with
    these neighbor bitmasks?  Backtracking; a one-vertex graph has none."""
    n = len(adj)
    return n >= 2 and _extend(adj, (1 << n) - 1, start, 1 << start)


def _extend(adj: Sequence[int], full: int, v: int, visited: int) -> bool:
    if visited == full:
        return True
    m = adj[v] & ~visited
    while m:
        b = m & -m
        m ^= b
        if _extend(adj, full, b.bit_length() - 1, visited | b):
            return True
    return False


def hampath_by_permutations(g: Graph, start: int | None = None) -> bool:
    """Second, independent route to the same answer: try every vertex order.

    Exists to cross-check :func:`hampath_oracle`; only sensible for n <= 8,
    so larger graphs raise :class:`ValidationError`.
    """
    n = g.vertex_count
    if start is not None and not 0 <= start < n:
        raise ValidationError(f"start {start} out of range")
    if n > 8:
        raise ValidationError(f"permutation scan supports at most 8 vertices, got {n}")
    if n < 2:
        return False
    adj = g.adjacency_bits
    rest = [v for v in range(n) if start is None or v != start]
    for perm in permutations(rest):
        order = perm if start is None else (start,) + perm
        if all(adj[order[i]] >> order[i + 1] & 1 for i in range(n - 1)):
            return True
    return False
