"""Boards for Pirates and Treasure: graphs, treasure values, ship placements.

A board is a finite simple graph.  Each vertex either carries an integer
treasure value or is the starting berth of a ship owned by Left or Right.
Start vertices never carry treasure and count as already plundered when the
game begins.

Text format (one directive per line, ``#`` starts a comment)::

    vertices <n>
    v <id> value <int>
    v <id> ship L|R
    e <u> <v>
    score <int>        # optional running score, omitted when zero

Vertex ids are 0-based and every vertex needs exactly one ``v`` line.
A file may declare at most :data:`MAX_VERTICES` vertices.
``serialize_instance`` emits a canonical form (vertex lines ascending, edges
sorted with the smaller endpoint first) so parse/serialize round-trips are
byte-stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError

#: Most vertices a board or graph file may declare, and the most that
#: :func:`grid_graph` builds; ``pirates reduce`` builds about twice as many.
MAX_VERTICES = 100_000

#: Most vertices :func:`random_instance` draws: one number per vertex pair
#: and one tuple per edge.  At p = 1 (2-core host, Python 3.11) 1,000 took
#: 2.3 s and 124 MB peak RSS, 2,000 took 9.9 s and 457 MB; 100,000 need
#: 5 * 10**9 draws.
MAX_RANDOM_VERTICES = 1_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. vertex_count - 1``.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``.  Build via
    :meth:`from_edges` unless the input is already normalized.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValidationError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValidationError(f"edge ({u}, {v}) out of range or unordered")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(vertex_count, normalized)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets packed as bitmasks (bit i = vertex i)."""
        bits = [0] * self.vertex_count
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    def is_connected(self) -> bool:
        return adjacency_connected(self.adjacency_bits)


def adjacency_connected(adj: Sequence[int]) -> bool:
    """Is the graph with these per-vertex neighbor bitmasks connected?

    Breadth-first from vertex 0, one frontier bitmask per step.  Graphs
    with at most one vertex count as connected.
    """
    if len(adj) <= 1:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


@dataclass(frozen=True)
class Instance:
    """A full board: graph, treasure values, ship berths, running score.

    ``weights`` maps every non-start vertex to its treasure value.  Ship
    tuples are normalized to ascending vertex order on construction, so the
    ship index of a player is just its rank among that player's berths.
    Instances are treated as immutable after construction.
    """

    graph: Graph
    weights: dict[int, int]
    left_starts: tuple[int, ...]
    right_starts: tuple[int, ...]
    initial_score: int = 0

    def __post_init__(self):
        object.__setattr__(self, "left_starts", tuple(sorted(self.left_starts)))
        object.__setattr__(self, "right_starts", tuple(sorted(self.right_starts)))

    # dict fields rule out the generated hash; compare by value only
    __hash__ = None  # type: ignore[assignment]

    @property
    def start_vertices(self) -> frozenset[int]:
        return frozenset(self.left_starts) | frozenset(self.right_starts)

    def weight_of(self, v: int) -> int:
        return self.weights.get(v, 0)

    @property
    def pile_values(self) -> tuple[int, ...]:
        """Pile value of each vertex, 0 on the berths."""
        # not cached: each search reads it once, when it packs the board
        values = [0] * self.graph.vertex_count
        for v, w in self.weights.items():
            values[v] = w
        return tuple(values)

    def total_positive_weight(self) -> int:
        return sum(w for w in self.weights.values() if w > 0)


def validate(inst: Instance) -> list[str]:
    """Check board rules; raise ValidationError on a hard violation.

    Returns a list of warnings (currently: negative treasure values, which
    are allowed but outside the usual game).
    """
    n = inst.graph.vertex_count
    starts = list(inst.left_starts) + list(inst.right_starts)
    seen: set[int] = set()
    for v in starts:
        if not 0 <= v < n:
            raise ValidationError(f"ship berth {v} out of range")
        if v in seen:
            raise ValidationError(f"two ships share vertex {v}")
        seen.add(v)
    for v in inst.weights:
        if not 0 <= v < n:
            raise ValidationError(f"weighted vertex {v} out of range")
        if v in seen:
            raise ValidationError(f"vertex {v} is a ship berth and carries a value")
    for v in range(n):
        if v not in seen and v not in inst.weights:
            raise ValidationError(f"vertex {v} has neither a value nor a ship")
    warnings = []
    negatives = sorted(v for v, w in inst.weights.items() if w < 0)
    if negatives:
        warnings.append(
            f"negative treasure values at vertices {_id_list(negatives, len(negatives))}"
        )
    return warnings


def _id_list(ids: Iterable[int], count: int) -> str:
    """The first eight of ``count`` ids in list form, plus the count if cut."""
    head = list(islice(ids, 8))
    if count <= 8:
        return str(head)
    return f"[{', '.join(map(str, head))}, ...] ({count} in all)"


def parse_instance(text: str) -> Instance:
    """Parse the text format described in the module docstring."""
    vertex_count, weights, ships, edges, score = _parse_lines(text, require_roles=True)
    graph = Graph(vertex_count, frozenset(edges))
    left = tuple(v for v, p in ships if p == "L")
    right = tuple(v for v, p in ships if p == "R")
    inst = Instance(graph, weights, left, right, score)
    validate(inst)
    return inst


def parse_graph(text: str) -> Graph:
    """Parse a bare graph: ``vertices`` plus ``e`` lines.

    ``v`` and ``score`` lines are tolerated and ignored so a full instance
    file can double as a graph file.
    """
    vertex_count, _, _, edges, _ = _parse_lines(text, require_roles=False)
    return Graph(vertex_count, frozenset(edges))


def _parse_lines(text: str, require_roles: bool):
    vertex_count: int | None = None
    weights: dict[int, int] = {}
    ships: list[tuple[int, str]] = []
    roles: dict[int, int] = {}  # vertex -> line number of its v-line
    edges: set[tuple[int, int]] = set()
    edge_lines: dict[tuple[int, int], int] = {}
    score = 0
    score_seen = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if vertex_count is None:
            if kind != "vertices":
                raise ParseError(line_no, "expected 'vertices <n>' first")
            vertex_count = _int_field(parts, 2, line_no)
            continue
        if kind == "v":
            if len(parts) != 4:
                raise ParseError(line_no, "expected 'v <id> value <int>' or 'v <id> ship L|R'")
            vid = _parse_int(parts[1], line_no)
            if not 0 <= vid < vertex_count:
                raise ValidationError(f"line {line_no}: vertex {vid} out of range")
            if vid in roles:
                raise ValidationError(
                    f"line {line_no}: vertex {vid} already declared on line {roles[vid]}"
                )
            roles[vid] = line_no
            if parts[2] == "value":
                weights[vid] = _parse_int(parts[3], line_no)
            elif parts[2] == "ship":
                if parts[3] not in ("L", "R"):
                    raise ParseError(line_no, f"ship owner must be L or R, got {parts[3]!r}")
                ships.append((vid, parts[3]))
            else:
                raise ParseError(line_no, f"unknown vertex kind {parts[2]!r}")
        elif kind == "e":
            u = _int_field(parts, 3, line_no)
            v = _parse_int(parts[2], line_no)
            if u == v:
                raise ValidationError(f"line {line_no}: self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValidationError(f"line {line_no}: edge endpoint out of range")
            key = (min(u, v), max(u, v))
            if key in edges:
                raise ValidationError(
                    f"line {line_no}: duplicate edge {key}, first seen on line {edge_lines[key]}"
                )
            edges.add(key)
            edge_lines[key] = line_no
        elif kind == "score":
            if score_seen:
                raise ParseError(line_no, "duplicate score line")
            score = _int_field(parts, 2, line_no)
            score_seen = True
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")

    if vertex_count is None:
        raise ParseError(1, "empty input, expected 'vertices <n>'")
    if require_roles and len(roles) < vertex_count:
        missing = (v for v in range(vertex_count) if v not in roles)
        count = vertex_count - len(roles)
        raise ValidationError(f"no 'v' line for vertices {_id_list(missing, count)}")
    _check_vertex_cap(vertex_count)
    return vertex_count, weights, ships, edges, score


def _check_vertex_cap(vertex_count: int) -> None:
    if vertex_count > MAX_VERTICES:
        raise ValidationError(f"{vertex_count} vertices, more than the {MAX_VERTICES} allowed")


def _int_field(parts: list[str], expected_len: int, line_no: int) -> int:
    """The integer in field 1 of a line that must have ``expected_len`` fields."""
    if len(parts) != expected_len:
        raise ParseError(line_no, f"expected {expected_len} fields, got {len(parts)}")
    return _parse_int(parts[1], line_no)


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {token!r}") from None


def serialize_instance(inst: Instance) -> str:
    """Emit the canonical text form (stable under parse/serialize)."""
    lines = [f"vertices {inst.graph.vertex_count}"]
    left = set(inst.left_starts)
    right = set(inst.right_starts)
    for v in range(inst.graph.vertex_count):
        if v in left:
            lines.append(f"v {v} ship L")
        elif v in right:
            lines.append(f"v {v} ship R")
        else:
            lines.append(f"v {v} value {inst.weights[v]}")
    for u, v in sorted(inst.graph.edges):
        lines.append(f"e {u} {v}")
    if inst.initial_score:
        lines.append(f"score {inst.initial_score}")
    return "\n".join(lines) + "\n"


def serialize_graph(g: Graph) -> str:
    lines = [f"vertices {g.vertex_count}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GridSpec:
    """An n-column by m-row grid with a uniform treasure value."""

    cols: int
    rows: int
    value: int = 1

    def vertex_id(self, x: int, y: int) -> int:
        """Map a 1-based (column, row) cell to its vertex id."""
        if not (1 <= x <= self.cols and 1 <= y <= self.rows):
            raise ValidationError(f"cell ({x}, {y}) outside {self.cols}x{self.rows} grid")
        return (x - 1) + (y - 1) * self.cols


def grid_graph(cols: int, rows: int) -> Graph:
    """The cols-by-rows grid graph; cells adjacent iff at distance one."""
    if cols < 1 or rows < 1:
        raise ValidationError("grid dimensions must be positive")
    _check_vertex_cap(cols * rows)
    edges = []
    for y in range(rows):
        for x in range(cols):
            vid = x + y * cols
            if x + 1 < cols:
                edges.append((vid, vid + 1))
            if y + 1 < rows:
                edges.append((vid, vid + cols))
    return Graph.from_edges(cols * rows, edges)


def make_grid(
    spec: GridSpec,
    left_starts: Iterable[tuple[int, int]],
    right_starts: Iterable[tuple[int, int]],
) -> Instance:
    """Build a grid board; start cells are given as 1-based (column, row)."""
    graph = grid_graph(spec.cols, spec.rows)
    left = tuple(spec.vertex_id(x, y) for x, y in left_starts)
    right = tuple(spec.vertex_id(x, y) for x, y in right_starts)
    taken = set(left) | set(right)
    if len(taken) != len(left) + len(right):
        raise ValidationError("two ships share a grid cell")
    weights = {v: spec.value for v in range(graph.vertex_count) if v not in taken}
    inst = Instance(graph, weights, left, right)
    validate(inst)
    return inst


def random_instance(
    vertex_count: int,
    edge_probability: float,
    weight_range: tuple[int, int],
    left_ships: int,
    right_ships: int,
    seed: int,
) -> Instance:
    """Draw a board with independent edges and uniform integer values.

    Deterministic: the same arguments always produce the same instance.
    """
    if vertex_count < 0:
        raise ValidationError(f"vertex count must be non-negative, got {vertex_count}")
    _check_vertex_cap(vertex_count)
    if vertex_count > MAX_RANDOM_VERTICES:
        raise ValidationError(
            f"{vertex_count} vertices, more than the {MAX_RANDOM_VERTICES} a random board may have"
        )
    if not 0 <= edge_probability <= 1:
        raise ValidationError(f"edge probability must lie in [0, 1], got {edge_probability}")
    if vertex_count < left_ships + right_ships:
        raise ValidationError("more ships than vertices")
    if left_ships < 0 or right_ships < 0:
        raise ValidationError("ship counts must be non-negative")
    lo, hi = weight_range
    if lo > hi:
        raise ValidationError(f"empty weight range {weight_range}")
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    rng = random.Random(seed)
    edges = []
    for u in range(vertex_count):
        for v in range(u + 1, vertex_count):
            if rng.random() < edge_probability:
                edges.append((u, v))
    berths = rng.sample(range(vertex_count), left_ships + right_ships)
    left = tuple(berths[:left_ships])
    right = tuple(berths[left_ships:])
    taken = set(berths)
    weights = {
        v: rng.randint(lo, hi) for v in range(vertex_count) if v not in taken
    }
    inst = Instance(Graph.from_edges(vertex_count, edges), weights, left, right)
    validate(inst)
    return inst
