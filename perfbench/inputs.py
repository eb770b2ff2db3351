"""Seeded inputs for the benchmark, generated by the benchmark's own code.

The boards come from a fixed bank: the frozen fixture copies in
``fixtures.json`` plus boards drawn here from ``BANK_SEED``.  The run seed
never changes which boards are played, only how they are written: it
relabels the vertices of every board, shuffles the components of every
sum and shuffles the order of the items.  Relabeling and reordering keep
every answer (final scores, class, normal and misere winners), so
``expected.json`` covers any seed, while the search order, and with it
the node counts, changes from seed to seed.  Keeping the board structure
fixed is what keeps the heavy-tailed solve latencies steady across seeds.

Nothing here imports the package: a change to its generators or its file
format code cannot silently change the workloads.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BANK_SEED = 12082432

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Board:
    """A board in plain data: ``values`` maps every non-berth vertex."""

    n: int
    values: dict
    left: tuple
    right: tuple
    edges: tuple
    score: int = 0

    def text(self) -> str:
        lines = [f"vertices {self.n}"]
        for v in range(self.n):
            if v in self.left:
                lines.append(f"v {v} ship L")
            elif v in self.right:
                lines.append(f"v {v} ship R")
            else:
                lines.append(f"v {v} value {self.values[v]}")
        lines.extend(f"e {u} {v}" for u, v in sorted(self.edges))
        if self.score:
            lines.append(f"score {self.score}")
        return "\n".join(lines) + "\n"

    def relabeled(self, rng: random.Random) -> Board:
        perm = list(range(self.n))
        rng.shuffle(perm)
        return Board(
            self.n,
            {perm[v]: w for v, w in self.values.items()},
            tuple(perm[v] for v in self.left),
            tuple(perm[v] for v in self.right),
            tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in self.edges)),
            self.score,
        )


def parse_board(text: str) -> Board:
    """Read the canonical text form that ``Board.text`` and the fixtures use."""
    n = 0
    values: dict = {}
    left, right, edges = [], [], []
    score = 0
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "vertices":
            n = int(parts[1])
        elif parts[0] == "v" and parts[2] == "value":
            values[int(parts[1])] = int(parts[3])
        elif parts[0] == "v":
            (left if parts[3] == "L" else right).append(int(parts[1]))
        elif parts[0] == "e":
            u, v = int(parts[1]), int(parts[2])
            edges.append((min(u, v), max(u, v)))
        elif parts[0] == "score":
            score = int(parts[1])
        else:
            raise ValueError(f"unexpected line {line!r}")
    return Board(n, values, tuple(sorted(left)), tuple(sorted(right)), tuple(sorted(edges)), score)


def digest(texts) -> str:
    """Short fingerprint of an item's base boards, checked against expected.json."""
    return hashlib.sha256("\n+\n".join(texts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Generators


def _board(n, edges, left, right, value_of) -> Board:
    berths = set(left) | set(right)
    values = {v: value_of(v) for v in range(n) if v not in berths}
    return Board(n, values, tuple(sorted(left)), tuple(sorted(right)), tuple(sorted(edges)))


def random_board(rng: random.Random, n: int, p: float, fleet: int) -> Board:
    """Independent edges with probability p, piles 1..4, ``fleet`` ships a side."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    berths = rng.sample(range(n), 2 * fleet)
    return _board(n, edges, berths[:fleet], berths[fleet:], lambda v: rng.randint(1, 4))


def grid_board(rng: random.Random, cols: int, rows: int) -> Board:
    """Uniform value-1 grid with one ship a side on random distinct cells."""
    edges = []
    for y in range(rows):
        for x in range(cols):
            v = x + y * cols
            if x + 1 < cols:
                edges.append((v, v + 1))
            if y + 1 < rows:
                edges.append((v, v + cols))
    left, right = rng.sample(range(cols * rows), 2)
    return _board(cols * rows, edges, [left], [right], lambda v: 1)


def connected_board(rng: random.Random, n: int, uniform: bool) -> Board:
    """Random attachment tree plus extra edges; uniform value 1 or piles 1..4."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25
    }
    left, right = rng.sample(range(n), 2)
    return _board(n, edges, [left], [right], (lambda v: 1) if uniform else (lambda v: rng.randint(1, 4)))


def fixture_boards() -> dict[str, Board]:
    """Frozen copies of the repository's fixture boards, by file stem."""
    texts = json.loads((HERE / "fixtures.json").read_text())
    return {name: parse_board(text) for name, text in texts.items()}


# ---------------------------------------------------------------------------
# The banks: (item id, command, base boards)

FIXTURE_SUMS = {
    "fig_add": ("fig_add_a", "fig_add_b"),
    "fig_mis": ("fig_mis_a", "fig_mis_b", "fig_mis_c"),
    **{
        f"tab_case{case}": (f"tab_case{case}a", f"tab_case{case}b")
        for case in ("3_1", "3_2", "3_3", "4_1", "4_2", "5_1", "5_2", "5_3")
    },
}


#: Random boards per vertex count, by fleet size (12 where not listed).
#: At 12 apiece the largest boards took most of the nodes and a pass ran
#: 15 s, so the counts thin out as boards grow, except around the 95th
#: percentile: extra boards there keep that percentile from resting on a
#: few boards whose cost moves with the seed's relabeling.
RANDOM_BOARDS = {
    1: {12: 16, 13: 16, 14: 14, 15: 14, 16: 14, 17: 20, 18: 8},
    2: {16: 24, 17: 2, 18: 2},
}


def solve_bank() -> list[tuple[str, str, tuple[Board, ...]]]:
    """Fixtures, every grid up to 6x5, and random boards with n = 12..18."""
    rng = random.Random(BANK_SEED)
    items = [(f"fixture:{name}", "solve", (b,)) for name, b in sorted(fixture_boards().items())]
    for cols in range(2, 7):
        for rows in range(2, 6):
            items.append((f"grid:{cols}x{rows}", "solve", (grid_board(rng, cols, rows),)))
    for n in range(12, 19):
        for fleet in (1, 2):
            for k in range(RANDOM_BOARDS[fleet].get(n, 12)):
                board = random_board(rng, n, 0.3, fleet)
                items.append((f"random:n{n}:f{fleet}:{k}", "solve", (board,)))
    return items


def sums_bank() -> list[tuple[str, str, tuple[Board, ...]]]:
    """Fixture summand sets under both commands, then seeded small sums."""
    rng = random.Random(BANK_SEED + 1)
    fixtures = fixture_boards()
    items = []
    for name, parts in FIXTURE_SUMS.items():
        for command in ("sum", "compare"):
            items.append((f"{command}:{name}", command, tuple(fixtures[p] for p in parts)))
    for k in (2, 3, 4):
        for i in range(80):
            comps = tuple(connected_board(rng, rng.randint(3, 6), rng.random() < 0.5) for _ in range(k))
            items.append((f"sum:k{k}:{i}", "sum", comps))
    for k in (2, 3):
        for i in range(40):
            comps = tuple(connected_board(rng, rng.randint(2, 5), rng.random() < 0.5) for _ in range(k))
            items.append((f"compare:k{k}:{i}", "compare", comps))
    return items


BANKS = {"solve": solve_bank, "sums": sums_bank}


def write_items(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the seed's rendering of a bank as board files; return the manifest.

    Each manifest entry names the item, its command line for ``cli.main``
    and the digest of its base boards.
    """
    rng = random.Random(seed)
    manifest = []
    for index, (item_id, command, boards) in enumerate(BANKS[workload]()):
        order = list(range(len(boards)))
        rng.shuffle(order)
        paths = []
        for slot, c in enumerate(order):
            path = directory / f"{index:04d}_{slot}.pt"
            path.write_text(boards[c].relabeled(rng).text())
            paths.append(str(path))
        argv = [command, "--machine", *paths] if command == "solve" else [command, *paths]
        manifest.append(
            {"id": item_id, "argv": argv, "digest": digest([b.text() for b in boards])}
        )
    rng.shuffle(manifest)
    return manifest
