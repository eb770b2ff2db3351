"""Named example boards used across the docs, tests and verification lab.

Each builder returns a fresh Instance.  The ``fixtures/`` directory at the
repository root carries the same boards in the text format, one file per
board, written by :func:`write_all`; a test pins the files to these
builders so the two never drift.

Boards that are conceptually a sum of small games come as one builder per
summand (``fig_add_a``/``fig_add_b``, the ``tab_*`` pairs), since the lab
exercises them through the sum machinery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .model import Graph, Instance, serialize_instance
from .solver import OutcomeClass


def _board(
    n: int,
    edges: list[tuple[int, int]],
    weights: dict[int, int],
    left: tuple[int, ...],
    right: tuple[int, ...],
) -> Instance:
    return Instance(Graph.from_edges(n, edges), weights, left, right)


def fig_ex() -> Instance:
    """Six-vertex board with two crossing routes; both first movers net 2."""
    return _board(
        6,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)],
        {1: 4, 2: 2, 3: 3, 4: 1},
        left=(0,),
        right=(5,),
    )


def fig_ex1() -> Instance:
    """Board where grabbing the big pile first loses; greed costs 2 points."""
    return _board(
        6,
        [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)],
        {0: 4, 1: 1, 3: 3, 5: 4},
        left=(2,),
        right=(4,),
    )


def fig_half(x: int = 1) -> Instance:
    """Four-vertex path x, Left, x, Right."""
    return _board(4, [(0, 1), (1, 2), (2, 3)], {0: x, 2: x}, left=(1,), right=(3,))


def fig_add_a() -> Instance:
    return fig_half()


def fig_add_b(x: int = 1) -> Instance:
    """Single edge: a Right ship next to one pile."""
    return _board(2, [(0, 1)], {1: x}, left=(), right=(0,))


def fig_add_components() -> tuple[Instance, Instance]:
    """Two-board sum that favors Right whichever convention is played."""
    return fig_add_a(), fig_add_b()


def fig_mis_a() -> Instance:
    """Four-vertex path with negated piles: -1, Left, -1, Right."""
    return fig_half(-1)


def fig_mis_b() -> Instance:
    return fig_add_b(-1)


def fig_mis_c() -> Instance:
    """Single edge: a Left ship next to one negated pile."""
    return _board(2, [(0, 1)], {1: -1}, left=(0,), right=())


def fig_mis_components() -> tuple[Instance, Instance, Instance]:
    """Three-board sum with all piles negative; ties under misere play."""
    return fig_mis_a(), fig_mis_b(), fig_mis_c()


def _branched_double_left() -> Instance:
    """Path Left-1-1 with a Right leaf and a second Left leaf at the top."""
    return _board(
        5,
        [(0, 1), (1, 2), (2, 3), (2, 4)],
        {1: 1, 2: 1},
        left=(0, 4),
        right=(3,),
    )


def _three_path() -> Instance:
    """Path Left, 1, Right: whoever starts takes the middle pile."""
    return _board(3, [(0, 1), (1, 2)], {1: 1}, left=(0,), right=(2,))


def _left_edge() -> Instance:
    return _board(2, [(0, 1)], {1: 1}, left=(0,), right=())


def _star_with_tail() -> Instance:
    """Center pile with a pile, a Left ship and a Right ship as leaves."""
    return _board(4, [(0, 1), (1, 2), (1, 3)], {0: 1, 1: 1}, left=(2,), right=(3,))


def _chain_with_fork() -> Instance:
    """Three piles in a row; Left and Right both hang off the last one."""
    return _board(
        5,
        [(0, 1), (1, 2), (2, 3), (2, 4)],
        {0: 1, 1: 1, 2: 1},
        left=(3,),
        right=(4,),
    )


def _double_left_with_right_edge() -> Instance:
    """The branched double-Left board and a Right edge as one disconnected board."""
    return _board(
        7,
        [(0, 1), (1, 2), (2, 3), (2, 4), (5, 6)],
        {1: 1, 2: 1, 6: 1},
        left=(0, 4),
        right=(3, 5),
    )


def mirrored_half() -> Instance:
    """Mirror of :func:`fig_half`: four-vertex path 1, Right, 1, Left."""
    return _board(4, [(0, 1), (1, 2), (2, 3)], {0: 1, 2: 1}, left=(3,), right=(1,))


#: Sum cases with their expected outcome classes, keyed by case id.
#: Each value is ((component builders), expected class of the sum).
TAB_CASES: dict[str, tuple[tuple[Callable[[], Instance], ...], OutcomeClass]] = {
    "3_1": ((fig_half, mirrored_half), OutcomeClass.TIE),
    "3_2": ((fig_half, fig_add_b), OutcomeClass.R),
    "3_3": ((_branched_double_left, fig_add_b), OutcomeClass.N),
    "4_1": ((_three_path, _left_edge), OutcomeClass.L),
    "4_2": ((fig_half, _star_with_tail), OutcomeClass.N),
    "5_1": ((_double_left_with_right_edge, _three_path), OutcomeClass.R),
    "5_2": ((_three_path, _three_path), OutcomeClass.TIE),
    "5_3": ((_chain_with_fork, _star_with_tail), OutcomeClass.N),
}


def tab_case(case: str) -> tuple[tuple[Instance, ...], OutcomeClass]:
    builders, expected = TAB_CASES[case]
    return tuple(b() for b in builders), expected


def all_fixtures() -> dict[str, Instance]:
    """Every named board, keyed by its fixture file stem."""
    out: dict[str, Instance] = {
        "fig_ex": fig_ex(),
        "fig_ex1": fig_ex1(),
        "fig_half": fig_half(),
        "fig_add_a": fig_add_a(),
        "fig_add_b": fig_add_b(),
        "fig_mis_a": fig_mis_a(),
        "fig_mis_b": fig_mis_b(),
        "fig_mis_c": fig_mis_c(),
    }
    for case, (builders, _) in TAB_CASES.items():
        for label, builder in zip("abc", builders):
            out[f"tab_case{case}{label}"] = builder()
    return out


def write_all(directory: str | Path) -> list[Path]:
    """Write every fixture board to ``<directory>/<name>.pt``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, inst in sorted(all_fixtures().items()):
        path = directory / f"{name}.pt"
        path.write_text(serialize_instance(inst))
        written.append(path)
    return written
