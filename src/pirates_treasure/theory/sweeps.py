"""Bulk verification sweeps over instance families.

Each sweep checks one structural claim across an exhaustive family, a
seeded random family, or both, and returns a :class:`SweepReport` with
every counterexample found.  Sweeps are deterministic for fixed
parameters, and splitting the work across processes never changes the
result, only the wall time.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .. import fixtures
from ..algebra import negate_instance, solve_sum, sum_position
from ..engine import Player
from ..model import Graph, serialize_graph, serialize_instance
from ..solver import (
    DEFAULT_NODE_BUDGET,
    OutcomeClass,
    classify,
    final_scores,
    left_wins_moving_first,
)
from .contexts import distinguishing_context
from .families import (
    connected_labeled_graphs,
    enumerate_pt_negx,
    enumerate_ptx,
    random_pt_instance,
    random_ptx_instance,
)
from .reduction import hampath_oracle, reduce_from_hampath


@dataclass(frozen=True)
class Violation:
    instance_text: str
    expected: str
    got: str


@dataclass
class SweepReport:
    name: str
    checked: int
    violations: list[Violation]
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def machine_line(self) -> str:
        return f"checked={self.checked} violations={len(self.violations)}"

    def summary(self) -> str:
        lines = [f"sweep {self.name}: {self.machine_line()}"]
        if self.params:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            lines.append(f"  params: {rendered}")
        for v in self.violations[:20]:
            lines.append(f"  expected {v.expected}, got {v.got}, on:")
            lines.extend("    " + ln for ln in v.instance_text.strip().splitlines())
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _run(items: Sequence, worker: Callable, jobs: int) -> list:
    """Apply worker to every item, optionally across processes.

    Results come back in item order whatever the job count, so reports
    are identical for any ``jobs``.
    """
    if jobs <= 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunksize = max(1, len(items) // (jobs * 8))
        return list(pool.map(worker, items, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Reduction sweep: solver verdict vs path oracle


def _reduction_item(item) -> Violation | None:
    n, edges, left_start, budget = item
    g = Graph(n, frozenset(edges))
    solver_says = left_wins_moving_first(reduce_from_hampath(g, left_start).instance, budget)
    oracle_says = hampath_oracle(g, start=left_start)
    if solver_says == oracle_says:
        return None
    text = serialize_graph(g) + f"left_start {left_start}\n"
    return Violation(text, f"left wins = {oracle_says}", f"left wins = {solver_says}")


def check_reduction_sweep(
    max_n: int = 6, jobs: int = 1, budget: int = DEFAULT_NODE_BUDGET
) -> SweepReport:
    """Exhaustive: every connected labeled graph up to max_n, every berth."""
    items = []
    for n in range(1, max_n + 1):
        for g in connected_labeled_graphs(n):
            edges = tuple(sorted(g.edges))
            for left_start in range(n):
                items.append((n, edges, left_start, budget))
    results = _run(items, _reduction_item, jobs)
    return SweepReport(
        "reduction",
        len(items),
        [r for r in results if r is not None],
        {"max_n": max_n},
    )


# ---------------------------------------------------------------------------
# Uniform-value families: forbidden outcome classes


def _forbidden_class_item(item) -> Violation | None:
    inst, forbidden, budget = item
    got = classify(final_scores(inst, budget))
    if got is forbidden:
        return Violation(serialize_instance(inst), f"class != {forbidden}", f"class = {got}")
    return None


def _forbidden_class_random_item(item) -> Violation | None:
    seed, max_n, value, forbidden, budget = item
    rng = random.Random(seed)
    inst = random_ptx_instance(rng.randint(2, max_n), value, rng)
    return _forbidden_class_item((inst, forbidden, budget))


def check_no_p_positions(
    max_exhaustive_n: int = 5,
    x: int = 1,
    random_trials: int = 10_000,
    random_max_n: int = 9,
    seed: int = 101,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Uniform positive piles: the second player never wins outright."""
    return _forbidden_class_sweep(
        "pt-x", x, OutcomeClass.P, max_exhaustive_n, random_trials, random_max_n,
        seed, jobs, budget,
    )


def check_no_n_positions(
    max_exhaustive_n: int = 5,
    x: int = 1,
    random_trials: int = 10_000,
    random_max_n: int = 9,
    seed: int = 102,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Uniform negative piles: the first player never wins outright."""
    return _forbidden_class_sweep(
        "pt-negx", -x, OutcomeClass.N, max_exhaustive_n, random_trials, random_max_n,
        seed, jobs, budget,
    )


def _forbidden_class_sweep(
    name, value, forbidden, max_exhaustive_n, random_trials, random_max_n,
    seed, jobs, budget,
) -> SweepReport:
    if value == 0:
        raise ValueError("uniform value must be nonzero")
    enumerate_family = enumerate_ptx if value > 0 else enumerate_pt_negx
    items: list = []
    for n in range(2, max_exhaustive_n + 1):
        for inst in enumerate_family(n, abs(value)):
            items.append((inst, forbidden, budget))
    exhaustive = len(items)
    results = list(_run(items, _forbidden_class_item, jobs))
    random_items = [
        (seed + i, random_max_n, value, forbidden, budget) for i in range(random_trials)
    ]
    results.extend(_run(random_items, _forbidden_class_random_item, jobs))
    return SweepReport(
        name,
        exhaustive + random_trials,
        [r for r in results if r is not None],
        {
            "max_exhaustive_n": max_exhaustive_n,
            "x": abs(value),
            "exhaustive": exhaustive,
            "random_trials": random_trials,
            "random_max_n": random_max_n,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# The sum outcome table


_T = OutcomeClass.TIE
_L = OutcomeClass.L
_R = OutcomeClass.R
_N = OutcomeClass.N

#: Allowed classes for a sum of uniform positive boards, by the unordered
#: pair of summand classes.  P never appears: not in a summand (no such
#: positions in this family) and not in a sum (a sum of these boards is
#: again a uniform positive board, just disconnected).
OUTCOME_TABLE: dict[tuple[str, str], frozenset[OutcomeClass]] = {
    ("TIE", "TIE"): frozenset({_T}),
    ("L", "TIE"): frozenset({_L}),
    ("R", "TIE"): frozenset({_R}),
    ("N", "TIE"): frozenset({_N}),
    ("L", "L"): frozenset({_L}),
    ("L", "R"): frozenset({_L, _R, _N, _T}),
    ("L", "N"): frozenset({_L, _N}),
    ("R", "R"): frozenset({_R}),
    ("N", "R"): frozenset({_R, _N}),
    ("N", "N"): frozenset({_L, _R, _N, _T}),
}


def outcome_table_cell(a: OutcomeClass, b: OutcomeClass) -> frozenset[OutcomeClass] | None:
    """Allowed sum classes for summand classes a and b; None if off-table."""
    return OUTCOME_TABLE.get(tuple(sorted((a.value, b.value))))


def _table_item(item) -> Violation | None:
    seed, max_component_n, x, budget = item
    rng = random.Random(seed)
    a = random_ptx_instance(rng.randint(2, max_component_n), x, rng)
    b = random_ptx_instance(rng.randint(2, max_component_n), x, rng)
    class_a = classify(final_scores(a, budget))
    class_b = classify(final_scores(b, budget))
    text = serialize_instance(a) + "+\n" + serialize_instance(b)
    cell = outcome_table_cell(class_a, class_b)
    if cell is None:
        return Violation(text, "summands on the table", f"{class_a} + {class_b}")
    got = solve_sum(sum_position([a, b], Player.LEFT), budget).outcome
    if got not in cell:
        allowed = "/".join(sorted(c.value for c in cell))
        return Violation(text, f"{class_a} + {class_b} in {{{allowed}}}", f"class = {got}")
    return None


def check_outcome_table(
    trials: int = 1000,
    max_component_n: int = 5,
    x: int = 1,
    seed: int = 103,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Random uniform-board pairs: the sum's class stays inside its cell."""
    items = [(seed + i, max_component_n, x, budget) for i in range(trials)]
    results = _run(items, _table_item, jobs)
    return SweepReport(
        "table",
        trials,
        [r for r in results if r is not None],
        {"trials": trials, "max_component_n": max_component_n, "x": x, "seed": seed},
    )


def check_table_witnesses(budget: int = DEFAULT_NODE_BUDGET) -> SweepReport:
    """The named fixture sums hit their printed classes, and together with
    their mirrors they witness every class every multi-valued cell allows."""
    observed: dict[tuple[str, str], set[OutcomeClass]] = {}
    violations: list[Violation] = []
    checked = 0
    for case, (builders, expected) in sorted(fixtures.TAB_CASES.items()):
        components = [b() for b in builders]
        for mirrored in (False, True):
            comps = [negate_instance(c) for c in components] if mirrored else components
            summand_classes = [classify(final_scores(c, budget)) for c in comps]
            got = solve_sum(sum_position(comps, Player.LEFT), budget).outcome
            key = tuple(sorted(c.value for c in summand_classes))
            observed.setdefault(key, set()).add(got)
            checked += 1
            if not mirrored and got is not expected:
                text = "\n+\n".join(serialize_instance(c) for c in comps)
                violations.append(
                    Violation(text, f"case {case} class = {expected}", f"class = {got}")
                )
    for key, allowed in OUTCOME_TABLE.items():
        if len(allowed) < 2:
            continue
        missing = allowed - observed.get(key, set())
        if missing:
            violations.append(
                Violation(
                    f"cell {key[0]} + {key[1]}",
                    "a witness for each of " + "/".join(sorted(c.value for c in allowed)),
                    "missing " + "/".join(sorted(c.value for c in missing)),
                )
            )
    return SweepReport("table-witnesses", checked, violations)


# ---------------------------------------------------------------------------
# Self-sums tie


def _self_sum_item(item) -> Violation | None:
    inst, budget = item
    mirrored = negate_instance(inst)
    got = solve_sum(sum_position([inst, mirrored], Player.LEFT), budget).outcome
    if got is OutcomeClass.TIE:
        return None
    return Violation(serialize_instance(inst), "board + mirror ties", f"class = {got}")


def _self_sum_random_item(item) -> Violation | None:
    seed, max_n, x, budget = item
    rng = random.Random(seed)
    inst = random_ptx_instance(rng.randint(2, max_n), x, rng)
    return _self_sum_item((inst, budget))


def check_self_sum_tie(
    max_exhaustive_n: int = 4,
    x: int = 1,
    random_trials: int = 1000,
    random_max_n: int = 7,
    seed: int = 104,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Any uniform board plus its own mirror plays to a dead tie."""
    items: list = []
    for n in range(2, max_exhaustive_n + 1):
        for inst in enumerate_ptx(n, x):
            items.append((inst, budget))
    exhaustive = len(items)
    results = list(_run(items, _self_sum_item, jobs))
    random_items = [(seed + i, random_max_n, x, budget) for i in range(random_trials)]
    results.extend(_run(random_items, _self_sum_random_item, jobs))
    return SweepReport(
        "self-sum",
        exhaustive + random_trials,
        [r for r in results if r is not None],
        {
            "max_exhaustive_n": max_exhaustive_n,
            "x": x,
            "exhaustive": exhaustive,
            "random_trials": random_trials,
            "random_max_n": random_max_n,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Distinguishing contexts


def _distinguishing_item(item) -> Violation | None:
    seed, max_n, budget = item
    rng = random.Random(seed)
    inst = random_pt_instance(rng.randint(3, max_n), rng, require_left_move=True)
    context = distinguishing_context(inst)
    alone = final_scores(context, budget).left_first
    summed = solve_sum(sum_position([inst, context], Player.LEFT), budget)
    summed = summed.final_scores.left_first
    sign = lambda v: (v > 0) - (v < 0)  # noqa: E731
    if sign(alone) != sign(summed):
        return None
    text = serialize_instance(inst) + "+\n" + serialize_instance(context)
    return Violation(
        text,
        "Left-first result changes sign next to the context",
        f"alone = {alone}, summed = {summed}",
    )


def check_distinguishing(
    trials: int = 1000,
    max_n: int = 7,
    seed: int = 105,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """The overweight-edge context always separates a board with a mobile
    Left ship from the empty game, Left moving first."""
    items = [(seed + i, max_n, budget) for i in range(trials)]
    results = _run(items, _distinguishing_item, jobs)
    return SweepReport(
        "distinguishing",
        trials,
        [r for r in results if r is not None],
        {"trials": trials, "max_n": max_n, "seed": seed},
    )
