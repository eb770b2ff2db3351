"""Bulk verification sweeps over instance families.

Each sweep checks one structural claim on every board of a family and
returns a :class:`SweepReport` with every counterexample found.  All
sweeps share one pipeline.  An item is a block ``(boards, args)``: a
module-level board source and its arguments, such as a range of edge
masks of one size, or a range of seeds that the one loop :func:`_draws`
hands one by one to a sweep's per-seed draw (:func:`_seeded` checks the
seed and the draw size for all five seeded sweeps).  One worker,
:func:`_block`, expands the block with ``boards(*args)`` and calls the
sweep's per-board check ``check(*board)``, a :func:`functools.partial`
over the check's fixed arguments (they come first), which returns a
:class:`Violation` or ``None``.  It counts the boards and keeps the
violations in board order; :func:`_sweep` adds up the blocks in item
order, in this process or over one process pool, so splitting the work
never changes the result, only the wall time.  No board crosses the
pool, and blocks go in chunks of about an eighth of a worker's share, so
n = 7 (8,192 blocks) keeps only 16 tasks pending at ``jobs=2``.  Sweeps
are deterministic for fixed parameters.
A process keeps at most one pool alive, and every pooled sweep of that
worker count runs on it (:func:`_pool_for`), so a run of several sweeps,
such as ``pirates verify all``, starts its workers once.  A sweep that
fails drops the pool, a forked child forgets its parent's, and
``concurrent.futures`` stops the workers at exit.  The pool's modules
(``concurrent.futures``, ``multiprocessing``) load on the first sweep run
with ``jobs > 1`` over more than one block, and the fixture boards only
in :func:`check_table_witnesses`, so importing the package or running a
serial sweep starts neither.

The reduction, uniform-value and table checks work on raw bitmasks.  The
reduction builds one gadget board and one search per graph
(:func:`~.reduction.gadget_board`) and sets each berth's packed root on
it, one zero-window search each, against the path oracle; the berths of
a graph share the search's table.  The three uniform checks (no P
positions when every pile is worth 1, no N positions at -1, a board plus
its mirror ties) are one routine, :func:`_uniform_check`, bound with a
board builder and a class predicate.  It packs the two roots, each three
vertex masks (mover's fleet, other fleet, plundered; a board beside its
mirror holds two ships a side), and the predicate runs zero-window
searches that stop at the first root that settles it.  It asks once per
berth pair: the board with berths (b, a) has the adjacency, piles and
packed roots of the board with (a, b), the roots in the other order, so
it takes the verdict that (a, b) got earlier on the same graph.  The
table check takes each summand's class from the signs of its two first
movers' results, windows ``(-1, 1)``, and searches the boards side by
side for Left first, then for Right first only when that sign leaves the
sum's cell open.  Each uniform claim covers every x > 0 at once: scaling
every pile by x scales every final score by x and keeps every sign, so
the sweeps check x = 1.  A violating board's class comes from
:func:`_sign_class` on the bitmask board searched (a self-sum beside its
mirror, a table pair side by side), and only then is it built as an
:class:`~pirates_treasure.model.Instance`, to be written out.  The
distinguishing check reads only the signs of Left-first scores, each
from one search in a window around its banked score, and computes exact
scores only to word a violation.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

from ..algebra import negate_instance
from ..engine import Player, initial_position
from ..errors import BudgetExceededError, ValidationError, WorkerLostError
from ..model import Instance, serialize_graph, serialize_instance
from ..solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Search,
    _beside,
    _union_state,
    classify,
    final_scores,
)
from .families import (
    MAX_DRAW_N,
    MAX_ENUMERATION_N,
    _below,
    _mask_count,
    connected_adjacencies,
    distinguishing_context,
    graph_from_bits,
    random_pt_instance,
    random_uniform_bits,
    uniform_boards_bits,
    uniform_instance,
)
from .reduction import gadget_board, hampath_from


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


def _sweep(name: str, check: Callable, blocks: Sequence, jobs: int, params: dict) -> SweepReport:
    """Check every board of every block, optionally across one process pool.

    Results come back in block order whatever the job count, so reports
    are identical for any ``jobs``, which must be at least 1.  The pool
    has no more workers than there are blocks, and a single block is
    checked in this process.  The pool takes the blocks in chunks of
    ``len(blocks) // (8 * workers)``, at least one, so about eight tasks
    per worker wait here however many blocks there are.  The pool is the
    process's one live pool (:func:`_pool_for`): a later sweep with the
    same worker count runs on the same workers.  Those workers run the
    modules as they were when the pool forked, so code patched after that
    reaches them only once the pool is dropped (:func:`_drop_pool`).  A
    sweep that raises drops the pool, its queued chunks cancelled, and the
    next pooled sweep starts a new one, as does a forked child's first
    (:func:`_forget_pool`).  A search past its node budget is
    reported as the sweep's, ``<name> sweep exceeded node budget of
    <budget>``, whatever the job count.  A pool that loses a worker
    process raises :class:`~pirates_treasure.errors.WorkerLostError`,
    ``<name> sweep lost a worker process``.
    """
    _require_at_least("jobs", jobs, 1)
    items = [(check, boards, args) for boards, args in blocks]
    workers = min(jobs, len(items))
    try:
        if workers <= 1:
            results = [_block(item) for item in items]
        else:
            from concurrent.futures import BrokenExecutor

            with _pool_lock:
                try:
                    chunk = max(1, len(items) // (8 * workers))
                    results = list(_pool_for(workers).map(_block, items, chunksize=chunk))
                except BaseException as exc:
                    _drop_pool()
                    if isinstance(exc, BrokenExecutor):
                        raise WorkerLostError(f"{name} sweep lost a worker process") from None
                    raise
    except BudgetExceededError as exc:
        raise BudgetExceededError(exc.budget, f"{name} sweep") from None
    checked = sum(count for count, _ in results)
    violations = [v for _, found in results for v in found]
    return SweepReport(name, checked, violations, params)


#: The process's one live pool as ``(workers, executor)``, or ``None``;
#: read and replaced only under ``_pool_lock``, which a pooled sweep holds
#: from start to end, so no sweep can shut down another one's pool.
_pool = None
_pool_lock = threading.RLock()


def _forget_pool() -> None:
    """In a forked child: the parent's pool lost its manager thread in the
    fork, so a sweep queued on it would wait forever, and the lock may be
    held by a thread that is gone.  Drop both without shutting the pool
    down, which would act on the parent's workers; the child's first
    pooled sweep starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_pool)


def _pool_for(workers: int):
    """The live pool if it has ``workers`` workers, else a new one that
    replaces it: the old pool is shut down first, so at most one is alive."""
    global _pool
    if _pool is None or _pool[0] != workers:
        from concurrent.futures import ProcessPoolExecutor

        _drop_pool()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _drop_pool() -> None:
    """Shut the live pool down, if there is one: its queued chunks are
    cancelled, and this waits for the running ones and the workers' exit."""
    global _pool
    with _pool_lock:
        live, _pool = _pool, None
        if live is not None:
            live[1].shutdown(cancel_futures=True)


def _block(item) -> tuple[int, list[Violation]]:
    """Expand one block with ``boards(*args)`` and check each board: the
    number of boards and their violations, in board order."""
    check, boards, args = item
    checked = 0
    violations = []
    for board in boards(*args):
        checked += 1
        found = check(*board)
        if found is not None:
            violations.append(found)
    return checked, violations


def _require_at_least(key: str, value: int, least: int) -> None:
    if value < least:
        raise ValidationError(f"{key} must be at least {least}, got {value}")


def _require_between(key: str, value: int, least: int, most: int) -> None:
    _require_at_least(key, value, least)
    if value > most:
        raise ValidationError(f"{key} must be at most {most}, got {value}")


#: Edge masks or seeds per item of every sweep: small enough that the
#: default exhaustive sizes (n <= 5, 1,024 masks at 5) still spread over
#: two workers.  The reduction makes 136 items at n <= 6 and 8,192 at n = 7.
_BLOCK = 256


def _blocks(start: int, stop: int) -> Iterator[range]:
    """[start, stop) in consecutive ranges of ``_BLOCK``, the last one shorter."""
    for first in range(start, stop, _BLOCK):
        yield range(first, min(first + _BLOCK, stop))


def _seeded(
    draw: Callable, seed: int, trials: int, key: str, least_n: int, max_n: int
) -> list[tuple]:
    """The seeded sweeps' blocks: ``trials`` consecutive seeds from ``seed``,
    each drawn by :func:`_draws` with the per-seed ``draw`` at ``max_n``.
    Seeds are at least 0, since ``Random(-k)`` draws what ``Random(k)``
    draws, and ``max_n``, named ``key``, lies in ``least_n..MAX_DRAW_N``:
    no node budget stops a draw."""
    _require_at_least("seed", seed, 0)
    _require_between(key, max_n, least_n, MAX_DRAW_N)
    return [(_draws, (draw, seeds, max_n)) for seeds in _blocks(seed, seed + trials)]


def _draws(draw: Callable, seeds: range, max_n: int) -> Iterator:
    """``draw(rng, max_n)`` for ``rng = Random(seed)``, one seed after
    another: one generator, reseeded per seed."""
    rng = random.Random()
    for seed in seeds:
        rng.seed(seed)
        yield draw(rng, max_n)


# ---------------------------------------------------------------------------
# Reduction sweep: solver verdict vs path oracle


def _berths(n: int, masks: range, budget: int) -> Iterator[tuple[Search, tuple, list[int], int]]:
    """Every connected n-vertex graph whose edge mask lies in ``masks``,
    once per berth, with the graph's one gadget search and the berth's
    packed root on it.  The berths of one graph share that search's table
    and its node budget."""
    for adj in connected_adjacencies(n, masks):
        board, wt, roots = gadget_board(adj)
        search = Search(board, wt, budget)
        for berth, root in enumerate(roots):
            yield search, root, adj, berth


def _gadget_check(search, root, adj, berth) -> Violation | None:
    """The gadget's Left-first verdict against the path oracle."""
    solver_says = search.value(*root, 0, 1) >= 1
    oracle_says = hampath_from(adj, berth)
    if solver_says == oracle_says:
        return None
    text = serialize_graph(graph_from_bits(adj)) + f"left_start {berth}\n"
    return Violation(text, f"left wins = {oracle_says}", f"left wins = {solver_says}")


def check_reduction_sweep(
    max_n: int = 6, jobs: int = 1, budget: int = DEFAULT_NODE_BUDGET
) -> SweepReport:
    """Exhaustive: every connected labeled graph up to max_n, every berth.

    ``max_n`` lies in 1..7, the sizes exhaustive enumeration supports.
    The graphs come in ascending edge-mask order, in blocks of 256
    masks, each enumerated and checked by its worker.  Each graph gets
    one gadget board and one search, and every berth is a root on it, so
    ``budget`` bounds the nodes of one graph over all its berths.
    """
    if not 1 <= max_n <= MAX_ENUMERATION_N:
        raise ValidationError(
            f"reduction sweep supports 1 <= max_n <= {MAX_ENUMERATION_N}, got {max_n}"
        )
    blocks = [
        (_berths, (n, masks, budget))
        for n in range(1, max_n + 1)
        for masks in _blocks(0, _mask_count(n))
    ]
    return _sweep("reduction", _gadget_check, blocks, jobs, {"max_n": max_n})


# ---------------------------------------------------------------------------
# Uniform-value families: one driver, one check per board


def _drawn(rng: random.Random, max_n: int) -> tuple[list[int], int, int]:
    """A board as ``random_ptx_instance(rng.randint(2, max_n), 1, rng)``
    draws it, read only through ``getrandbits()`` and ``random()``."""
    return random_uniform_bits(2 + _below(rng.getrandbits, max_n - 1), rng)


def _uniform_sweep(
    name, check, max_exhaustive_n, random_trials, random_max_n, seed, jobs
) -> SweepReport:
    """Every uniform board up to ``max_exhaustive_n`` vertices, then
    ``random_trials`` seeded draws, through one runner.  ``check`` has the
    family's pile value (1 or -1) and the node budget bound."""
    _require_at_least("random_trials", random_trials, 0)
    drawn = _seeded(_drawn, seed, random_trials, "random_max_n", 2, random_max_n)
    if max_exhaustive_n > MAX_ENUMERATION_N:
        raise ValidationError(
            f"{name} sweep supports max_exhaustive_n <= {MAX_ENUMERATION_N}, "
            f"got {max_exhaustive_n}"
        )
    if max_exhaustive_n < 2 and not random_trials:
        raise ValidationError(
            f"{name} sweep has nothing to check: no exhaustive size of 2 or more "
            f"(max_exhaustive_n={max_exhaustive_n}) and no random trials"
        )
    blocks = [
        (uniform_boards_bits, (n, masks))
        for n in range(2, max_exhaustive_n + 1)
        for masks in _blocks(0, _mask_count(n))
    ] + drawn
    blocks = [(_twins, (boards, *args)) for boards, args in blocks]
    params = dict(
        max_exhaustive_n=max_exhaustive_n, x=1, random_trials=random_trials,
        random_max_n=random_max_n, seed=seed,
    )
    report = _sweep(name, check, blocks, jobs, params)
    # each seed is one board, so the rest of the count is the exhaustive part
    params["exhaustive"] = report.checked - random_trials
    return report


def _twins(boards: Callable, *args) -> Iterator[tuple[list[int], int, int, dict]]:
    """The boards of ``boards(*args)``, each with the verdict memo of its graph.

    One memo serves the boards of one graph, which come one after another
    as one adjacency list; it is keyed by the berth mask.  The board with
    berths (b, a) has the same adjacency and piles as the one with (a, b),
    and the same two packed roots in the other order, so a class question
    on both roots gets the same answer from both: the later twin takes the
    earlier one's verdict unsearched.  A drawn board has a graph of its own
    and misses.
    """
    verdicts: dict[int, bool] = {}
    last = None
    for adj, left, right in boards(*args):
        if adj is not last:
            verdicts, last = {}, adj
        yield adj, left, right, verdicts


def _piles(n: int, left: int, right: int, value: int) -> list[int]:
    """Pile values of a uniform board: ``value`` on every vertex but the berths."""
    wt = [value] * n
    wt[left] = wt[right] = 0
    return wt


def _uniform(adj, left, right, value) -> tuple[list[int], list[int], int, int]:
    """A uniform board on bitmasks: adjacency, piles, Left's and Right's fleet masks."""
    return adj, _piles(len(adj), left, right, value), 1 << left, 1 << right


def _search_roots(board, budget) -> tuple[Search, tuple]:
    """A search over a bitmask board and its two packed roots, Left first
    and Right first, with nothing plundered but the berths."""
    adj, wt, lefts, rights = board
    berths = lefts | rights
    return Search(adj, wt, budget), ((lefts, rights, berths), (rights, lefts, berths))


def _sign_class(board, budget: int) -> OutcomeClass:
    """A bitmask board's class from the signs of its two first movers'
    results, each one window ``(-1, 1)`` search."""
    search, (left_first, right_first) = _search_roots(board, budget)
    return classify(
        FinalScores(search.value(*left_first, -1, 1), -search.value(*right_first, -1, 1))
    )


def _instance(adj, left, right, value) -> Instance:
    """The uniform board that a violation's report line shows."""
    return uniform_instance(graph_from_bits(adj), left, right, value)


# Class predicates on the two packed roots (Left first, Right first), each
# valued in its mover's frame with nothing banked; the second root is
# searched only when the first passes.


def _is_p(search: Search, roots) -> bool:
    """Both first movers end below 0."""
    return all(search.value(*root, -1, 0) < 0 for root in roots)


def _is_n(search: Search, roots) -> bool:
    """Both first movers end above 0."""
    return all(search.value(*root, 0, 1) > 0 for root in roots)


def _is_tie(search: Search, roots) -> bool:
    """Both first movers end at exactly 0."""
    return all(search.value(*root, -1, 1) == 0 for root in roots)


def _mirrored(adj, left, right, value):
    """A uniform board beside its mirror, the same board with the berths
    swapped: Left holds (left, right + n)."""
    return _beside(_uniform(adj, left, right, value), _uniform(adj, right, left, value))


def _no_tie(search: Search, roots) -> bool:
    """A board beside its mirror misses the tie, from the Left-first root
    alone: swapping the two components keeps the adjacency, the piles and
    the plundered set and maps Left's fleet onto Right's, so the
    Right-first root has the same value to its mover.  So at a tight node
    budget a self-sum may pass where the Right-first root would not."""
    return not _is_tie(search, roots[:1])


def _uniform_check(
    expected, board_of: Callable, violates: Callable, value, budget, adj, left, right, verdicts
) -> Violation | None:
    """``violates`` on the packed roots of ``board_of(adj, left, right,
    value)``, once per berth pair: ``verdicts`` holds ``True`` for a
    violation.  Only a violating board is searched for its class."""
    berths = 1 << left | 1 << right
    hit = verdicts.get(berths)
    if hit is None:
        board = board_of(adj, left, right, value)
        hit = verdicts[berths] = violates(*_search_roots(board, budget))
    if not hit:
        return None
    got = _sign_class(board_of(adj, left, right, value), budget)
    text = serialize_instance(_instance(adj, left, right, value))
    return Violation(text, expected, f"class = {got}")


def check_no_p_positions(
    max_exhaustive_n: int = 5,
    random_trials: int = 10_000,
    random_max_n: int = 9,
    seed: int = 101,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Every pile worth 1, so any x > 0: the second player never wins outright."""
    return _uniform_sweep(
        "pt-x", partial(_uniform_check, "class != P", _uniform, _is_p, 1, budget),
        max_exhaustive_n, random_trials, random_max_n, seed, jobs,
    )


def check_no_n_positions(
    max_exhaustive_n: int = 5,
    random_trials: int = 10_000,
    random_max_n: int = 9,
    seed: int = 102,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Every pile worth -1, so any -x < 0: the first player never wins outright."""
    return _uniform_sweep(
        "pt-negx", partial(_uniform_check, "class != N", _uniform, _is_n, -1, budget),
        max_exhaustive_n, random_trials, random_max_n, seed, jobs,
    )


def check_self_sum_tie(
    max_exhaustive_n: int = 4,
    random_trials: int = 1000,
    random_max_n: int = 7,
    seed: int = 104,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Any board with piles of 1, so any x > 0, plus its mirror plays to a dead tie."""
    return _uniform_sweep(
        "self-sum", partial(_uniform_check, "board + mirror ties", _mirrored, _no_tie, 1, budget),
        max_exhaustive_n, random_trials, random_max_n, seed, jobs,
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


#: The classes still possible once Left first's result has this sign,
#: whatever Right first gets.
_AFTER_LEFT_FIRST = {
    sl: frozenset(classify(FinalScores(sl, sr)) for sr in (-1, 0, 1)) for sl in (-1, 0, 1)
}


def _pairs(rng: random.Random, max_n: int) -> tuple[tuple, tuple]:
    """Two uniform boards, one :func:`_drawn` after the other."""
    return _drawn(rng, max_n), _drawn(rng, max_n)


def _class_in(cell: frozenset[OutcomeClass], board, budget: int) -> bool:
    """Does a bitmask board's class lie in ``cell``?  Right first is
    searched only when Left first's sign leaves the answer open."""
    search, (left_first, right_first) = _search_roots(board, budget)
    v = search.value(*left_first, -1, 1)
    possible = _AFTER_LEFT_FIRST[(v > 0) - (v < 0)]
    inside = possible & cell
    if not inside or inside == possible:
        return bool(inside)
    return classify(FinalScores(v, -search.value(*right_first, -1, 1))) in cell


def _table_check(budget: int, a, b) -> Violation | None:
    """A pair of uniform boards: the sum's class against its cell.  Only a
    violating pair is worded, with the sum's class."""
    board_a, board_b = _uniform(*a, 1), _uniform(*b, 1)
    class_a, class_b = _sign_class(board_a, budget), _sign_class(board_b, budget)
    cell = outcome_table_cell(class_a, class_b)
    board = _beside(board_a, board_b)
    if cell is not None and _class_in(cell, board, budget):
        return None
    text = serialize_instance(_instance(*a, 1)) + "+\n" + serialize_instance(_instance(*b, 1))
    if cell is None:
        return Violation(text, "summands on the table", f"{class_a} + {class_b}")
    got = _sign_class(board, budget)
    allowed = "/".join(sorted(c.value for c in cell))
    return Violation(text, f"{class_a} + {class_b} in {{{allowed}}}", f"class = {got}")


def check_outcome_table(
    trials: int = 1000,
    max_component_n: int = 5,
    seed: int = 103,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Random pairs of boards with piles of 1, so any x > 0: the sum's class
    stays inside its cell."""
    _require_at_least("trials", trials, 1)
    blocks = _seeded(_pairs, seed, trials, "max_component_n", 2, max_component_n)
    params = {"trials": trials, "max_component_n": max_component_n, "x": 1, "seed": seed}
    return _sweep("table", partial(_table_check, budget), blocks, jobs, params)


def check_table_witnesses(budget: int = DEFAULT_NODE_BUDGET) -> SweepReport:
    """The named fixture sums hit their printed classes, and together with
    their mirrors they witness every class every multi-valued cell allows."""
    from .. import fixtures

    observed: dict[tuple[str, str], set[OutcomeClass]] = {}
    violations: list[Violation] = []
    checked = 0
    for case, (builders, expected) in sorted(fixtures.TAB_CASES.items()):
        components = [b() for b in builders]
        for mirrored in (False, True):
            comps = [negate_instance(c) for c in components] if mirrored else components
            try:
                summand_classes = [classify(final_scores(c, budget=budget)) for c in comps]
                got = classify(final_scores(*comps, budget=budget))
            except BudgetExceededError as exc:
                raise BudgetExceededError(exc.budget, "table-witnesses sweep") from None
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
# Distinguishing contexts


def _left_first_sign(boards: Sequence[Instance], budget: int) -> int:
    """Sign of the boards' final score side by side with Left first: one
    search in the window ``(-1, 1)`` around the banked score."""
    roots = [initial_position(b, Player.LEFT) for b in boards]
    banked = sum(p.score for p in roots)
    root = _union_state(roots, Player.LEFT)
    score = banked + Search.of(boards, budget).value(*root, -1 - banked, 1 - banked)
    return (score > 0) - (score < 0)


def _drawn_pt(rng: random.Random, max_n: int) -> tuple[Instance]:
    """A board as ``random_pt_instance(rng.randint(3, max_n), rng)`` draws
    it, read as in :func:`_drawn`."""
    return (random_pt_instance(3 + _below(rng.getrandbits, max_n - 2), rng),)


def _distinguishing_check(budget: int, inst: Instance) -> Violation | None:
    """A board's Left-first sign alone and beside its context.  Only a
    violating board is worded, with both exact scores."""
    context = distinguishing_context(inst)
    if _left_first_sign([context], budget) != _left_first_sign([inst, context], budget):
        return None
    alone = final_scores(context, budget=budget).left_first
    summed = final_scores(inst, context, budget=budget).left_first
    text = serialize_instance(inst) + "+\n" + serialize_instance(context)
    expected = "Left-first result changes sign next to the context"
    return Violation(text, expected, f"alone = {alone}, summed = {summed}")


def check_distinguishing(
    trials: int = 1000,
    max_n: int = 7,
    seed: int = 105,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """The overweight-edge context always separates a board with a mobile
    Left ship from the empty game, Left moving first."""
    _require_at_least("trials", trials, 1)
    blocks = _seeded(_drawn_pt, seed, trials, "max_n", 3, max_n)
    params = {"trials": trials, "max_n": max_n, "seed": seed}
    return _sweep("distinguishing", partial(_distinguishing_check, budget), blocks, jobs, params)
