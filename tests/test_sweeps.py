from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from pirates_treasure import fixtures
from pirates_treasure.algebra import negate_instance
from pirates_treasure.engine import Player, initial_position
from pirates_treasure.errors import BudgetExceededError, ParseError, ValidationError
from pirates_treasure.model import Instance, serialize_instance
from pirates_treasure.solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Search,
    _union_state,
    classify,
    final_scores,
)
from pirates_treasure.theory import sweeps
from pirates_treasure.theory import (
    OUTCOME_TABLE,
    SweepReport,
    Violation,
    check_distinguishing,
    check_no_n_positions,
    check_no_p_positions,
    check_outcome_table,
    check_reduction_sweep,
    check_self_sum_tie,
    check_table_witnesses,
    distinguishing_context,
    enumerate_pt_negx,
    enumerate_ptx,
    outcome_table_cell,
    random_pt_instance,
    random_ptx_instance,
)
from pirates_treasure.theory.families import (
    connected_adjacencies,
    random_uniform_bits,
)
from pirates_treasure.theory.reduction import gadget_board

_T = OutcomeClass.TIE
_L = OutcomeClass.L
_R = OutcomeClass.R
_N = OutcomeClass.N
_P = OutcomeClass.P


def test_outcome_table_cells():
    assert outcome_table_cell(_L, _L) == frozenset({_L})
    assert outcome_table_cell(_T, _L) == frozenset({_L})
    assert outcome_table_cell(_L, _R) == frozenset({_L, _R, _N, _T})
    assert outcome_table_cell(_R, _L) == outcome_table_cell(_L, _R)
    assert outcome_table_cell(_N, _N) == frozenset({_L, _R, _N, _T})
    assert outcome_table_cell(_N, _L) == frozenset({_L, _N})
    assert outcome_table_cell(_P, _L) is None


def test_outcome_table_never_allows_p():
    for allowed in OUTCOME_TABLE.values():
        assert _P not in allowed


def test_reduction_sweep_small():
    report = check_reduction_sweep(max_n=4)
    assert report.passed
    # 1 + 1*2 + 4*3 + 38*4 berth choices
    assert report.checked == 1 + 2 + 12 + 152


@pytest.mark.parametrize("max_n", [0, -1, 8])
def test_reduction_sweep_rejects_sizes_outside_one_to_seven(max_n):
    with pytest.raises(ValidationError):
        check_reduction_sweep(max_n=max_n)


def test_reduction_sweep_reports_an_oracle_disagreement(monkeypatch):
    # the path 0-1-2 from its middle vertex: no path through all three starts there
    real = sweeps.hampath_from

    def flipped(adj, start):
        said = real(adj, start)
        return not said if (list(adj), start) == ([0b010, 0b101, 0b010], 1) else said

    monkeypatch.setattr(sweeps, "hampath_from", flipped)
    report = check_reduction_sweep(max_n=4, jobs=1)
    assert report.checked == 167
    assert report.violations == [
        Violation(
            "vertices 3\ne 0 1\ne 1 2\nleft_start 1\n",
            "left wins = True",
            "left wins = False",
        )
    ]


def test_forbidden_class_sweeps_small():
    report = check_no_p_positions(max_exhaustive_n=4, random_trials=50, seed=1)
    assert report.passed
    assert report.checked == 2 + 24 + 456 + 50
    report = check_no_n_positions(max_exhaustive_n=3, random_trials=50, seed=2)
    assert report.passed
    assert report.checked == 2 + 24 + 50


def test_table_sweep_small():
    assert check_outcome_table(trials=60, max_component_n=4, seed=3).passed


def test_table_witnesses_cover_multivalued_cells():
    report = check_table_witnesses()
    assert report.passed
    assert report.checked == 16  # 8 published sums, each also mirrored


def test_a_missing_table_witness_is_reported(monkeypatch):
    # case 3_3 (and its mirror) is the cell L + R's only N witness
    cases = {case: v for case, v in fixtures.TAB_CASES.items() if case != "3_3"}
    monkeypatch.setattr(fixtures, "TAB_CASES", cases)
    report = check_table_witnesses()
    assert report.checked == 14
    assert report.violations == [
        Violation("cell L + R", "a witness for each of L/N/R/TIE", "missing N")
    ]


def test_self_sum_sweep_small():
    report = check_self_sum_tie(max_exhaustive_n=3, random_trials=40, seed=4)
    assert report.passed


def test_distinguishing_sweep_small():
    assert check_distinguishing(trials=60, max_n=6, seed=5).passed


def test_table_and_distinguishing_sweeps_list_each_failing_item_once_in_order(monkeypatch):
    # every item makes one check; the chosen items fail, each is listed
    # once and in item order, and the rest pass
    trials, chosen = 8, {1, 4, 5}
    table_calls = iter(range(trials))

    def off_table(a, b):
        return None if next(table_calls) in chosen else outcome_table_cell(a, b)

    monkeypatch.setattr(sweeps, "outcome_table_cell", off_table)
    report = check_outcome_table(trials=trials, max_component_n=4, seed=3, jobs=1)
    expected = []
    for i in sorted(chosen):
        rng = random.Random(3 + i)
        a = random_ptx_instance(rng.randint(2, 4), 1, rng)
        b = random_ptx_instance(rng.randint(2, 4), 1, rng)
        expected.append(serialize_instance(a) + "+\n" + serialize_instance(b))
    assert report.checked == trials
    assert [v.instance_text for v in report.violations] == expected
    assert {v.expected for v in report.violations} == {"summands on the table"}

    real_context = sweeps._context
    context_calls = iter(range(trials))

    def left_bait(wt):
        # a Left ship next to the bait: Left first ends positive alone and
        # beside any board of positive piles, so the sign never changes
        adj, piles, lefts, rights = real_context(wt)
        if next(context_calls) not in chosen:
            return adj, piles, lefts, rights
        return adj, piles, rights, lefts

    monkeypatch.setattr(sweeps, "_context", left_bait)
    report = check_distinguishing(trials=trials, max_n=6, seed=5, jobs=1)
    expected = []
    for i in sorted(chosen):
        rng = random.Random(5 + i)
        inst = random_pt_instance(rng.randint(3, 6), rng)
        ctx = distinguishing_context(inst)
        ctx = Instance(ctx.graph, ctx.weights, left_starts=ctx.right_starts, right_starts=())
        alone, summed = final_scores(ctx).left_first, final_scores(inst, ctx).left_first
        expected.append(
            Violation(
                serialize_instance(inst) + "+\n" + serialize_instance(ctx),
                "Left-first result changes sign next to the context",
                f"alone = {alone}, summed = {summed}",
            )
        )
    assert report.checked == trials
    assert report.violations == expected


def test_jobs_do_not_change_results():
    # every sweep spans more than one block, so jobs > 1 crosses a real pool
    sweeps_and_args = [
        (check_reduction_sweep, 3, dict(max_n=4)),
        (check_no_p_positions, 2, dict(max_exhaustive_n=3, random_trials=80, seed=9)),
        (check_no_n_positions, 2, dict(max_exhaustive_n=3, random_trials=80, seed=10)),
        (check_self_sum_tie, 2, dict(max_exhaustive_n=3, random_trials=40, seed=11)),
        (check_outcome_table, 2, dict(trials=300, max_component_n=4, seed=12)),
        (check_distinguishing, 2, dict(trials=300, max_n=6, seed=13)),
    ]
    for sweep, jobs, kwargs in sweeps_and_args:
        serial = sweep(jobs=1, **kwargs)
        parallel = sweep(jobs=jobs, **kwargs)
        assert (serial.checked, serial.violations) == (
            parallel.checked,
            parallel.violations,
        ), serial.name


@pytest.mark.parametrize(
    "sweep, kwargs, blocks",
    [
        (check_reduction_sweep, dict(max_n=4), 4),
        (check_outcome_table, dict(trials=1000, max_component_n=4, seed=12), 4),
        (check_no_p_positions, dict(max_exhaustive_n=3, random_trials=80, seed=9), 3),
        (check_outcome_table, dict(trials=100, max_component_n=4, seed=12), 1),
        (check_reduction_sweep, dict(max_n=1), 1),
        # one seed a block (``_BLOCK`` patched to 1 below)
        (check_outcome_table, dict(trials=400, max_component_n=4, seed=12), 400),
    ],
)
def test_the_pool_has_no_more_workers_than_blocks(monkeypatch, sweep, kwargs, blocks):
    asked, tasks = [], []

    class RecordingPool:
        """Records the worker count it is asked for and the tasks its
        chunks make, and maps in this process, so no job count starts a
        process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            tasks.append(-(-len(items) // chunksize))
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # stands in even if the sweeps module ever binds the name at import
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool, raising=False)
    if blocks == 400:
        monkeypatch.setattr(sweeps, "_BLOCK", 1)
    serial = sweep(jobs=1, **kwargs)
    for jobs in (2, 64, 10_000):
        # a fresh pool each time, so each job count's worker count is asked
        sweeps._drop_pool()
        assert sweep(jobs=jobs, **kwargs) == serial
    # one block is checked in this process and never builds a pool
    assert asked == ([] if blocks == 1 else [min(2, blocks), min(64, blocks), blocks])
    # the blocks go in chunks, so few tasks wait however many blocks there are
    assert all(n <= 8 * workers + 1 for n, workers in zip(tasks, asked))
    if blocks == 400:
        assert tasks[0] == 16


_COLD_START = """\
import sys
import pirates_treasure, pirates_treasure.theory, pirates_treasure.cli
from pirates_treasure.theory import check_outcome_table, check_table_witnesses

def loaded():
    lazy = ("concurrent.futures", "multiprocessing", "pirates_treasure.fixtures")
    return {m for m in lazy if m in sys.modules}

assert loaded() == set(), loaded()
assert check_table_witnesses().passed
kwargs = dict(trials=300, max_component_n=4, seed=7)
serial = check_outcome_table(jobs=1, **kwargs)
assert loaded() == {"pirates_treasure.fixtures"}, loaded()
assert check_outcome_table(jobs=2, **kwargs) == serial
assert len(loaded()) == 3, loaded()
print("ok", serial.checked)
"""


def test_a_cold_import_loads_neither_the_pool_nor_the_fixtures():
    """In a fresh interpreter the package imports without the pool's modules
    or the fixture boards, and each loads when a sweep first needs it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok 300\n"


def test_pooled_sweeps_run_on_one_pool_of_workers():
    # each sweep spans more than one block, so jobs=2 crosses a real pool
    runs = [
        (check_no_p_positions, dict(max_exhaustive_n=3, random_trials=300, seed=9)),
        (check_outcome_table, dict(trials=600, max_component_n=4, seed=12)),
    ]
    pids = []
    for sweep, kwargs in runs:
        assert sweep(jobs=2, **kwargs) == sweep(jobs=1, **kwargs)
        pids.append(sorted(p.pid for p in multiprocessing.active_children()))
    assert len(pids[0]) == 2
    assert pids[1] == pids[0]


def test_sweeps_in_two_threads_do_not_break_each_others_pool(monkeypatch):
    # the threads ask for two worker counts, so a sweep that could reach the
    # pool while the other thread's sweep runs on it would shut that pool
    # down under it.  The overlap is forced: the jobs=3 thread starts once
    # the jobs=2 thread holds its first pool, and that thread then waits up
    # to 0.5 s for the other to get a pool too.  With the pool lock the
    # other waits for the lock, so the wait times out; without it the
    # jobs=2 pool is shut down during the wait, in every run
    kwargs = dict(max_exhaustive_n=3, random_trials=300, seed=9)
    serial = check_no_p_positions(jobs=1, **kwargs)
    outcomes = {2: [], 3: []}
    holds, reached = threading.Event(), threading.Event()
    real_pool_for = sweeps._pool_for

    def pool_for(workers):
        pool = real_pool_for(workers)
        if workers == 3:
            reached.set()
        elif not holds.is_set():
            holds.set()
            reached.wait(0.5)
        return pool

    monkeypatch.setattr(sweeps, "_pool_for", pool_for)

    def sweep_four_times(jobs):
        for _ in range(4):
            try:
                outcomes[jobs].append(check_no_p_positions(jobs=jobs, **kwargs) == serial)
            except Exception as exc:
                outcomes[jobs].append(exc)

    threads = {jobs: threading.Thread(target=sweep_four_times, args=(jobs,)) for jobs in outcomes}
    threads[2].start()
    assert holds.wait(60)
    threads[3].start()
    for thread in threads.values():
        thread.join(timeout=120)
    assert not [thread for thread in threads.values() if thread.is_alive()]
    assert outcomes == {2: [True] * 4, 3: [True] * 4}


def test_a_forked_child_sweeps_on_a_pool_of_its_own():
    # the inherited pool's manager thread is gone in the child, so a sweep
    # queued on it would never finish; the child must start its own pool
    kwargs = dict(max_exhaustive_n=3, random_trials=300, seed=9)
    serial = check_no_p_positions(jobs=1, **kwargs)
    assert check_no_p_positions(jobs=2, **kwargs) == serial
    workers = sorted(p.pid for p in multiprocessing.active_children())
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = check_no_p_positions(jobs=2, **kwargs) == serial
            # os._exit runs no exit hook, so stop the child's own workers here
            sweeps._drop_pool()
            code = 0 if same else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.05)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] and os.waitstatus_to_exitcode(done[1]) == 0
    # the parent's pool is untouched and still serves its sweeps
    assert check_no_p_positions(jobs=2, **kwargs) == serial
    assert sorted(p.pid for p in multiprocessing.active_children()) == workers


_TWO_POOLS = """\
import multiprocessing
from pirates_treasure.theory import check_no_p_positions

kwargs = dict(max_exhaustive_n=3, random_trials=300, seed=9)  # four blocks
serial = check_no_p_positions(jobs=1, **kwargs)
seen = set()
for jobs in (2, 3, 3):
    assert check_no_p_positions(jobs=jobs, **kwargs) == serial
    live = {p.pid for p in multiprocessing.active_children()}
    assert len(live) == jobs, (jobs, live)
    seen |= live
print(*sorted(seen))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _run_script(source: str) -> subprocess.CompletedProcess:
    """Run ``source`` in a new interpreter that imports this package."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=60
    )


def test_a_script_with_pooled_sweeps_exits_cleanly():
    """A new worker count replaces the pool, the same count reuses it, and
    at exit the last pool is shut down: no worker is left alive and
    nothing is written to stderr."""
    run = _run_script(_TWO_POOLS)
    assert (run.returncode, run.stderr) == (0, "")
    pids = [int(pid) for pid in run.stdout.split()]
    # two workers, then three that serve both sweeps at jobs=3
    assert len(pids) == 5
    assert not [pid for pid in pids if _alive(pid)]


_PATCHED_POOL = """\
from pirates_treasure.theory import check_distinguishing, sweeps

real = sweeps._context


def context(wt):
    return real(wt)


sweeps._context = context
assert check_distinguishing(trials=600, jobs=2).passed
"""


def test_a_script_that_patches_a_sweep_exits_cleanly():
    """A pool whose sweep used a function of the script is shut down at
    exit, before interpreter teardown could collect it and make
    ``concurrent.futures`` write to stderr."""
    run = _run_script(_PATCHED_POOL)
    assert (run.returncode, run.stderr) == (0, "")


def _report_and_block_count(monkeypatch, sweep, kwargs):
    """Run ``sweep`` serially; its report and the number of blocks it checked."""
    real, blocks = sweeps._block, []

    def counted(item):
        blocks.append(item)
        return real(item)

    monkeypatch.setattr(sweeps, "_block", counted)
    report = sweep(jobs=1, **kwargs)
    monkeypatch.setattr(sweeps, "_block", real)
    return (report.checked, report.violations, report.params), len(blocks)


@pytest.mark.parametrize(
    "sweep, kwargs",
    [
        (check_reduction_sweep, dict(max_n=4)),
        (check_no_p_positions, dict(max_exhaustive_n=4, random_trials=40, seed=9)),
        (check_no_n_positions, dict(max_exhaustive_n=3, random_trials=40, seed=10)),
        (check_self_sum_tie, dict(max_exhaustive_n=3, random_trials=30, seed=11)),
        (check_outcome_table, dict(trials=30, max_component_n=4, seed=12)),
        (check_distinguishing, dict(trials=30, max_n=6, seed=13)),
    ],
)
def test_block_sizes_never_change_a_report(monkeypatch, sweep, kwargs):
    default, default_blocks = _report_and_block_count(monkeypatch, sweep, kwargs)
    monkeypatch.setattr(sweeps, "_BLOCK", 7)
    small, small_blocks = _report_and_block_count(monkeypatch, sweep, kwargs)
    assert small == default
    assert small_blocks > default_blocks


def test_block_edges_keep_the_violation_order(monkeypatch):
    # about a third of the boards fail, spread over many small blocks
    monkeypatch.setattr(sweeps, "_is_p", lambda search, roots: sum(search.adj) % 3 == 0)
    kwargs = dict(max_exhaustive_n=4, random_trials=40, random_max_n=6, seed=9, jobs=1)
    default = check_no_p_positions(**kwargs)
    monkeypatch.setattr(sweeps, "_BLOCK", 7)
    small = check_no_p_positions(**kwargs)
    assert 0 < len(small.violations) < small.checked == default.checked
    assert small.violations == default.violations


@pytest.mark.parametrize(
    "sweep, kwargs, message",
    [
        (check_no_p_positions, dict(random_trials=-1), "random_trials must be at least 0, got -1"),
        (check_self_sum_tie, dict(random_max_n=1), "random_max_n must be at least 2, got 1"),
        (
            check_no_n_positions,
            dict(max_exhaustive_n=1, random_trials=0),
            "pt-negx sweep has nothing to check: no exhaustive size of 2 or more "
            "(max_exhaustive_n=1) and no random trials",
        ),
        (
            check_no_p_positions,
            dict(max_exhaustive_n=8),
            "max_exhaustive_n must be at most 7, got 8",
        ),
        (
            check_no_n_positions,
            dict(max_exhaustive_n=8),
            "max_exhaustive_n must be at most 7, got 8",
        ),
        (
            check_self_sum_tie,
            dict(max_exhaustive_n=8),
            "max_exhaustive_n must be at most 7, got 8",
        ),
        # a negative exhaustive size is refused, not read as no size
        (
            check_no_p_positions,
            dict(max_exhaustive_n=-1),
            "max_exhaustive_n must be at least 0, got -1",
        ),
        (
            check_no_n_positions,
            dict(max_exhaustive_n=-1),
            "max_exhaustive_n must be at least 0, got -1",
        ),
        (
            check_self_sum_tie,
            dict(max_exhaustive_n=-1),
            "max_exhaustive_n must be at least 0, got -1",
        ),
        (check_outcome_table, dict(trials=-3), "trials must be at least 1, got -3"),
        (check_outcome_table, dict(trials=0), "trials must be at least 1, got 0"),
        (check_outcome_table, dict(max_component_n=1), "max_component_n must be at least 2, got 1"),
        (check_distinguishing, dict(trials=0), "trials must be at least 1, got 0"),
        (check_distinguishing, dict(max_n=2), "max_n must be at least 3, got 2"),
        # a draw of unbounded size runs unbudgeted: refused before anything is drawn
        (
            check_no_p_positions,
            dict(random_max_n=65),
            "random_max_n must be at most 64, got 65",
        ),
        (
            check_self_sum_tie,
            dict(random_max_n=100_000),
            "random_max_n must be at most 64, got 100000",
        ),
        (
            check_outcome_table,
            dict(max_component_n=100_000),
            "max_component_n must be at most 64, got 100000",
        ),
        (check_distinguishing, dict(max_n=65), "max_n must be at most 64, got 65"),
        # Random(-k) draws what Random(k) draws, so a negative seed repeats boards
        (check_no_p_positions, dict(seed=-5), "seed must be at least 0, got -5"),
        (check_no_n_positions, dict(seed=-1), "seed must be at least 0, got -1"),
        (check_self_sum_tie, dict(seed=-104), "seed must be at least 0, got -104"),
        (check_outcome_table, dict(seed=-3), "seed must be at least 0, got -3"),
        (check_distinguishing, dict(seed=-2), "seed must be at least 0, got -2"),
    ],
)
def test_sweeps_reject_inputs_that_crash_or_check_nothing(
    sweeps_must_not_start, sweep, kwargs, message
):
    with pytest.raises(ValidationError) as exc:
        sweep(**kwargs)
    assert str(exc.value) == message


def _boards_visited(max_exhaustive_n, random_trials, random_max_n, seed):
    exhaustive = [
        serialize_instance(inst)
        for n in range(2, max_exhaustive_n + 1)
        for inst in enumerate_ptx(n, 1)
    ]
    seeded = []
    for i in range(random_trials):
        rng = random.Random(seed + i)
        seeded.append(
            serialize_instance(random_ptx_instance(rng.randint(2, random_max_n), 1, rng))
        )
    return exhaustive + seeded


@pytest.mark.parametrize(
    "sweep, predicate, hit",
    [(check_no_p_positions, "_is_p", True), (check_self_sum_tie, "_is_tie", False)],
)
def test_sweeps_visit_the_exhaustive_boards_then_the_seeded_draws(
    monkeypatch, sweep, predicate, hit
):
    # every board counts as a violation, so the report lists every board checked
    monkeypatch.setattr(sweeps, predicate, lambda search, roots: hit)
    report = sweep(max_exhaustive_n=3, random_trials=25, random_max_n=6, seed=17)
    texts = [v.instance_text for v in report.violations]
    assert texts == _boards_visited(3, 25, 6, 17)
    assert report.checked == len(texts) == 26 + 25


def _record_boards(monkeypatch, predicate, answer):
    """Replace a class predicate by one that records the adjacency bits,
    pile values and packed roots it is asked about, and answers ``answer``."""
    seen = []

    def record(search, roots):
        seen.append((list(search.adj), list(search.wt), roots))
        return answer

    monkeypatch.setattr(sweeps, predicate, record)
    return seen


def _packed(*boards):
    """What the reference route searches for these boards side by side."""
    search = Search.of(boards, DEFAULT_NODE_BUDGET)
    roots = tuple(
        _union_state([initial_position(b, first) for b in boards], first)
        for first in (Player.LEFT, Player.RIGHT)
    )
    return list(search.adj), list(search.wt), roots


@pytest.mark.parametrize(
    "sweep, predicate, family",
    [
        (check_no_p_positions, "_is_p", enumerate_ptx),
        (check_no_n_positions, "_is_n", enumerate_pt_negx),
    ],
)
def test_uniform_sweeps_search_the_enumerated_boards_in_order(
    monkeypatch, sweep, predicate, family
):
    # the board with berths (b, a) takes the verdict of (a, b), checked
    # before it on the same graph, so only the a < b boards are searched
    seen = _record_boards(monkeypatch, predicate, False)
    report = sweep(max_exhaustive_n=5, random_trials=0)
    assert seen == [
        _packed(inst)
        for n in range(2, 6)
        for inst in family(n, 1)
        if inst.left_starts < inst.right_starts
    ]
    assert report.checked == report.params["exhaustive"] == 15042
    assert report.passed


def test_uniform_sweeps_search_the_seeded_draws_in_order(monkeypatch):
    seen = _record_boards(monkeypatch, "_is_p", False)
    report = check_no_p_positions(
        max_exhaustive_n=1, random_trials=2000, random_max_n=9, seed=40
    )
    expected = []
    for seed in range(40, 2040):
        rng = random.Random(seed)
        expected.append(_packed(random_ptx_instance(rng.randint(2, 9), 1, rng)))
    assert seen == expected
    assert (report.checked, report.params["exhaustive"]) == (2000, 0)


def test_self_sum_searches_each_board_beside_its_mirror(monkeypatch):
    seen = _record_boards(monkeypatch, "_is_tie", True)
    report = check_self_sum_tie(
        max_exhaustive_n=4, random_trials=300, random_max_n=7, seed=60
    )
    # the exhaustive a < b boards (each (b, a) takes their verdict), then every draw
    boards = [
        inst
        for n in range(2, 5)
        for inst in enumerate_ptx(n, 1)
        if inst.left_starts < inst.right_starts
    ]
    for seed in range(60, 360):
        rng = random.Random(seed)
        boards.append(random_ptx_instance(rng.randint(2, 7), 1, rng))
    # only the Left-first root: swapping the components maps it onto Right-first
    packed = [_packed(inst, negate_instance(inst)) for inst in boards]
    assert seen == [(adj, wt, roots[:1]) for adj, wt, roots in packed]
    assert report.checked == 482 + 300 and report.passed


def test_a_board_beside_its_mirror_is_worth_the_same_to_either_first_mover():
    # swapping the two components maps one root onto the other, so the
    # self-sum sweep searches the Left-first root alone; seeded draws also
    # take mixed piles, for which the swap argument holds all the same
    boards = [
        (adj, left, right, sweeps._piles(n, left, right, x))
        for n in range(2, 5)
        for adj, left, right, _ in sweeps._berth_pairs(n, range(sweeps._mask_count(n)))
        for x in (1, 2)
    ]
    for seed in range(400):
        rng = random.Random(seed)
        adj, left, right = random_uniform_bits(rng.randint(2, 7), rng)
        wt = [rng.choice((-1, 1, 2)) for _ in adj]
        wt[left] = wt[right] = 0
        boards.append((adj, left, right, wt))
    for adj, left, right, wt in boards:
        board = sweeps._beside((adj, wt, 1 << left, 1 << right), (adj, wt, 1 << right, 1 << left))
        values = []
        for root in sweeps._search_roots(board, DEFAULT_NODE_BUDGET)[1]:
            search = Search(*board[:2], DEFAULT_NODE_BUDGET)
            values.append(search.value(*root, -search.inf, search.inf))
        assert values[0] == values[1], (adj, left, right, wt)


def test_reduction_sweep_expands_the_pinned_nodes(monkeypatch):
    # the n <= 5 gadgets: every search counted, forced and stuck states included
    made = []

    class Counting(Search):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sweeps, "Search", Counting)
    report = check_reduction_sweep(max_n=5)
    assert (report.checked, report.passed) == (3807, True)
    # one search per connected graph, shared by all its berths
    assert len(made) == 772
    assert sum(s.nodes for s in made) == 45064
    assert sum(len(s.memo) for s in made) == 7041


def test_table_sweep_expands_the_pinned_nodes(monkeypatch):
    # each pair's two summands, then their sum, whose Right-first root is
    # searched only when Left first's sign leaves the cell open
    made = []

    class Counting(Search):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sweeps, "Search", Counting)
    report = check_outcome_table(trials=300, max_component_n=4, seed=103)
    assert (report.checked, report.passed) == (300, True)
    assert len(made) == 900
    assert sum(s.nodes for s in made) == 3839
    assert sum(len(s.memo) for s in made) == 433


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_reduction_budget_bounds_a_whole_graph(jobs):
    # every n <= 4 berth fits in 12 nodes alone, but some graph's berths
    # together take more on their one search
    budget = 12
    for n in range(1, 5):
        for adj in connected_adjacencies(n, range(sweeps._mask_count(n))):
            board, wt, roots = gadget_board(adj)
            for root in roots:
                Search(board, wt, budget).value(*root, 0, 1)
    with pytest.raises(BudgetExceededError) as exc:
        check_reduction_sweep(max_n=4, jobs=jobs, budget=budget)
    assert str(exc.value) == "reduction sweep exceeded node budget of 12"


def _chosen(adj):
    """The graphs where vertex 0 has two neighbors."""
    return bin(adj[0]).count("1") == 2


def _holds_on_chosen_graphs(search, roots):
    """A class predicate that holds on the chosen graphs alone, whatever the berths."""
    return _chosen(search.adj)


@pytest.mark.parametrize("jobs", [1, 2])
def test_berth_twins_are_each_reported_in_enumeration_order(monkeypatch, jobs):
    monkeypatch.setattr(sweeps, "_is_p", _holds_on_chosen_graphs)
    monkeypatch.setattr(sweeps, "_BLOCK", 7)
    report = check_no_p_positions(
        max_exhaustive_n=4, random_trials=30, random_max_n=6, seed=21, jobs=jobs
    )
    boards = [inst for n in range(2, 5) for inst in enumerate_ptx(n, 1)]
    for seed in range(21, 51):
        rng = random.Random(seed)
        boards.append(random_ptx_instance(rng.randint(2, 6), 1, rng))
    expected = [
        Violation(serialize_instance(inst), "class != P", f"class = {classify(final_scores(inst))}")
        for inst in boards
        if _chosen(inst.graph.adjacency_bits)
    ]
    assert report.checked == 482 + 30
    assert report.violations == expected
    # both orders of each failing berth pair are listed, each with its own
    # board, and seeded draws on chosen graphs fail after them
    berths = Counter(
        (inst.graph, frozenset(inst.left_starts + inst.right_starts))
        for inst in boards[:482]
        if _chosen(inst.graph.adjacency_bits)
    )
    assert set(berths.values()) == {2}
    assert 0 < sum(berths.values()) < len(expected)


def _no_tie_off_the_chosen_graphs(search, roots):
    """A tie predicate that fails on the chosen graphs alone, whatever the berths."""
    return not _chosen(search.adj)


@pytest.mark.parametrize("jobs", [1, 2])
def test_self_sum_twins_are_each_reported_in_enumeration_order(monkeypatch, jobs):
    # the twin memo holds "violates" for a self-sum as for pt-x: a failing
    # pair's twin is reported unsearched, a passing pair's twin is not
    monkeypatch.setattr(sweeps, "_is_tie", _no_tie_off_the_chosen_graphs)
    monkeypatch.setattr(sweeps, "_BLOCK", 7)
    report = check_self_sum_tie(
        max_exhaustive_n=4, random_trials=30, random_max_n=6, seed=21, jobs=jobs
    )
    boards = [inst for n in range(2, 5) for inst in enumerate_ptx(n, 1)]
    for seed in range(21, 51):
        rng = random.Random(seed)
        boards.append(random_ptx_instance(rng.randint(2, 6), 1, rng))
    expected = [
        Violation(
            serialize_instance(inst),
            "board + mirror ties",
            f"class = {classify(final_scores(inst, negate_instance(inst)))}",
        )
        for inst in boards
        if _chosen(inst.graph.adjacency_bits)
    ]
    assert report.checked == 482 + 30
    assert report.violations == expected
    berths = Counter(
        (inst.graph, frozenset(inst.left_starts + inst.right_starts))
        for inst in boards[:482]
        if _chosen(inst.graph.adjacency_bits)
    )
    assert set(berths.values()) == {2}
    assert 0 < sum(berths.values()) < len(expected) < len(boards)


def test_table_sweep_words_each_violation_as_the_exact_scores_do(monkeypatch):
    # narrowed cells fail some pairs on their sum and, with (R, TIE) gone,
    # others on a summand pair that is off the table
    narrowed = dict(OUTCOME_TABLE)
    narrowed[("L", "R")] = frozenset({_L})
    narrowed[("N", "N")] = frozenset({_N, _T})
    del narrowed[("R", "TIE")]
    monkeypatch.setattr(sweeps, "OUTCOME_TABLE", narrowed)
    trials, max_n, seed = 300, 5, 31
    expected = []
    for i in range(trials):
        rng = random.Random(seed + i)
        a = random_ptx_instance(rng.randint(2, max_n), 1, rng)
        b = random_ptx_instance(rng.randint(2, max_n), 1, rng)
        class_a, class_b = classify(final_scores(a)), classify(final_scores(b))
        text = serialize_instance(a) + "+\n" + serialize_instance(b)
        cell = narrowed.get(tuple(sorted((class_a.value, class_b.value))))
        if cell is None:
            expected.append(Violation(text, "summands on the table", f"{class_a} + {class_b}"))
            continue
        got = classify(final_scores(a, b))
        if got not in cell:
            allowed = "/".join(sorted(c.value for c in cell))
            expected.append(
                Violation(text, f"{class_a} + {class_b} in {{{allowed}}}", f"class = {got}")
            )
    kinds = {v.expected.partition(" in ")[0] for v in expected}
    assert {"summands on the table", "L + R", "N + N"} <= kinds
    for jobs in (1, 2):
        report = check_outcome_table(trials=trials, max_component_n=max_n, seed=seed, jobs=jobs)
        assert (report.checked, report.violations) == (trials, expected)


_PREDICATES = {_P: "_is_p", _N: "_is_n", _T: "_is_tie"}


def _mixed_sign_boards(count, seed):
    """Random 3- to 7-vertex boards with piles 1..4, negated half the time."""
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_pt_instance(rng.randint(3, 7), rng)
        if rng.random() < 0.5:
            negated = {v: -w for v, w in inst.weights.items()}
            inst = Instance(inst.graph, negated, inst.left_starts, inst.right_starts)
        yield inst


@pytest.mark.parametrize("stuck", [0, -1, 1])
def test_class_predicates_match_the_exact_class(stuck):
    classes = Counter()
    for inst in _mixed_sign_boards(4000, seed=70 + stuck):
        starts = [(initial_position(inst, first), first) for first in (Player.LEFT, Player.RIGHT)]
        if stuck:
            exact = Search.of([inst], DEFAULT_NODE_BUDGET, stuck)
            got = classify(FinalScores(*(exact.root([p], first)[0] for p, first in starts)))
        else:
            got = classify(final_scores(inst))
        classes[got] += 1
        roots = tuple(_union_state([p], first) for p, first in starts)
        shared = Search.of([inst], DEFAULT_NODE_BUDGET, stuck)
        for cls, name in _PREDICATES.items():
            predicate = getattr(sweeps, name)
            fresh = Search.of([inst], DEFAULT_NODE_BUDGET, stuck)
            assert predicate(fresh, roots) is (got is cls), (name, serialize_instance(inst))
            assert predicate(shared, roots) is (got is cls), (name, serialize_instance(inst))
    # scoring play meets every class tested; a stuck mover's +-1 never ties
    assert all(classes[cls] for cls in (_P, _N) + ((_T,) if stuck == 0 else ()))


@pytest.mark.parametrize(
    "sweep, kwargs, predicate, hit, violation",
    [
        (
            check_no_p_positions, dict(seed=25), "_is_p", True,
            Violation(
                "vertices 5\nv 0 ship L\nv 1 ship R\nv 2 value 1\nv 3 value 1\nv 4 value 1\n"
                "e 0 1\ne 0 2\ne 0 3\ne 1 3\ne 3 4\n",
                "class != P",
                "class = N",
            ),
        ),
        (
            check_no_n_positions, dict(seed=24), "_is_n", True,
            Violation(
                "vertices 5\nv 0 ship L\nv 1 value -1\nv 2 value -1\nv 3 ship R\nv 4 value -1\n"
                "e 0 1\ne 0 2\ne 0 3\ne 0 4\ne 1 4\n",
                "class != N",
                "class = R",
            ),
        ),
        (
            check_self_sum_tie, dict(seed=27), "_is_tie", False,
            Violation(
                "vertices 5\nv 0 value 1\nv 1 ship L\nv 2 value 1\nv 3 ship R\nv 4 value 1\n"
                "e 0 1\ne 0 2\ne 0 3\ne 0 4\ne 1 2\ne 3 4\n",
                "board + mirror ties",
                "class = TIE",
            ),
        ),
    ],
)
def test_a_forced_hit_reports_the_board_and_its_exact_class(
    monkeypatch, sweep, kwargs, predicate, hit, violation
):
    monkeypatch.setattr(sweeps, predicate, lambda search, roots: hit)
    report = sweep(max_exhaustive_n=1, random_trials=1, random_max_n=5, **kwargs)
    assert (report.checked, report.violations) == (1, [violation])


def test_the_node_budget_bounds_only_the_sign_searches_of_a_violating_self_sum(monkeypatch):
    # the forced hit's class takes 134 nodes of sign searches; exact scores
    # of the board beside its mirror would take 146
    monkeypatch.setattr(sweeps, "_is_tie", lambda search, roots: False)
    report = check_self_sum_tie(
        max_exhaustive_n=1, random_trials=1, random_max_n=5, seed=27, budget=140
    )
    assert (report.checked, len(report.violations)) == (1, 1)
    assert report.violations[0].got == "class = TIE"


def test_the_node_budget_bounds_the_class_test_not_the_exact_scores():
    # each n <= 4 class test fits in 5 nodes; the exact scores of some boards do not
    report = check_no_p_positions(max_exhaustive_n=4, random_trials=0, budget=5)
    assert (report.checked, report.passed) == (482, True)
    with pytest.raises(BudgetExceededError):
        for inst in enumerate_ptx(4, 1):
            final_scores(inst, budget=5)
    with pytest.raises(BudgetExceededError):
        check_no_p_positions(max_exhaustive_n=4, random_trials=0, budget=2)


@pytest.mark.parametrize(
    "error, attrs",
    [
        (BudgetExceededError(7, "pt-x sweep"), {"budget": 7, "what": "pt-x sweep"}),
        (ParseError(3, "expected an integer, got 'x'"), {"line_no": 3}),
    ],
)
def test_errors_survive_a_pickle_round_trip(error, attrs):
    # a worker's error reaches the sweep through pickle, as pool.map sends it
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert {key: getattr(back, key) for key in attrs} == attrs


@pytest.mark.parametrize("jobs", [0, -5])
@pytest.mark.parametrize(
    "sweep",
    [check_reduction_sweep, check_no_p_positions, check_self_sum_tie, check_outcome_table,
     check_distinguishing],
)
def test_sweeps_reject_jobs_below_one(monkeypatch, sweep, jobs):
    def refuse(*args, **kwargs):
        raise AssertionError("no item may be checked")

    monkeypatch.setattr(sweeps, "_block", refuse)
    with pytest.raises(ValidationError) as exc:
        sweep(jobs=jobs)
    assert str(exc.value) == f"jobs must be at least 1, got {jobs}"


def test_sweep_report_rendering():
    clean = SweepReport("demo", 5, [], {"p": 1})
    assert clean.passed
    assert clean.machine_line() == "checked=5 violations=0"
    assert "params: p=1" in clean.summary()
    dirty = SweepReport(
        "demo", 5, [Violation("vertices 1\nv 0 value 1", "class != P", "class = P")]
    )
    assert not dirty.passed
    text = dirty.summary()
    assert "violations=1" in text
    assert "expected class != P" in text
    assert "vertices 1" in text
