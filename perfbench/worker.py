"""Runs one workload in a fresh interpreter and prints its figures.

``run.py`` starts this script once per benchmark run, so the peak resident
memory it reports belongs to the workload alone.  The last line on stdout
is one JSON object; notes go to stderr.

Every workload is a closed loop in this one process: an item starts when
the previous one ends.  ``sweeps-jobs2`` additionally fans each sweep out
to the package's own two-process pool.

The program is reached only through public names: ``pirates_treasure``,
``pirates_treasure.theory`` and ``pirates_treasure.cli.main``.  The traced
run records spans around calls into public functions.  Where those calls
happen inside ``cli.main``, ``convention_comparison`` or
``check_reduction_sweep``, the traced run rebinds the name in the calling
module to a recording wrapper of the same public function; a binding that
no longer holds that function is left alone and reported on stderr, and
its time then shows in the caller.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pirates_treasure as pt  # noqa: E402
import pirates_treasure.theory as theory  # noqa: E402
from pirates_treasure.cli import main as cli_main  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402

REDUCTION_MAX_N = 6
JOBS = 2

#: The four uniform-family sweeps at their tier-1 acceptance sizes, with the
#: offset that places each sweep's random seeds.  The run seed moves only
#: the random part; the exhaustive part and every ``checked`` count stay.
SWEEPS = (
    ("pt-x", theory.check_no_p_positions, 101),
    ("pt-negx", theory.check_no_n_positions, 102),
    ("self-sum", theory.check_self_sum_tie, 104),
    ("table", theory.check_outcome_table, 103),
)

#: Per-layer span names and the public function each one times.
LAYERS = {
    "sweeps.reduction": "theory.check_reduction_sweep, minus the spans inside it",
    "families.enumerate": "theory.connected_labeled_graphs",
    "model.graph": "Graph",
    "reduction.gadget": "theory.reduce_from_hampath",
    "solver.decide": "left_wins_moving_first",
    "reduction.oracle": "theory.hampath_oracle",
    "cli.self": "cli.main, minus the spans inside it",
    "model.parse": "parse_instance",
    "solver.solve": "solve",
    "algebra.sum_solve": "solve_sum",
    "conventions.verdict": "theory.normal_outcome, theory.misere_outcome, theory.convention_best_moves",
    "sweeps.pt-x": "theory.check_no_p_positions",
    "sweeps.pt-negx": "theory.check_no_n_positions",
    "sweeps.self-sum": "theory.check_self_sum_tie",
    "sweeps.table": "theory.check_outcome_table",
}


@dataclass
class Pass:
    """One pass over a workload's whole input set.

    ``starts`` and ``times`` hold the start and the duration of each timed
    unit, in the same order on every pass, and ``sizes`` how many items
    each unit holds: one per command on ``solve`` and ``sums``, a sweep's
    ``checked`` count on the sweep workloads.  ``check_s`` is time spent on
    cross-checks inside the pass, which ``wall`` leaves out.
    """

    began: float = 0.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    check_s: float = 0.0
    starts: list = field(default_factory=list)
    times: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def note(message: str) -> None:
    print(f"note: {message}", file=sys.stderr)


def sweep_seed(seed: int, offset: int) -> int:
    return seed * 100_000 + offset


# ---------------------------------------------------------------------------
# Reduction


def reduction_pass(expected: dict, tracer: Tracer | None = None) -> Pass:
    want = expected["checked"]
    start = perf_counter()
    if tracer is not None:
        span = tracer.open("sweeps.reduction")
    result = Pass(began=start, attempted=want, starts=[start], sizes=[want])
    try:
        report = theory.check_reduction_sweep(max_n=REDUCTION_MAX_N, jobs=1)
    except Exception as exc:  # counted, and the run goes on
        note(f"reduction sweep raised {exc!r}")
        report = None
    finally:
        if tracer is not None:
            tracer.close(span)
    result.wall = perf_counter() - start
    result.times.append(result.wall)
    result.counts["reduction.checks"] = report.checked if report else 0
    if report is None or report.checked != want:
        note(f"reduction checked {result.counts['reduction.checks']}, expected {want}")
        result.failed = want
    else:
        result.failed = len(report.violations)
    return result


def reduction_hooks(tracer: Tracer) -> list:
    """Recording wrappers for the public calls the reduction sweep makes.

    Each check starts with ``Graph``, so that wrapper also starts a new
    item id.  The graphs are enumerated before the first check, so their
    spans carry item -1.
    """
    sweeps = importlib.import_module("pirates_treasure.theory.sweeps")
    graph = tracer.wrap("model.graph", pt.Graph)

    def new_item(*args, **kwargs):
        tracer.item_id += 1
        return graph(*args, **kwargs)

    def enumerate_graphs(n):
        graphs = theory.connected_labeled_graphs(n)
        while True:
            span = tracer.open("families.enumerate")
            try:
                g = next(graphs, None)
            finally:
                tracer.close(span)
            if g is None:
                return
            yield g

    return [
        (sweeps, "connected_labeled_graphs", theory.connected_labeled_graphs, enumerate_graphs),
        (sweeps, "Graph", pt.Graph, new_item),
        (sweeps, "reduce_from_hampath", theory.reduce_from_hampath,
         tracer.wrap("reduction.gadget", theory.reduce_from_hampath)),
        (sweeps, "left_wins_moving_first", pt.left_wins_moving_first,
         tracer.wrap("solver.decide", pt.left_wins_moving_first)),
        (sweeps, "hampath_oracle", theory.hampath_oracle,
         tracer.wrap("reduction.oracle", theory.hampath_oracle)),
    ]


# ---------------------------------------------------------------------------
# Sweeps


def sweeps_pass(seed: int, expected: dict, jobs: int, tracer: Tracer | None = None,
                reports: dict | None = None) -> Pass:
    start = perf_counter()
    result = Pass(began=start)
    for item, (name, sweep, offset) in enumerate(SWEEPS):
        want = expected[name]["checked"]
        result.attempted += want
        result.sizes.append(want)
        if tracer is not None:
            tracer.item_id = item
            span = tracer.open(f"sweeps.{name}")
        t0 = perf_counter()
        result.starts.append(t0)
        try:
            report = sweep(seed=sweep_seed(seed, offset), jobs=jobs)
        except Exception as exc:  # counted, and the run goes on
            note(f"sweep {name} raised {exc!r}")
            result.failed += want
            continue
        finally:
            result.times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
        if report.checked != want:
            note(f"sweep {name} checked {report.checked}, expected {want}")
            result.failed += want
        else:
            result.failed += len(report.violations)
        if reports is not None:
            reports[name] = report
    result.wall = perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# Command-line items: solve, sum, compare


def read_answer(command: str, stdout: str) -> dict:
    """The fields of a command's output that the expected file pins."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    if command == "solve":
        return {
            "scores": [int(fields["s_left"]), int(fields["s_right"])],
            "class": fields["class"],
            "nodes": int(fields["nodes"]),
        }
    answer = {
        "scores": [int(fields["score left first"]), int(fields["score right first"])],
    }
    if command == "sum":
        answer["class"] = fields["class"]
        answer["nodes"] = int(fields["nodes expanded"])
    else:
        answer["class"] = fields["scoring class"]
        for rule in ("normal", "misere"):
            answer[rule] = [fields[f"{rule} winner ({first} first)"] for first in ("Left", "Right")]
    return answer


def item_failure(item: dict, want: dict | None, code, stdout: str) -> str | None:
    """Why an item failed, or None when its answer matches the expected file."""
    if want is None or want["digest"] != item["digest"]:
        return "input differs from the expected file"
    if code != 0:
        return f"exit code {code}"
    command = item["argv"][0]
    try:
        got = read_answer(command, stdout)
    except (KeyError, ValueError) as exc:
        return f"unreadable output ({exc!r})"
    for key in ("scores", "class", "normal", "misere"):
        if key in want and got[key] != want[key]:
            return f"{key} {got[key]}, expected {want[key]}"
    return None


def cli_pass(manifest: list, expected: dict, tracer: Tracer | None = None,
             parsed: list | None = None) -> Pass:
    """Every item once through ``cli.main``, its output captured and checked.

    ``parsed`` is the list the traced run's parse hook fills.  On ``solve``
    each parsed board is then also scored by ``final_scores``, which splits
    the cost of the full report from the cost of the two scores and checks
    the scores once more; that cross-check is timed as ``check_s``.
    """
    nodes = 0
    start = perf_counter()
    result = Pass(began=start)
    for index, item in enumerate(manifest):
        command = item["argv"][0]
        out = io.StringIO()
        if tracer is not None:
            tracer.item_id = index
            span = tracer.open("cli.self")
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(item["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted, and the run goes on
            code = repr(exc)
        result.starts.append(t0)
        result.times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
        want = expected.get(item["id"])
        why = item_failure(item, want, code, out.getvalue())
        if why is None and parsed and command == "solve":
            t0 = perf_counter()
            scores = list(pt.final_scores(parsed[-1]))
            result.check_s += perf_counter() - t0
            if scores != want["scores"]:
                why = f"final_scores {scores}, expected {want['scores']}"
        if parsed:
            parsed.clear()
        if why is not None:
            result.failed += 1
            if result.failed <= 5:
                note(f"{item['id']} ({command}): {why}")
        elif command != "compare":
            nodes += read_answer(command, out.getvalue())["nodes"]
    result.attempted = len(manifest)
    result.sizes = [1] * len(manifest)
    result.wall = perf_counter() - start - result.check_s
    result.counts["printed_nodes"] = nodes
    return result


def cli_hooks(tracer: Tracer, counts: dict, parsed: list) -> list:
    """Recording wrappers for the public calls made inside cli.main."""
    cli = importlib.import_module("pirates_treasure.cli")
    conventions = importlib.import_module("pirates_treasure.theory.conventions")

    def count(key):
        def add(report):
            counts[key] = counts.get(key, 0) + report.nodes_expanded
        return add

    hooks = (
        (cli, "parse_instance", pt.parse_instance, "model.parse", parsed.append),
        (cli, "solve", pt.solve, "solver.solve", count("solver.nodes")),
        (cli, "solve_sum", pt.solve_sum, "algebra.sum_solve", count("algebra.nodes")),
        (conventions, "solve_sum", pt.solve_sum, "algebra.sum_solve", count("algebra.nodes")),
        (conventions, "normal_outcome", theory.normal_outcome, "conventions.verdict", None),
        (conventions, "misere_outcome", theory.misere_outcome, "conventions.verdict", None),
        (conventions, "convention_best_moves", theory.convention_best_moves,
         "conventions.verdict", None),
    )
    return [(module, attr, public, tracer.wrap(name, public, on_result))
            for module, attr, public, name, on_result in hooks]


def install_hooks(hooks: list):
    """Rebind each ``module.attr`` that still holds ``public`` to its wrapper.

    Returns a function that restores the original bindings.
    """
    installed = []
    for module, attr, public, wrapper in hooks:
        if getattr(module, attr, None) is public:
            setattr(module, attr, wrapper)
            installed.append((module, attr, public))
        else:
            note(f"{module.__name__}.{attr} is no longer {public.__name__}; "
                 f"its time shows in the caller")

    def restore():
        for module, attr, public in installed:
            setattr(module, attr, public)

    return restore


# ---------------------------------------------------------------------------
# Phases and figures


def timed(run_pass, budget: float) -> list[Pass]:
    """Whole passes until the next one would end after ``budget`` seconds; at least one."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        if perf_counter() - start + passes[-1].wall > budget:
            return passes


def pass_rate(passes: list[Pass], probe: SpeedProbe) -> float:
    """Median over passes of items per second at reference speed."""
    return statistics.median(
        p.attempted / (p.wall * probe.factor(p.began, p.began + p.wall)) for p in passes)


def raw_rate(passes: list[Pass]) -> float:
    """Median over passes of items per second, not scaled."""
    return statistics.median(p.attempted / p.wall for p in passes)


def scaled_units(passes: list[Pass], probe: SpeedProbe) -> list[float]:
    """Each unit's median over the passes of its time at reference speed."""
    per_pass = [[t * probe.factor(s, s + t) for s, t in zip(p.starts, p.times)]
                for p in passes]
    return [statistics.median(unit) for unit in zip(*per_pass)]


def repeats(passes: list[Pass]) -> bool:
    """Exact counts must read the same on every pass over the same inputs."""
    return all(p.counts == passes[0].counts for p in passes[1:])


def untraced_run(args, run_pass) -> tuple[list[Pass], bool, dict]:
    """End-to-end figures, every time scaled to reference speed (speed.py).

    Each unit's time is its median over the passes; throughput is the items
    over the sum of those medians.
    """
    with SpeedProbe() as probe:
        passes = timed(run_pass, args.seconds)
    note("pass walls " + " ".join(
        f"{p.wall:.3f} s (slowdown {1 / probe.factor(p.began, p.began + p.wall):.2f})"
        for p in passes))
    units = scaled_units(passes, probe)
    rate = sum(passes[0].sizes) / sum(units)
    note(f"items_per_s {rate:.6g} 1/s scaled, {raw_rate(passes):.6g} 1/s raw")
    if args.workload in ("solve", "sums"):
        cuts = statistics.quantiles(units, n=100, method="inclusive")
        p50, p95 = cuts[49] * 1e3, cuts[94] * 1e3
        note(f"{args.workload}: latency percentiles over {len(units)} items, "
             f"each the median of {len(passes)} passes")
    else:
        # A sweep call does not expose per-item time: both figures are the
        # mean time per check.
        p50 = p95 = 1e3 / rate
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p95_ms": (p95, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return passes, repeats(passes), metrics


def traced_passes(args, expected, manifest, tracer, counts) -> tuple[Pass, list, bool, dict]:
    """The traced pass, plus the jobs=1 reference pass on ``sweeps-jobs2``.

    Returns the traced pass, any extra passes, whether the exact counts
    agree with the untraced run's, and the pool figures.
    """
    if args.workload == "reduction":
        restore = install_hooks(reduction_hooks(tracer))
        try:
            traced = reduction_pass(expected["reduction"], tracer)
        finally:
            restore()
        counts["reduction.checks"] = traced.counts["reduction.checks"]
        return traced, [], True, {}
    if args.workload == "sweeps-jobs2":
        pooled_reports: dict = {}
        serial_reports: dict = {}
        traced = sweeps_pass(args.seed, expected["sweeps"], JOBS, tracer, pooled_reports)
        serial = sweeps_pass(args.seed, expected["sweeps"], 1, reports=serial_reports)
        for name, report in pooled_reports.items():
            if serial_reports.get(name) != report:
                note(f"sweep {name}: the jobs={JOBS} report differs from the jobs=1 report")
                serial.failed += expected["sweeps"][name]["checked"]
        pool = {
            "sweeps.serial_s": (serial.wall, "s"),
            "sweeps.pool_efficiency": (serial.wall / (JOBS * traced.wall), "ratio"),
            "sweeps.pool_overhead_s": (traced.wall - serial.wall / JOBS, "s"),
        }
        return traced, [serial], True, pool
    parsed: list = []
    restore = install_hooks(cli_hooks(tracer, counts, parsed))
    try:
        traced = cli_pass(manifest, expected[args.workload], tracer, parsed)
    finally:
        restore()
    same = args.workload != "solve" or counts["solver.nodes"] == traced.counts["printed_nodes"]
    return traced, [], same, {}


def traced_run(args, expected, manifest, run_pass) -> tuple[list[Pass], bool, dict]:
    """An untraced pass for the overhead figure, then the traced pass.

    Layer times are wall seconds as measured; ``machine.slowdown`` says how
    far the machine was below reference speed meanwhile.
    """
    tracer = Tracer()
    counts = {"reduction.checks": 0, "solver.nodes": 0, "algebra.nodes": 0}
    with SpeedProbe() as probe:
        passes = timed(run_pass, args.seconds / 2)
        traced, extra, same, pool = traced_passes(args, expected, manifest, tracer, counts)
    same = same and repeats(passes + [traced])
    if not same:
        note("exact counts differ between passes over the same inputs")
    tracer.write(HERE.parent / ".perfbench-out" / f"spans-{args.workload}.tsv")

    wall = traced.wall
    selves = tracer.self_times()
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = (selves.get(name, 0.0), "s")
        metrics[f"{name}_share"] = (selves.get(name, 0.0) / wall, "ratio")
    report_extra = selves.get("solver.solve", 0.0) - traced.check_s
    metrics["solver.report_extra_s"] = (report_extra, "s")
    metrics["solver.report_extra_share"] = (report_extra / wall, "ratio")
    solve_s = selves.get("solver.solve")
    sum_s = selves.get("algebra.sum_solve")
    metrics["reduction.checks"] = (counts["reduction.checks"], "count")
    metrics["solver.nodes"] = (counts["solver.nodes"], "count")
    metrics["solver.nodes_per_s"] = (counts["solver.nodes"] / solve_s if solve_s else 0.0, "1/s")
    metrics["algebra.nodes"] = (counts["algebra.nodes"], "count")
    metrics["algebra.nodes_per_s"] = (counts["algebra.nodes"] / sum_s if sum_s else 0.0, "1/s")
    metrics["sweeps.serial_s"] = pool.get("sweeps.serial_s", (0.0, "s"))
    metrics["sweeps.pool_efficiency"] = pool.get("sweeps.pool_efficiency", (0.0, "ratio"))
    metrics["sweeps.pool_overhead_s"] = pool.get("sweeps.pool_overhead_s", (0.0, "s"))
    metrics["sweeps.worker_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    unaccounted = wall - sum(selves.get(name, 0.0) for name in LAYERS)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unaccounted_s"] = (unaccounted, "s")
    metrics["trace.unaccounted_share"] = (unaccounted / wall, "ratio")
    metrics["trace.overhead"] = (1 - pass_rate([traced], probe) / pass_rate(passes, probe), "ratio")
    metrics["raw.items_per_s"] = (raw_rate(passes), "1/s")
    metrics["machine.slowdown"] = (1 / probe.factor(traced.began, traced.began + wall), "ratio")
    return passes + [traced] + extra, same, metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reduction", "solve", "sums", "sweeps-jobs2"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--manifest", help="item list written by run.py (solve, sums)")
    args = parser.parse_args()

    expected = json.loads((HERE / "expected.json").read_text())
    manifest = json.loads(Path(args.manifest).read_text()) if args.manifest else None
    if args.workload == "reduction":
        def run_pass():
            return reduction_pass(expected["reduction"])
    elif args.workload == "sweeps-jobs2":
        def run_pass():
            return sweeps_pass(args.seed, expected["sweeps"], JOBS)
    else:
        def run_pass():
            return cli_pass(manifest, expected[args.workload])

    if args.workload != "sweeps-jobs2":
        pin_to_one_cpu()
    if args.trace:
        passes, same, metrics = traced_run(args, expected, manifest, run_pass)
    else:
        passes, same, metrics = untraced_run(args, run_pass)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
