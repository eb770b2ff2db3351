"""Repeat the benchmark over seeds and summarise it; optionally record the baseline.

    python3 perfbench/baseline.py [--workloads NAME ...] [--seeds 1 2 ...] [--write]

Run from the repository root.  For each workload it makes one untraced run
per seed and prints, for each end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound
from BENCHMARK.json.  It then makes one traced run at the first seed.
``--write`` stores all of it in ``baseline.json``, the trajectory origin
that later changes are measured against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Kept back while the benchmark and the changes measured on it are written;
#: a claimed gain must also hold on this seed.
HOLDBACK_SEED = 1208


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def summarise(bench: dict, workload: str, runs: list[dict]) -> dict:
    out = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < metric["bound"] / 3 else "  (above a third of the bound)"
        print(f"  {name:12s} median {median:10.4f} {metric['unit']:4s} q1 {q1:10.4f} "
              f"q3 {q3:10.4f} spread {spread:6.3f} bound {metric['bound']}{flag}")
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "unit": metric["unit"], "samples": len(values)}
    return out


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--write", action="store_true", help="record baseline.json")
    args = parser.parse_args()

    workloads = {}
    for workload in args.workloads:
        runs = [run_once(bench, workload, seed, 0) for seed in args.seeds]
        print(f"{workload}: {len(runs)} runs, attempted per run "
              f"{sorted({r['attempted'] for r in runs})}, failed {sum(r['failed'] for r in runs)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        entry = {"end_to_end": summarise(bench, workload, runs),
                 "attempted_per_run": [r["attempted"] for r in runs],
                 "failed": sum(r["failed"] for r in runs)}
        traced = run_once(bench, workload, args.seeds[0], 1)
        entry["traced_seed"] = args.seeds[0]
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items() if m["value"]}
        workloads[workload] = entry
    if args.write:
        baseline = {
            "about": "First baseline: medians and quartiles over the seeds, one traced run per "
                     "workload (layers that do no work on a workload are left out).",
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "holdback_seed": HOLDBACK_SEED,
            "layer_functions": worker.LAYERS,
            "workloads": workloads,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
