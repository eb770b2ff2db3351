"""Benchmark for the pirates_treasure package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads: ``reduction``, ``solve``,
``sums`` and ``sweeps-jobs2`` (see README.md).  The program is taken from
``src/`` of the same tree; nothing is installed.

With ``--trace 0`` the run measures the end-to-end figures: ``setup_s``
(median import time over several fresh interpreters), ``items_per_s``,
``item_p50_ms``, ``item_p95_ms`` and ``peak_rss_mb``; every time in them is
scaled to a reference machine speed (speed.py).  With ``--trace 1``
a separate traced run gives the per-layer split and writes its spans to
``.perfbench-out/``.  Every answer is checked against ``expected.json``;
failures are counted, never fatal.  Each figure is printed to stderr by
name and unit, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("reduction", "solve", "sums", "sweeps-jobs2")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170

# Prints the import time scaled to reference speed (speed.py), from
# kernel samples taken just before and just after the import.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = ["src", "perfbench"]
import speed
speed.sample()
before = speed.sample()
start = time.perf_counter()
import pirates_treasure, pirates_treasure.theory, pirates_treasure.cli
elapsed = time.perf_counter() - start
print(elapsed * 2 * speed.REFERENCE_S / (before + speed.sample()))
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{argv[1]} ran past {timeout} s")
    if proc.returncode != 0:
        fail(f"{argv[1]} exited with code {proc.returncode}")
    return out


def setup_seconds() -> float:
    """Median import time of the package in fresh interpreters, at reference speed.

    The first interpreter compiles the byte code and is not counted.
    """
    probe = [sys.executable, "-c", IMPORT_PROBE]
    samples = [float(run_child(probe, 60)) for _ in range(SETUP_SAMPLES + 1)]
    return statistics.median(samples[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pirates_treasure" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'pirates_treasure'}")

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        if args.workload in inputs.BANKS:
            manifest = inputs.write_items(args.workload, args.seed, work)
            (work / "manifest.json").write_text(json.dumps(manifest))
            worker += ["--manifest", str(work / "manifest.json")]
        setup = None if args.trace else setup_seconds()
        result = json.loads(run_child(worker, WORKER_TIMEOUT_S).splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
    rate = result["failed"] / result["attempted"]
    print(f"{args.workload} seed={args.seed}: error_rate {rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} failed), correct={result['correct']}",
          file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
