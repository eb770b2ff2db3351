"""Mutation gate: every listed mutant of the package fails the tier-1 tests.

Each entry of ``tests/data/mutants.json`` names a file, a text that occurs
in it exactly once, the text that replaces it and why the mutant matters.
For each mutant the script copies the working tree to a temporary
directory, applies the one substitution there and runs the tier-1 suite
with ``-x``; the test file the entry names under ``killed_by`` runs first,
so a killed mutant usually dies within seconds.  A mutant is killed when a
run fails.  An entry with an ``equivalent`` reason is not run, since no test
can tell it from the package, but its original text must still occur once,
so the list cannot go stale.  The file is not named ``test_*``, so pytest
does not collect it.  Run from the repository root::

    python tests/mutation_gate.py

It exits 0 when every mutant is killed, 1 when one survives, and 2 when an
entry does not match its file or the ``killed_by`` files fail unmutated.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "data" / "mutants.json"
LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench-*",
    "*.egg-info",
)
#: Longer than a whole passing tier-1 run; a mutant that runs past it hangs.
TIMEOUT_S = 600


def _pytest(tree: Path, *args: str) -> bool:
    """Do these tests pass on the tree?  A run past the timeout fails."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    for i, m in enumerate(mutants):
        found = (ROOT / m["file"]).read_text().count(m["original"])
        if found != 1:
            print(f"mutant {i}: its original text occurs {found} times in {m['file']}")
            return 2
    firsts = sorted({m["killed_by"] for m in mutants if "killed_by" in m})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=LEFT_OUT)
        if not _pytest(tree, *firsts):
            print("the unmutated tree fails " + " ".join(firsts))
            return 2
    survivors = 0
    for i, m in enumerate(mutants):
        if "equivalent" in m:
            print(f"mutant {i} equivalent: {m['equivalent']}")
            continue
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=LEFT_OUT)
            path = tree / m["file"]
            path.write_text(path.read_text().replace(m["original"], m["mutant"]))
            first = m.get("killed_by")
            if first and not _pytest(tree, first):
                verdict = f"killed by {first}"
            elif not _pytest(tree, "--continue-on-collection-errors"):
                verdict = "killed by tier-1"
            else:
                verdict = "SURVIVED"
                survivors += 1
        print(f"mutant {i} {verdict} in {time.perf_counter() - started:.1f} s: {m['why']}")
    run = sum("equivalent" not in m for m in mutants)
    print(f"{run - survivors} of {run} mutants killed, {len(mutants) - run} listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
