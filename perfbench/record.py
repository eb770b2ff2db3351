"""Write expected.json: the answers every benchmark run is checked against.

    python3 perfbench/record.py

Run from the repository root at a commit whose answers are trusted.  Each
answer comes from the package's library calls on the base boards, and is
cross-checked against the independent reference routes wherever they
finish within their budgets:

* boards: ``minimax_final_score`` (plain minimax, no table, no pruning);
* sums: ``extract_tree`` per component, ``sum_trees``, ``tree_final_scores``;
* the reduction sweep: ``hampath_oracle`` inside the sweep itself, so a
  passing sweep is the cross-check.

A disagreement stops the recording.  The sweeps' ``checked`` counts do not
depend on the seed, so they are recorded once, at seed 0.
"""

from __future__ import annotations

import json
import sys
from functools import reduce
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pirates_treasure as pt  # noqa: E402
import pirates_treasure.theory as theory  # noqa: E402

import inputs  # noqa: E402
import worker  # noqa: E402

MINIMAX_BUDGET = 200_000
TREE_BUDGET = 50_000


def minimax_scores(inst):
    try:
        return [pt.minimax_final_score(pt.initial_position(inst, first), MINIMAX_BUDGET)
                for first in (pt.Player.LEFT, pt.Player.RIGHT)]
    except pt.BudgetExceededError:
        return None


def tree_scores(insts):
    try:
        trees = [pt.extract_tree(pt.initial_position(i, pt.Player.LEFT), TREE_BUDGET)
                 for i in insts]
        return list(pt.tree_final_scores(reduce(lambda g, h: pt.sum_trees(g, h, TREE_BUDGET),
                                                trees)))
    except pt.BudgetExceededError:
        return None


def check(item_id: str, answer: list, reference: list | None, route: str) -> str:
    if reference is None:
        return "none"
    if reference != answer:
        raise SystemExit(f"{item_id}: {answer} but {route} gives {reference}")
    return route


def record_solve() -> dict:
    out = {}
    for item_id, _, (board,) in inputs.solve_bank():
        inst = pt.parse_instance(board.text())
        report = pt.solve(inst)
        scores = list(report.final_scores)
        out[item_id] = {
            "digest": inputs.digest([board.text()]),
            "scores": scores,
            "class": str(report.outcome),
            "reference": check(item_id, scores, minimax_scores(inst), "minimax"),
        }
    return out


def record_sums() -> dict:
    out = {}
    for item_id, command, boards in inputs.sums_bank():
        insts = [pt.parse_instance(b.text()) for b in boards]
        sp = pt.sum_position(insts, pt.Player.LEFT)
        report = pt.solve_sum(sp)
        scores = list(report.final_scores)
        entry = {
            "digest": inputs.digest([b.text() for b in boards]),
            "scores": scores,
            "class": str(report.outcome),
            "reference": check(item_id, scores, tree_scores(insts), "trees"),
        }
        if command == "compare":
            comparison = theory.convention_comparison(sp)
            order = (pt.Player.LEFT, pt.Player.RIGHT)
            entry["normal"] = [comparison.normal_winner[f].name.title() for f in order]
            entry["misere"] = [comparison.misere_winner[f].name.title() for f in order]
        out[item_id] = entry
    return out


def record_sweeps() -> tuple[dict, dict]:
    report = theory.check_reduction_sweep(max_n=worker.REDUCTION_MAX_N)
    if not report.passed:
        raise SystemExit(f"reduction sweep: {report.machine_line()}")
    reduction = {"checked": report.checked, "max_n": worker.REDUCTION_MAX_N}
    sweeps = {}
    for name, sweep, offset in worker.SWEEPS:
        report = sweep(seed=worker.sweep_seed(0, offset))
        if not report.passed:
            raise SystemExit(f"sweep {name}: {report.machine_line()}")
        sweeps[name] = {"checked": report.checked}
    return reduction, sweeps


def main() -> None:
    reduction, sweeps = record_sweeps()
    expected = {
        "solve": record_solve(),
        "sums": record_sums(),
        "reduction": reduction,
        "sweeps": sweeps,
    }
    for workload in ("solve", "sums"):
        routes = [e["reference"] for e in expected[workload].values()]
        print(f"{workload}: {len(routes)} items, "
              f"{len(routes) - routes.count('none')} cross-checked by a reference route")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
