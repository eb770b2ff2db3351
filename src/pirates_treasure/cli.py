"""Command line front end.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 when the
command succeeds (and any checked claim holds), 1 when a verification
sweep finds a violation, 2 on usage or input errors, 3 when a node
budget runs out, a game runs deeper than the recursive search can go or
a sweep loses a worker process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .algebra import (
    DEFAULT_EXPANSION_BUDGET,
    SumPosition,
    extract_tree,
    negate_instance,
    render_tree,
    solve_sum,
    sum_position,
)
from .engine import Move, Player, Position, apply_move, format_move, initial_position
from .errors import BudgetExceededError, ParseError, ValidationError, WorkerLostError
from .model import (
    GridSpec,
    Instance,
    make_grid,
    parse_graph,
    parse_instance,
    random_instance,
    serialize_instance,
    validate,
)
from .solver import DEFAULT_NODE_BUDGET, classify, final_scores, solve
from .theory import (
    check_no_n_positions,
    check_no_p_positions,
    check_outcome_table,
    check_reduction_sweep,
    check_self_sum_tie,
    check_table_witnesses,
    convention_comparison,
    hampath_oracle,
    reduce_from_hampath,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (BudgetExceededError, WorkerLostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(
            "error: game too long to search: it runs deeper than the recursion "
            f"limit of {sys.getrecursionlimit()}",
            file=sys.stderr,
        )
        return 3
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; every :func:`main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="pirates",
        description="Exact play and verification for the Pirates and Treasure game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="scores, best first moves and variations")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true", help="append a key=value block")
    _budget_flag(p)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("classify", help="outcome class of a board")
    p.add_argument("file")
    _budget_flag(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("sum", help="solve a sum of boards")
    p.add_argument("files", nargs="+")
    p.add_argument("--first", choices=["left", "right", "both"], default="both")
    _budget_flag(p)
    p.set_defaults(run=_cmd_sum)

    p = sub.add_parser("tree", help="bracket form of the full game tree")
    p.add_argument("file")
    p.add_argument("--max-nodes", type=_node_budget, default=DEFAULT_EXPANSION_BUDGET)
    p.set_defaults(run=_cmd_tree)

    p = sub.add_parser("negate", help="mirror a board (swap fleets, negate score)")
    p.add_argument("file")
    p.set_defaults(run=_cmd_negate)

    p = sub.add_parser("reduce", help="build the path-question board for a graph")
    p.add_argument("file", help="graph file (vertices and edges only)")
    p.add_argument("--at", type=int, required=True, help="Left's berth in the graph")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("oracle", help="does the graph have a path through all vertices")
    p.add_argument("file", help="graph file (vertices and edges only)")
    p.add_argument("--start", type=int, default=None)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument(
        "claim", choices=["pt-x", "pt-negx", "table", "self-sum", "reduction", "all"]
    )
    p.add_argument("--max-n", type=int, default=None, help="exhaustive size bound")
    p.add_argument("--seeds", type=int, default=None, help="random trial count")
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--jobs", type=int, default=1)
    _budget_flag(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("compare", help="scoring vs normal vs misere play")
    p.add_argument("files", nargs="+")
    _budget_flag(p)
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("generate", help="emit a board in the text format")
    gen = p.add_subparsers(dest="kind", required=True)

    g = gen.add_parser("random", help="independent edges, uniform random values")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=0.5, help="edge probability")
    g.add_argument("--weights", default="1:4", help="value range lo:hi")
    g.add_argument("--left", type=int, default=1, help="Left ship count")
    g.add_argument("--right", type=int, default=1, help="Right ship count")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(run=_cmd_generate_random)

    g = gen.add_parser("grid", help="grid board with a uniform value")
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--value", type=int, default=1)
    g.add_argument("--left", action="append", default=[], metavar="X,Y")
    g.add_argument("--right", action="append", default=[], metavar="X,Y")
    g.set_defaults(run=_cmd_generate_grid)

    return parser


def _budget_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-nodes",
        type=_node_budget,
        default=DEFAULT_NODE_BUDGET,
        help="search node budget",
    )


def _node_budget(text: str) -> int:
    """A ``--max-nodes`` value: an integer of at least 1, else a usage error."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


def _read(path: str, parse):
    """``parse`` of the file's text; a decode, parse or validation error
    names the file."""
    try:
        return parse(Path(path).read_text())
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    inst = _read(path, parse_instance)
    for warning in validate(inst):
        print(f"note: {path}: {warning}", file=sys.stderr)
    return inst


def _moves_text(pos: Position, moves) -> str:
    ordered = sorted((m for _, m in moves), key=Move.sort_key)
    return ", ".join(format_move(pos, m) for m in ordered) if ordered else "(none)"


def _cmd_solve(args) -> int:
    inst = _load_instance(args.file)
    report = solve(inst, args.max_nodes)
    left_root = initial_position(inst, Player.LEFT)
    right_root = initial_position(inst, Player.RIGHT)
    print(f"instance: {args.file}")
    print(f"score left first: {report.final_scores.left_first}")
    print(f"score right first: {report.final_scores.right_first}")
    print(f"class: {report.outcome}")
    print(f"best first moves (Left): {_moves_text(left_root, report.best_first_moves_left)}")
    print(f"best first moves (Right): {_moves_text(right_root, report.best_first_moves_right)}")
    print(f"pv (Left first): {_pv_text(left_root, report.pv_left)}")
    print(f"pv (Right first): {_pv_text(right_root, report.pv_right)}")
    print(f"nodes expanded: {report.nodes_expanded}")
    if args.machine:
        print(f"s_left={report.final_scores.left_first}")
        print(f"s_right={report.final_scores.right_first}")
        print(f"class={report.outcome}")
        print(f"nodes={report.nodes_expanded}")
    return 0


def _pv_text(pos: Position, line) -> str:
    parts = []
    for move in line:
        parts.append(format_move(pos, move))
        pos = apply_move(pos, move)
    return "; ".join(parts) if parts else "(no moves)"


def _cmd_classify(args) -> int:
    inst = _load_instance(args.file)
    print(classify(final_scores(inst, budget=args.max_nodes)))
    return 0


def _cmd_sum(args) -> int:
    instances = [_load_instance(f) for f in args.files]
    sp = sum_position(instances, Player.LEFT)
    report = solve_sum(sp, args.max_nodes)
    print(f"components: {len(instances)}")
    if args.first in ("left", "both"):
        print(f"score left first: {report.final_scores.left_first}")
    if args.first in ("right", "both"):
        print(f"score right first: {report.final_scores.right_first}")
    if args.first == "both":
        print(f"class: {report.outcome}")
    for player, best in (
        (Player.LEFT, report.best_first_moves_left),
        (Player.RIGHT, report.best_first_moves_right),
    ):
        if args.first != "both" and args.first != player.name.lower():
            continue
        print(f"best first moves ({player.name.title()}): {_sum_moves_text(sp, best)}")
    print(f"nodes expanded: {report.nodes_expanded}")
    return 0


def _sum_moves_text(sp: SumPosition, moves) -> str:
    ordered = sorted(moves, key=lambda sm: (sm[0],) + sm[1].sort_key())
    if not ordered:
        return "(none)"
    return ", ".join(
        f"c{ci} {format_move(sp.components[ci], m)}" for ci, m in ordered
    )


def _cmd_tree(args) -> int:
    inst = _load_instance(args.file)
    tree = extract_tree(initial_position(inst, Player.LEFT), args.max_nodes)
    print(render_tree(tree))
    return 0


def _cmd_negate(args) -> int:
    inst = _load_instance(args.file)
    sys.stdout.write(serialize_instance(negate_instance(inst)))
    return 0


def _cmd_reduce(args) -> int:
    graph = _read(args.file, parse_graph)
    inst = reduce_from_hampath(graph, args.at)
    print(
        f"note: berth {args.at}, grafted path of {graph.vertex_count} vertices",
        file=sys.stderr,
    )
    sys.stdout.write(serialize_instance(inst))
    return 0


def _cmd_oracle(args) -> int:
    graph = _read(args.file, parse_graph)
    print("true" if hampath_oracle(graph, start=args.start) else "false")
    return 0


def _cmd_verify(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValidationError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    # claim: (sweep, --max-n keyword and default, --seeds keyword and default);
    # --seed goes to the sweeps that draw random boards, whose own default it
    # otherwise keeps
    claims = {
        "reduction": (check_reduction_sweep, ("max_n", 5), None),
        "pt-x": (check_no_p_positions, ("max_exhaustive_n", 4), ("random_trials", 500)),
        "pt-negx": (check_no_n_positions, ("max_exhaustive_n", 4), ("random_trials", 500)),
        "table": (check_outcome_table, ("max_component_n", 4), ("trials", 300)),
        "self-sum": (check_self_sum_tie, ("max_exhaustive_n", 3), ("random_trials", 200)),
    }
    if args.claim == "all" and (args.max_n, args.seeds, args.seed) != (None, None, None):
        raise ValidationError(
            "verify all takes no --max-n, --seeds or --seed: each claim runs at its defaults"
        )
    passed = True
    # one claim's reports are printed once all of them are in; "all" runs
    # every claim in turn in this process, so a --jobs pool serves them all
    for claim in claims if args.claim == "all" else [args.claim]:
        sweep, (size_key, size), seeds = claims[claim]
        kwargs = {
            size_key: size if args.max_n is None else args.max_n,
            "jobs": args.jobs,
            "budget": args.max_nodes,
        }
        if seeds is None and (args.seeds is not None or args.seed is not None):
            raise ValidationError(
                f"verify {claim} takes no --seeds or --seed: it draws no random boards"
            )
        if seeds is not None:
            trials_key, trials = seeds
            kwargs[trials_key] = trials if args.seeds is None else args.seeds
            if args.seed is not None:
                kwargs["seed"] = args.seed
        reports = [sweep(**kwargs)]
        if claim == "table":
            reports.append(check_table_witnesses(budget=args.max_nodes))
        for report in reports:
            print(report.summary())
        passed = passed and all(report.passed for report in reports)
    return 0 if passed else 1


def _cmd_compare(args) -> int:
    instances = [_load_instance(f) for f in args.files]
    sp = sum_position(instances, Player.LEFT)
    report = convention_comparison(sp, args.max_nodes)
    print(f"score left first: {report.scoring_final.left_first}")
    print(f"score right first: {report.scoring_final.right_first}")
    print(f"scoring class: {report.scoring_outcome}")
    for first in (Player.LEFT, Player.RIGHT):
        name = first.name.title()
        print(f"normal winner ({name} first): {report.normal_winner[first].name.title()}")
        print(f"misere winner ({name} first): {report.misere_winner[first].name.title()}")
    for first in (Player.LEFT, Player.RIGHT):
        name = first.name.title()
        print(f"scoring best ({name}): {_sum_moves_text(sp, report.scoring_best_moves[first])}")
        print(f"normal best ({name}): {_sum_moves_text(sp, report.normal_best_moves[first])}")
        print(f"misere best ({name}): {_sum_moves_text(sp, report.misere_best_moves[first])}")
        print(
            f"agreement ({name}): normal={report.agrees(first, 'normal')} "
            f"misere={report.agrees(first, 'misere')}"
        )
    return 0


def _parse_weight_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"weight range must look like 1:4, got {text!r}") from None


def _parse_cell(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise ValidationError(f"grid cell must look like 2,3, got {text!r}") from None


def _cmd_generate_random(args) -> int:
    inst = random_instance(
        vertex_count=args.n,
        edge_probability=args.p,
        weight_range=_parse_weight_range(args.weights),
        left_ships=args.left,
        right_ships=args.right,
        seed=args.seed,
    )
    sys.stdout.write(serialize_instance(inst))
    return 0


def _cmd_generate_grid(args) -> int:
    inst = make_grid(
        GridSpec(args.cols, args.rows, args.value),
        [_parse_cell(c) for c in args.left],
        [_parse_cell(c) for c in args.right],
    )
    sys.stdout.write(serialize_instance(inst))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
