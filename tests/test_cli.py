from __future__ import annotations

import concurrent.futures.process
import os
import time
import types

import pytest

from pirates_treasure import cli, model
from pirates_treasure.model import parse_instance
from pirates_treasure.theory import SweepReport, Violation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_scores_and_lines(capsys, fixtures_dir):
    code, out, _ = run(capsys, "solve", str(fixtures_dir / "fig_ex.pt"))
    assert code == 0
    assert "score left first: 2" in out
    assert "score right first: 2" in out
    assert "class: L" in out
    assert "pv (Left first): L: 0->1 (+4); R: 5->3 (-3); L: 1->2 (+2); R: 3->4 (-1)" in out


def test_solve_machine_block(capsys, fixtures_dir):
    code, out, _ = run(capsys, "solve", str(fixtures_dir / "fig_ex.pt"), "--machine")
    assert code == 0
    assert "s_left=2\ns_right=2\nclass=L\n" in out


def test_usage_error_does_not_change_the_next_command(capsys, fixtures_dir):
    # the parser is built once per process, so a failed parse must leave it as new
    fig_ex = str(fixtures_dir / "fig_ex.pt")
    cli._build_parser.cache_clear()
    alone = run(capsys, "solve", fig_ex)
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--no-such-flag", fig_ex])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run(capsys, "solve", fig_ex) == alone
    assert cli._build_parser() is cli._build_parser()


def test_classify(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classify", str(fixtures_dir / "fig_ex1.pt"))
    assert code == 0
    assert out.strip() == "N"


def test_classify_needs_only_the_two_scores(capsys, fixtures_dir):
    # the two final scores of fig_ex take 28 nodes, the full solve report 58
    code, out, _ = run(capsys, "classify", "--max-nodes", "40", str(fixtures_dir / "fig_ex.pt"))
    assert code == 0
    assert out.strip() == "L"


def test_sum_both_and_filtered(capsys, fixtures_dir):
    a = str(fixtures_dir / "fig_add_a.pt")
    b = str(fixtures_dir / "fig_add_b.pt")
    code, out, _ = run(capsys, "sum", a, b)
    assert code == 0
    assert "score left first: 0" in out
    assert "score right first: -1" in out
    assert "class: R" in out
    code, out, _ = run(capsys, "sum", a, b, "--first", "left")
    assert code == 0
    assert "score left first: 0" in out
    assert "score right first" not in out
    assert "class:" not in out


def test_tree(capsys, fixtures_dir):
    code, out, _ = run(capsys, "tree", str(fixtures_dir / "fig_half.pt"))
    assert code == 0
    assert out.strip() == "{1, {.|1|0}|0|{0|-1|.}}"


def test_negate_round_trips(capsys, fixtures_dir):
    code, out, _ = run(capsys, "negate", str(fixtures_dir / "fig_half.pt"))
    assert code == 0
    inst = parse_instance(out)
    assert inst.left_starts == (3,)
    assert inst.right_starts == (1,)


def test_reduce_and_oracle(capsys, tmp_path):
    graph_file = tmp_path / "k3.graph"
    graph_file.write_text("vertices 3\ne 0 1\ne 1 2\ne 0 2\n")
    code, out, err = run(capsys, "reduce", str(graph_file), "--at", "0")
    assert code == 0
    assert "grafted path" in err
    built = parse_instance(out)
    assert built.graph.vertex_count == 5
    assert built.right_starts == (3,)

    code, out, _ = run(capsys, "oracle", str(graph_file))
    assert (code, out.strip()) == (0, "true")
    path_file = tmp_path / "p4.graph"
    path_file.write_text("vertices 4\ne 0 1\ne 1 2\ne 2 3\n")
    code, out, _ = run(capsys, "oracle", str(path_file), "--start", "1")
    assert (code, out.strip()) == (0, "false")


def test_reduce_refuses_a_graph_above_the_vertex_cap_at_once(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("no board may be built")

    # without the cap the gadget would take many GB: fail at once instead
    monkeypatch.setattr(cli, "reduce_from_hampath", refuse)
    graph_file = tmp_path / "huge.graph"
    graph_file.write_text("vertices 1000000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", str(graph_file), "--at", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {graph_file}: 1000000000 vertices, more than the 100000 allowed\n"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "pt-x", "--max-n", "3", "--seeds", "20")
    assert code == 0
    assert "violations=0" in out


def test_verify_table_runs_both_checks(capsys):
    code, out, _ = run(capsys, "verify", "table", "--max-n", "3", "--seeds", "10")
    assert code == 0
    assert "sweep table:" in out
    assert "sweep table-witnesses:" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(**kwargs):
        return SweepReport("pt-x", 1, [Violation("vertices 1\nv 0 value 1", "a", "b")])

    monkeypatch.setattr(cli, "check_no_p_positions", broken)
    code, out, _ = run(capsys, "verify", "pt-x")
    assert code == 1
    assert "violations=1" in out


def test_verify_all_runs_every_claim_on_one_pool(capsys, monkeypatch):
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    code, out, err = run(capsys, "verify", "all", "--jobs", "2")
    assert (code, err) == (0, "")
    assert started == [2]
    each = [run(capsys, "verify", claim) for claim in
            ("reduction", "pt-x", "pt-negx", "table", "self-sum")]
    assert out == "".join(claim_out for _, claim_out, _ in each)


def test_verify_all_runs_every_claim_past_a_failing_one(capsys, monkeypatch):
    def broken(**kwargs):
        return SweepReport("pt-x", 1, [Violation("vertices 1\nv 0 value 1", "a", "b")])

    monkeypatch.setattr(cli, "check_no_p_positions", broken)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    assert "sweep pt-x: checked=1 violations=1" in out
    assert out.rstrip().endswith("seed=104 x=1")  # self-sum, the last claim


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
def test_verify_rejects_jobs_outside_the_cpu_count(capsys, monkeypatch, jobs):
    def sweep(**kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "check_no_p_positions", sweep)
    code, out, err = run(capsys, "verify", "pt-x", "--jobs", str(jobs))
    assert (code, out) == (2, "")
    assert err.startswith("error: --jobs must be between 1 and ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("max_n", ["0", "-1", "8"])
def test_verify_rejects_reduction_sizes_outside_one_to_seven(capsys, max_n):
    code, out, err = run(capsys, "verify", "reduction", "--max-n", max_n)
    assert (code, out) == (2, "")
    bound = "most 7" if max_n == "8" else "least 1"
    assert err == f"error: max_n must be at {bound}, got {max_n}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--max-n", "1"], "max_component_n must be at least 2, got 1"),
        (["table", "--seeds", "-3"], "trials must be at least 1, got -3"),
        (["table", "--seeds", "0"], "trials must be at least 1, got 0"),
        (["pt-x", "--max-n", "1", "--seeds", "-5"], "random_trials must be at least 0, got -5"),
        (
            ["self-sum", "--max-n", "1", "--seeds", "0"],
            "self-sum sweep has nothing to check: no exhaustive size of 2 or more "
            "(max_exhaustive_n=1) and no random trials",
        ),
        (["pt-x", "--max-n", "8"], "max_exhaustive_n must be at most 7, got 8"),
        (["pt-negx", "--max-n", "8"], "max_exhaustive_n must be at most 7, got 8"),
        (
            ["pt-x", "--max-n", "-1", "--seeds", "5"],
            "max_exhaustive_n must be at least 0, got -1",
        ),
        (
            ["reduction", "--seeds", "5"],
            "verify reduction takes no --seeds or --seed: it draws no random boards",
        ),
        (
            ["reduction", "--seed", "3"],
            "verify reduction takes no --seeds or --seed: it draws no random boards",
        ),
        (
            ["table", "--max-n", "100000", "--seeds", "1"],
            "max_component_n must be at most 64, got 100000",
        ),
        (["pt-x", "--seed", "-5"], "seed must be at least 0, got -5"),
        (["table", "--seed", "-1"], "seed must be at least 0, got -1"),
        (
            ["all", "--max-n", "3"],
            "verify all takes no --max-n, --seeds or --seed: each claim runs at its defaults",
        ),
        (
            ["all", "--seed", "3"],
            "verify all takes no --max-n, --seeds or --seed: each claim runs at its defaults",
        ),
    ],
)
def test_verify_rejects_sweeps_that_would_crash_or_check_nothing(
    capsys, sweeps_must_not_start, argv, message
):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_compare(capsys, fixtures_dir):
    code, out, _ = run(capsys, "compare", str(fixtures_dir / "fig_half.pt"))
    assert code == 0
    assert "normal winner (Left first): Left" in out
    assert "misere winner (Right first): Right" in out


def test_generate_random_round_trips(capsys):
    code, out, _ = run(
        capsys, "generate", "random", "--n", "6", "--seed", "3", "--weights", "1:5"
    )
    assert code == 0
    inst = parse_instance(out)
    assert inst.graph.vertex_count == 6
    code2, out2, _ = run(
        capsys, "generate", "random", "--n", "6", "--seed", "3", "--weights", "1:5"
    )
    assert out2 == out


def test_generate_grid(capsys):
    code, out, _ = run(
        capsys,
        "generate", "grid", "--cols", "2", "--rows", "3",
        "--left", "1,1", "--right", "2,3", "--value", "2",
    )
    assert code == 0
    inst = parse_instance(out)
    assert inst.graph.vertex_count == 6
    assert inst.left_starts == (0,)
    assert inst.right_starts == (5,)
    assert set(inst.weights.values()) == {2}


def test_parse_error_exits_two(capsys, tmp_path):
    # the second board would be playable if an unmentioned vertex were worth 0
    for text, missing in (
        ("vertices 2\nv 0 ship L\n", 1),
        ("vertices 3\nv 0 ship L\nv 1 ship R\ne 0 2\n", 2),
    ):
        bad = tmp_path / "bad.pt"
        bad.write_text(text)
        code, out, err = run(capsys, "solve", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: no 'v' line for vertices [{missing}]\n"


@pytest.mark.parametrize("command", ["sum", "compare"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"vertices 2\nv 0 ship L\nv 1 valu 3\n", "line 3: unknown vertex kind 'valu'"),
    ],
    ids=["decode", "parse"],
)
def test_error_line_names_the_bad_file_alone(capsys, tmp_path, fixtures_dir, command,
                                             content, message):
    good = str(fixtures_dir / "fig_ex.pt")
    bad = tmp_path / "bad.pt"
    bad.write_bytes(content)
    for files in ([good, str(bad)], [str(bad), good]):
        code, out, err = run(capsys, command, *files)
        assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.pt"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [["solve", "F"], ["classify", "F"], ["sum", "F"], ["tree", "F"], ["negate", "F"],
     ["compare", "F"], ["reduce", "F", "--at", "0"], ["oracle", "F"]],
    ids=lambda argv: argv[0],
)
def test_undecodable_file_exits_two(capsys, tmp_path, argv):
    bad = tmp_path / "bad.pt"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *[str(bad) if a == "F" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_start_off_a_large_graph_exits_two(capsys, tmp_path):
    path_file = tmp_path / "p13.graph"
    path_file.write_text("vertices 13\n" + "".join(f"e {v} {v + 1}\n" for v in range(12)))
    code, out, err = run(capsys, "oracle", str(path_file), "--start", "99")
    assert (code, out, err) == (2, "", "error: start 99 out of range\n")


def test_oracle_refuses_a_graph_past_its_size_cap(capsys, tmp_path):
    path_file = tmp_path / "p13.graph"
    path_file.write_text("vertices 13\n" + "".join(f"e {v} {v + 1}\n" for v in range(12)))
    code, out, err = run(capsys, "oracle", str(path_file))
    assert (code, out) == (2, "")
    assert err == "error: path oracle supports at most 12 vertices, got 13\n"


def test_budget_exit_three(capsys, fixtures_dir):
    code, _, err = run(capsys, "solve", str(fixtures_dir / "fig_ex.pt"), "--max-nodes", "2")
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_budget_error_names_the_sweep_at_any_job_count(capsys, monkeypatch, jobs):
    # the error crosses the pool pickled and must read as it does in one process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "pt-x", "--max-n", "5", "--seeds", "0", "--max-nodes", "1", "--jobs", jobs]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: pt-x sweep exceeded node budget of 1\n")


def test_a_lost_pool_worker_exits_three_naming_the_sweep(capsys, monkeypatch):
    class BrokenPool:
        """A pool whose worker died: ``map`` raises as a real pool's does."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            raise concurrent.futures.process.BrokenProcessPool("a worker died")

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    argv = ["verify", "pt-x", "--max-n", "5", "--seeds", "0", "--jobs", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: pt-x sweep lost a worker process\n")


def _worker_exits(item):
    """Stands in for the sweeps' block worker: the worker process dies."""
    os._exit(1)


@pytest.mark.parametrize(
    "extra, lose_worker, error",
    [
        (["--max-nodes", "1"], False, "error: pt-x sweep exceeded node budget of 1\n"),
        ([], True, "error: pt-x sweep lost a worker process\n"),
    ],
    ids=["budget", "lost-worker"],
)
def test_a_pooled_sweep_after_a_failed_one_gets_a_working_pool(
    capsys, monkeypatch, extra, lose_worker, error
):
    # a failed sweep drops the process's shared pool, so the next pooled
    # sweep in the same process starts a new one and reads as the serial run
    from pirates_treasure.theory import check_no_p_positions, sweeps

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "pt-x", "--max-n", "5", "--seeds", "0", "--jobs", "2", *extra]
    with monkeypatch.context() as patched:
        if lose_worker:
            patched.setattr(sweeps, "_block", _worker_exits)
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", error)
    kwargs = dict(max_exhaustive_n=3, random_trials=300, seed=9)
    assert check_no_p_positions(jobs=2, **kwargs) == check_no_p_positions(jobs=1, **kwargs)


def test_table_witnesses_budget_error_names_its_sweep(capsys):
    # one table trial fits in 20 nodes; the fixture witnesses do not
    argv = ["verify", "table", "--max-n", "3", "--seeds", "1", "--max-nodes", "20"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: table-witnesses sweep exceeded node budget of 20\n")


def test_bad_weight_range_exits_two(capsys):
    code, _, err = run(capsys, "generate", "random", "--n", "4", "--weights", "nope")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])  # missing file argument
    assert exc.value.code == 2


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "F"], ["classify", "F"], ["sum", "F"], ["tree", "F"], ["compare", "F"],
     ["verify", "table"]],
    ids=lambda argv: argv[0],
)
def test_node_budget_below_one_is_a_usage_error(capsys, fixtures_dir, argv, budget):
    argv = [str(fixtures_dir / "fig_ex.pt") if a == "F" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--max-nodes", budget])
    assert exc.value.code == 2
    assert f"argument --max-nodes: must be at least 1, got {budget}\n" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("no loop or draw may run")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["random", "--n", "5", "--p", "2"], "edge probability must lie in [0, 1], got 2.0"),
        (["random", "--n", "5", "--p", "-0.5"], "edge probability must lie in [0, 1], got -0.5"),
        (["random", "--n", "100001"], "100001 vertices, more than the 100000 allowed"),
        (
            ["grid", "--cols", "20000", "--rows", "20000"],
            "400000000 vertices, more than the 100000 allowed",
        ),
        (
            ["random", "--n", "100000"],
            "100000 vertices, more than the 1000 a random board may have",
        ),
        (["random", "--n", "7", "--seed", "-1"], "seed must be at least 0, got -1"),
    ],
    ids=[
        "p-above-1", "p-below-0", "random-above-cap", "grid-above-cap", "random-above-draw-cap",
        "negative-seed",
    ],
)
def test_generate_refuses_what_it_cannot_build_at_once(capsys, monkeypatch, argv, err):
    # without the checks these would loop over every vertex pair or cell
    monkeypatch.setattr(model, "range", _refuse, raising=False)
    monkeypatch.setattr(model, "random", types.SimpleNamespace(Random=_refuse))
    start = time.perf_counter()
    code, out, stderr = run(capsys, "generate", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, stderr) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "ships", [["--left", "0", "--right", "0"], []], ids=["no-ships", "default-ships"]
)
def test_generate_refuses_a_negative_vertex_count(capsys, ships):
    code, out, err = run(capsys, "generate", "random", "--n", "-3", *ships)
    assert (code, out, err) == (2, "", "error: vertex count must be non-negative, got -3\n")


def test_game_deeper_than_the_recursion_limit_exits_three(capsys, tmp_path):
    n = 3000
    lines = [f"vertices {n}", "v 0 ship L", f"v {n - 1} ship R"]
    lines += [f"v {v} value 1" for v in range(1, n - 1)]
    lines += [f"e {v} {v + 1}" for v in range(n - 1)]
    board = tmp_path / "long_path.pt"
    board.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", str(board))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
