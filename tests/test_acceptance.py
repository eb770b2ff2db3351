"""End-to-end acceptance checks, one test per published claim.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them stream) and then asserts, so the suite both reports and enforces.
Sizes and time limits are part of the claims; times are wall clock on
whatever machine runs the suite.
"""

from __future__ import annotations

import random
import time

from pirates_treasure.algebra import solve_sum, sum_position
from pirates_treasure.engine import Move, Player, apply_move, initial_position, legal_moves
from pirates_treasure.fixtures import (
    TAB_CASES,
    fig_add_components,
    fig_ex,
    fig_ex1,
    fig_mis_components,
    tab_case,
)
from pirates_treasure.model import random_instance
from pirates_treasure.solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Search,
    classify,
    greedy_score,
    minimax_final_score,
    solve,
)
from pirates_treasure.theory import (
    check_distinguishing,
    check_no_n_positions,
    check_no_p_positions,
    check_outcome_table,
    check_reduction_sweep,
    check_self_sum_tie,
    check_table_witnesses,
    convention_comparison,
)

L = Player.LEFT
R = Player.RIGHT


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_01_worked_example_solved_exactly():
    inst = fig_ex()
    start = time.perf_counter()
    report = solve(inst)
    elapsed = time.perf_counter() - start
    trace = (Move(L, 0, 1), Move(R, 0, 3), Move(L, 0, 2), Move(R, 0, 4))
    pos = initial_position(inst, L)
    for move in report.pv_left:
        pos = apply_move(pos, move)
    ok = (
        report.final_scores == FinalScores(2, 2)
        and report.outcome is OutcomeClass.L
        and report.pv_left == trace
        and not legal_moves(pos)
        and pos.score == 2
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (worked example)",
        ok,
        f"scores={tuple(report.final_scores)} class={report.outcome} "
        f"pv_len={len(report.pv_left)} time={elapsed:.3f}s",
    )


def test_02_greed_costs_two_points():
    inst = fig_ex1()
    optimal = solve(inst)
    greedy = greedy_score(inst, greedy_player=L, first_player=L)
    greedy_opening = (0, Move(L, 0, 3))  # grab the 3 next door
    ok = (
        optimal.final_scores.left_first == 1
        and greedy == -1
        and greedy_opening not in optimal.best_first_moves_left
        and optimal.best_first_moves_left == frozenset({(0, Move(L, 0, 1))})
    )
    _report(
        "criterion 2 (greed punished)",
        ok,
        f"optimal={optimal.final_scores.left_first} greedy={greedy}",
    )


def test_03_reduction_exhaustive_to_six_vertices():
    start = time.perf_counter()
    report = check_reduction_sweep(max_n=6)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.checked == 164031 and elapsed < 600
    _report(
        "criterion 3 (path reduction, n <= 6)",
        ok,
        f"{report.machine_line()} time={elapsed:.1f}s",
    )


def test_04a_uniform_positive_never_second_player_win():
    start = time.perf_counter()
    report = check_no_p_positions()  # exhaustive n <= 5 plus 10^4 random n <= 9
    elapsed = time.perf_counter() - start
    ok = report.passed and report.checked >= 10_000 and elapsed < 600
    _report(
        "criterion 4a (no P positions, positive piles)",
        ok,
        f"{report.machine_line()} time={elapsed:.1f}s",
    )


def test_04b_uniform_negative_never_first_player_win():
    start = time.perf_counter()
    report = check_no_n_positions()
    elapsed = time.perf_counter() - start
    ok = report.passed and report.checked >= 10_000 and elapsed < 600
    _report(
        "criterion 4b (no N positions, negative piles)",
        ok,
        f"{report.machine_line()} time={elapsed:.1f}s",
    )


def test_05_figure_boards_and_outcome_table():
    failures = []
    if classify(solve(fig_ex()).final_scores) is not OutcomeClass.L:
        failures.append("fig_ex")
    if classify(solve(fig_ex1()).final_scores) is not OutcomeClass.N:
        failures.append("fig_ex1")
    if classify(solve_sum(sum_position(fig_add_components(), L)).final_scores) is not OutcomeClass.R:
        failures.append("fig_add")
    for case in sorted(TAB_CASES):
        instances, expected = tab_case(case)
        if classify(solve_sum(sum_position(instances, L)).final_scores) is not expected:
            failures.append(f"tab_{case}")
    boards_checked = 3 + len(TAB_CASES)
    witnesses = check_table_witnesses()
    sweep = check_outcome_table(trials=1000)
    ok = not failures and witnesses.passed and sweep.passed
    _report(
        "criterion 5 (figure boards and sum table)",
        ok,
        f"boards={boards_checked} mismatches={failures or 'none'} "
        f"witnesses: {witnesses.machine_line()}; sweep: {sweep.machine_line()}",
    )


def test_06_board_plus_mirror_always_ties():
    report = check_self_sum_tie()  # exhaustive n <= 4 plus 10^3 random n <= 7
    ok = report.passed and report.checked >= 1_000
    _report("criterion 6 (self-sum ties)", ok, report.machine_line())


def test_07_overweight_context_distinguishes():
    report = check_distinguishing()  # 10^3 random boards, n <= 7
    ok = report.passed and report.checked >= 1_000
    _report("criterion 7 (distinguishing context)", ok, report.machine_line())


def test_08_search_matches_reference_on_a_thousand_boards():
    mismatches = 0
    checked = 0
    for i in range(1_000):
        rng = random.Random(50_000 + i)
        n = rng.randint(2, 9)
        inst = random_instance(
            vertex_count=n,
            edge_probability=rng.uniform(0.2, 0.9),
            weight_range=(-3, 4),
            left_ships=1,
            right_ships=1,
            seed=50_000 + i,
        )
        for first in (L, R):
            pos = initial_position(inst, first)
            fast = Search.of([inst], DEFAULT_NODE_BUDGET).root((pos,), pos.to_move)[0]
            if fast != minimax_final_score(pos):
                mismatches += 1
        checked += 1
    ok = checked >= 1_000 and mismatches == 0
    _report(
        "criterion 8 (pruned search vs reference)",
        ok,
        f"boards={checked} mismatches={mismatches}",
    )


def test_09_convention_agreement_on_the_published_boards():
    add = convention_comparison(sum_position(fig_add_components(), L))
    mis = convention_comparison(sum_position(fig_mis_components(), L))
    ok = (
        add.scoring_outcome is OutcomeClass.R
        and add.normal_winner[L] is R
        and add.normal_winner[R] is R
        and add.agrees(R, "normal")
        and mis.scoring_outcome is OutcomeClass.TIE
        and mis.misere_winner[L] is L
        and mis.agrees(L, "misere")
    )
    _report(
        "criterion 9 (convention agreement)",
        ok,
        f"add: class={add.scoring_outcome} normal_agrees={add.agrees(R, 'normal')}; "
        f"mis: class={mis.scoring_outcome} misere_agrees={mis.agrees(L, 'misere')}",
    )
