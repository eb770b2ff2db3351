from __future__ import annotations

import pytest

from pirates_treasure.engine import Player
from pirates_treasure.fixtures import (
    TAB_CASES,
    all_fixtures,
    fig_add_components,
    fig_mis_components,
    tab_case,
)
from pirates_treasure.algebra import solve_sum, sum_position
from pirates_treasure.model import parse_instance, serialize_instance, validate
from pirates_treasure.solver import OutcomeClass, classify, final_scores


def test_every_fixture_file_matches_its_builder(fixtures_dir):
    boards = all_fixtures()
    on_disk = {p.stem: p for p in fixtures_dir.glob("*.pt")}
    assert set(on_disk) == set(boards)
    for name, inst in boards.items():
        assert on_disk[name].read_text() == serialize_instance(inst), name


def test_every_fixture_file_parses_and_validates(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.pt")):
        inst = parse_instance(path.read_text())
        validate(inst)


def test_fixture_names_cover_the_tab_cases():
    names = set(all_fixtures())
    for case, (builders, _) in TAB_CASES.items():
        for label in "abc"[: len(builders)]:
            assert f"tab_case{case}{label}" in names


@pytest.mark.parametrize("case", sorted(TAB_CASES))
def test_tab_case_sums_hit_their_published_class(case):
    instances, expected = tab_case(case)
    fs = solve_sum(sum_position(instances, Player.LEFT)).final_scores
    assert classify(fs) is expected


def test_single_board_fixture_classes():
    boards = all_fixtures()
    expected = {
        "fig_ex": OutcomeClass.L,
        "fig_ex1": OutcomeClass.N,
        "fig_half": OutcomeClass.L,
        "fig_add_b": OutcomeClass.R,
        "fig_mis_a": OutcomeClass.TIE,
        "fig_mis_b": OutcomeClass.L,
        "fig_mis_c": OutcomeClass.R,
    }
    for name, outcome in expected.items():
        assert classify(final_scores(boards[name])) is outcome, name


def test_component_builders_agree_with_the_sum_files():
    add = fig_add_components()
    assert [serialize_instance(i) for i in add] == [
        serialize_instance(all_fixtures()["fig_add_a"]),
        serialize_instance(all_fixtures()["fig_add_b"]),
    ]
    mis = fig_mis_components()
    assert len(mis) == 3
