"""Randomized invariants, driven by hypothesis.

Boards are drawn through ``random_instance`` keyed by a seed, which keeps
every strategy shrinkable (a failing example is just a handful of ints).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from pirates_treasure.algebra import (
    extract_tree,
    leaf,
    negate_instance,
    negate_tree,
    solve_sum,
    sum_position,
    sum_trees,
    tree_final_scores,
)
from pirates_treasure.engine import Player, apply_move, initial_position, legal_moves
from pirates_treasure.errors import ParseError, ValidationError
from pirates_treasure.model import parse_instance, random_instance, serialize_instance
from pirates_treasure.solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Search,
    classify,
    final_scores,
    left_wins_moving_first,
    minimax_final_score,
)

L = Player.LEFT
R = Player.RIGHT

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def boards(draw, max_vertices=7, weights=(-3, 4), max_ships=1):
    """Strategy: a random board described by (size, density, ships, seed)."""
    n = draw(st.integers(2, max_vertices))
    density_pct = draw(st.integers(10, 95))
    left = draw(st.integers(0, min(max_ships, n - 1)))
    right = draw(st.integers(0, min(max_ships, n - left)))
    seed = draw(st.integers(0, 10_000))
    return random_instance(
        vertex_count=n,
        edge_probability=density_pct / 100,
        weight_range=weights,
        left_ships=left,
        right_ships=right,
        seed=seed,
    )


@SETTINGS
@given(boards())
def test_round_trip_preserves_the_board(inst):
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again == inst


_FIELDS = st.one_of(st.integers(-2, 9), st.integers(-(10**12), 10**12))

#: Lines shaped like the grammar, with any integers, plus free text.
_LINES = st.one_of(
    st.builds("vertices {}".format, _FIELDS),
    st.builds("v {} value {}".format, _FIELDS, _FIELDS),
    st.builds("v {} ship {}".format, _FIELDS, st.sampled_from(["L", "R", "X"])),
    st.builds("e {} {}".format, _FIELDS, _FIELDS),
    st.builds("score {}".format, _FIELDS),
    st.text(max_size=24),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.text(), st.lists(_LINES, max_size=14).map("\n".join)))
def test_parser_raises_only_its_own_errors(text):
    try:
        parse_instance(text)
    except (ParseError, ValidationError):
        pass


@SETTINGS
@given(boards(max_vertices=6))
def test_alpha_beta_agrees_with_reference_minimax(inst):
    for first in (L, R):
        pos = initial_position(inst, first)
        fast = Search.of([inst], DEFAULT_NODE_BUDGET).root((pos,), pos.to_move)[0]
        assert fast == minimax_final_score(pos)


@SETTINGS
@given(boards(max_vertices=6, max_ships=2))
def test_fleets_agree_with_reference_minimax(inst):
    pos = initial_position(inst, L)
    fast = Search.of([inst], DEFAULT_NODE_BUDGET).root((pos,), pos.to_move)[0]
    assert fast == minimax_final_score(pos)


@SETTINGS
@given(boards())
def test_decision_form_tracks_the_sign(inst):
    assert left_wins_moving_first(inst) == (final_scores(inst).left_first > 0)


@SETTINGS
@given(boards())
def test_negation_swaps_and_negates_scores(inst):
    fs = final_scores(inst)
    mirrored = final_scores(negate_instance(inst))
    assert mirrored == FinalScores(-fs.right_first, -fs.left_first)


_MIRROR = {
    OutcomeClass.L: OutcomeClass.R,
    OutcomeClass.R: OutcomeClass.L,
    OutcomeClass.N: OutcomeClass.N,
    OutcomeClass.P: OutcomeClass.P,
    OutcomeClass.TIE: OutcomeClass.TIE,
}


@SETTINGS
@given(boards())
def test_negation_mirrors_the_outcome_class(inst):
    assert classify(final_scores(negate_instance(inst))) is _MIRROR[
        classify(final_scores(inst))
    ]


@SETTINGS
@given(boards(max_vertices=5))
def test_tree_scores_match_state_scores(inst):
    tree = extract_tree(initial_position(inst, L))
    assert tree_final_scores(tree) == final_scores(inst)


@SETTINGS
@given(boards(max_vertices=5))
def test_negate_tree_matches_negate_instance(inst):
    tree = extract_tree(initial_position(inst, L))
    mirrored = extract_tree(initial_position(negate_instance(inst), L))
    assert mirrored == negate_tree(tree)
    assert negate_tree(negate_tree(tree)) == tree


@SETTINGS
@given(boards(max_vertices=5), st.integers(-8, 8))
def test_shift_matches_initial_score(inst, delta):
    shifted = dataclasses.replace(inst, initial_score=inst.initial_score + delta)
    assert (
        extract_tree(initial_position(shifted, L))
        == sum_trees(extract_tree(initial_position(inst, L)), leaf(delta))
    )


@SETTINGS
@given(boards(max_vertices=4), boards(max_vertices=4))
def test_tree_sum_commutes_and_matches_state_sum(a, b):
    ta = extract_tree(initial_position(a, L))
    tb = extract_tree(initial_position(b, L))
    assert sum_trees(ta, tb) == sum_trees(tb, ta)
    assert tree_final_scores(sum_trees(ta, tb)) == solve_sum(sum_position([a, b], L)).final_scores


@SETTINGS
@given(boards(max_vertices=5))
def test_board_plus_its_mirror_ties(inst):
    sp = sum_position([inst, negate_instance(inst)], L)
    assert solve_sum(sp).final_scores == FinalScores(0, 0)


@SETTINGS
@given(boards(), st.randoms(use_true_random=False))
def test_random_playout_bookkeeping(inst, rnd):
    pos = initial_position(inst, L)
    banked = inst.initial_score
    plundered = set(pos.visited)
    while True:
        moves = legal_moves(pos)
        if not moves:
            break
        move = rnd.choice(moves)
        assert move.to not in plundered
        gain = inst.weight_of(move.to)
        banked += gain if move.player is L else -gain
        plundered.add(move.to)
        pos = apply_move(pos, move)
        assert pos.score == banked
        assert pos.visited == frozenset(plundered)
    assert pos.score == banked


@SETTINGS
@given(boards(max_vertices=6))
def test_optimal_score_is_achievable_not_just_claimed(inst):
    # the reported line must be legal, end the game, and land exactly on
    # the reported optimum
    from pirates_treasure.solver import solve

    report = solve(inst)
    pos = initial_position(inst, L)
    for move in report.pv_left:
        pos = apply_move(pos, move)
    assert not legal_moves(pos)
    assert pos.score == report.final_scores.left_first
