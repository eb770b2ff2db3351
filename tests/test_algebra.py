from __future__ import annotations

import random

import pytest

from pirates_treasure.algebra import (
    GameTree,
    extract_tree,
    leaf,
    negate_instance,
    negate_tree,
    render_tree,
    solve_sum,
    sum_apply,
    sum_legal_moves,
    sum_position,
    sum_trees,
    tree_final_scores,
)
from pirates_treasure.engine import Move, Player, initial_position
from pirates_treasure.errors import BudgetExceededError
from pirates_treasure.fixtures import (
    TAB_CASES,
    _left_edge,
    _three_path,
    fig_add_b,
    fig_ex,
    fig_half,
    tab_case,
)
from pirates_treasure.model import Graph, Instance, random_instance
from pirates_treasure.solver import (
    FinalScores,
    OutcomeClass,
    Search,
    _children,
    _union_state,
    final_scores,
)

L = Player.LEFT
R = Player.RIGHT


def _tree(builder) -> GameTree:
    return extract_tree(initial_position(builder(), L))


def test_extract_tree_matches_hand_expansion():
    # the four-vertex path x, Left, x, Right with x = 1
    after_left_to_v0 = GameTree(1, frozenset(), frozenset({leaf(0)}))
    after_right_to_v2 = GameTree(-1, frozenset({leaf(0)}), frozenset())
    expected = GameTree(
        0,
        frozenset({leaf(1), after_left_to_v0}),
        frozenset({after_right_to_v2}),
    )
    assert _tree(fig_half) == expected


def test_render_tree_bracket_form():
    assert render_tree(_tree(fig_half)) == "{1, {.|1|0}|0|{0|-1|.}}"
    assert render_tree(leaf(-3)) == "-3"


def test_tree_scores_match_state_solver():
    for builder in (fig_half, fig_ex, _three_path, _left_edge, fig_add_b):
        assert tree_final_scores(_tree(builder)) == final_scores(builder())


def test_negate_tree_is_an_involution():
    t = _tree(fig_ex)
    assert negate_tree(negate_tree(t)) == t


def test_negate_tree_mirrors_scores():
    t = _tree(fig_half)
    fs = tree_final_scores(t)
    neg = tree_final_scores(negate_tree(t))
    assert neg == FinalScores(-fs.right_first, -fs.left_first)


def test_negate_instance_matches_negate_tree():
    for builder in (fig_half, fig_ex, _three_path):
        inst = builder()
        mirrored = extract_tree(initial_position(negate_instance(inst), L))
        assert mirrored == negate_tree(extract_tree(initial_position(inst, L)))


def test_negate_instance_round_trips():
    inst = fig_ex()
    assert negate_instance(negate_instance(inst)) == inst


def test_shift_tree_matches_initial_score():
    import dataclasses

    inst = fig_half()
    shifted_inst = dataclasses.replace(inst, initial_score=5)
    assert (
        extract_tree(initial_position(shifted_inst, L))
        == sum_trees(extract_tree(initial_position(inst, L)), leaf(5))
    )


def test_sum_with_zero_game_changes_nothing():
    for builder in (fig_half, _three_path):
        t = _tree(builder)
        assert sum_trees(t, leaf(0)) == t
        assert sum_trees(leaf(0), t) == t


def test_sum_trees_commutes():
    a, b = _tree(fig_half), _tree(_three_path)
    assert sum_trees(a, b) == sum_trees(b, a)


def test_sum_trees_associates():
    a, b, c = _tree(fig_half), _tree(_three_path), _tree(_left_edge)
    assert sum_trees(sum_trees(a, b), c) == sum_trees(a, sum_trees(b, c))


@pytest.mark.parametrize("case", sorted(TAB_CASES))
def test_sum_routes_agree(case):
    instances, expected = tab_case(case)
    trees = [extract_tree(initial_position(i, L)) for i in instances]
    combined = trees[0]
    for t in trees[1:]:
        combined = sum_trees(combined, t)
    via_trees = tree_final_scores(combined)
    report = solve_sum(sum_position(instances, L))
    assert via_trees == report.final_scores
    assert report.outcome is expected


def test_single_component_sum_equals_direct_solve():
    inst = fig_ex()
    assert solve_sum(sum_position([inst], L)).final_scores == final_scores(inst)


@pytest.mark.parametrize("case", sorted(TAB_CASES))
def test_final_scores_of_boards_side_by_side_match_the_sum_report(case):
    instances, _ = tab_case(case)
    assert final_scores(*instances) == solve_sum(sum_position(instances, L)).final_scores
    reversed_order = instances[::-1]
    assert final_scores(*reversed_order) == final_scores(*instances)


def test_packed_children_follow_sum_move_generation():
    # Played-in fleets are no longer sorted, so a ship index must be read
    # from the component's own fleet, not from the packed (ascending) one.
    # The last 200 trials sum 2-3 boards with fleets of 2-3: up to 9 ships a side.
    rng = random.Random(6)
    draws = [((1, 2), (1, 3))] * 300 + [((2, 3), (2, 3))] * 200
    for trial, (components, fleets) in enumerate(draws):
        boards = []
        for _ in range(rng.randint(*components)):
            left, right = rng.randint(*fleets), rng.randint(*fleets)
            boards.append(
                random_instance(
                    vertex_count=rng.randint(left + right, 9),
                    edge_probability=rng.uniform(0.3, 0.9),
                    weight_range=(-3, 4),
                    left_ships=left,
                    right_ships=right,
                    seed=rng.randrange(10**6),
                )
            )
        sp = sum_position(boards, rng.choice([L, R]))
        for _ in range(rng.randint(0, 4)):
            moves = sum_legal_moves(sp)
            if not moves:
                break
            sp = sum_apply(sp, rng.choice(moves))
        search = Search.of(boards, 10**6)
        mover = sp.to_move
        root = _union_state(sp.components, mover)
        children = list(_children(search, sp.components, mover, root))
        assert [m for m, _, _ in children] == sum_legal_moves(sp), trial
        sign = 1 if mover is L else -1
        for m, gain, child in children:
            after = sum_apply(sp, m)
            assert child == _union_state(after.components, mover.opponent), (trial, m)
            assert gain == sign * (after.score - sp.score), (trial, m)


def test_empty_sum_is_the_zero_game():
    assert final_scores() == FinalScores(0, 0)
    report = solve_sum(sum_position([], L))
    assert report.final_scores == FinalScores(0, 0)
    assert report.outcome is OutcomeClass.TIE
    assert report.best_first_moves_left == frozenset()


def test_board_plus_mirror_ties():
    for builder in (fig_half, fig_ex, _three_path):
        inst = builder()
        sp = sum_position([inst, negate_instance(inst)], L)
        assert solve_sum(sp).final_scores == FinalScores(0, 0)


def test_sum_position_mechanics():
    sp = sum_position([fig_half(), _three_path()], L)
    moves = sum_legal_moves(sp)
    # two Left slides on the path board, one on the three-path
    assert [(ci, m.to) for ci, m in moves] == [(0, 0), (0, 2), (1, 1)]
    nxt = sum_apply(sp, (1, Move(L, 0, 1)))
    assert nxt.to_move is R
    assert nxt.components[0].visited == sp.components[0].visited
    assert 1 in nxt.components[1].visited
    assert nxt.score == 1


def test_sum_not_terminal_while_any_component_moves():
    # Left is stuck on the first board but can still move on the second.
    stuck = Instance(Graph.from_edges(2, [(0, 1)]), {}, (0,), (1,))
    sp = sum_position([stuck, _left_edge()], L)
    assert sum_legal_moves(sp)
    only_stuck = sum_position([stuck], L)
    assert not sum_legal_moves(only_stuck)


def test_sum_terminal_cuts_off_remaining_piles():
    # Right first on two Left-edge boards: Right is stuck immediately,
    # so Left's waiting piles never get collected.
    sp = sum_position([_left_edge(), _left_edge()], R)
    assert not sum_legal_moves(sp)
    assert solve_sum(sum_position([_left_edge(), _left_edge()], L)).final_scores.right_first == 0


def test_extract_tree_budget():
    with pytest.raises(BudgetExceededError):
        extract_tree(initial_position(fig_ex(), L), budget=2)


def test_sum_trees_budget():
    a, b = _tree(fig_ex), _tree(fig_ex)
    with pytest.raises(BudgetExceededError):
        sum_trees(a, b, budget=5)


def test_sum_trees_budget_counts_distinct_pairs():
    # a pair of summand positions reached along several move orders is
    # built once, so the budget bounds distinct pairs, not calls
    a, b = _tree(fig_ex), _tree(fig_half)
    pairs, todo = set(), [(a, b)]
    while todo:
        pair = todo.pop()
        if pair not in pairs:
            pairs.add(pair)
            g, h = pair
            todo += [(o, h) for o in g.left_options | g.right_options]
            todo += [(g, o) for o in h.left_options | h.right_options]
    assert sum_trees(a, b, budget=len(pairs)) == sum_trees(a, b)
    with pytest.raises(BudgetExceededError):
        sum_trees(a, b, budget=len(pairs) - 1)


def test_render_orders_options_by_score_then_text():
    t = GameTree(
        0,
        frozenset({leaf(2), leaf(-1), GameTree(1, frozenset(), frozenset({leaf(0)}))}),
        frozenset(),
    )
    assert render_tree(t) == "{-1, {.|1|0}, 2|0|.}"
