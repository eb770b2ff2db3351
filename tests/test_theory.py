from __future__ import annotations

import hashlib
import random

import pytest

from pirates_treasure.algebra import solve_sum, sum_position
from pirates_treasure.engine import Player, initial_position, legal_moves
from pirates_treasure.errors import ValidationError
from pirates_treasure.fixtures import fig_add_b, fig_ex, fig_half
from pirates_treasure.model import Graph, GridSpec, grid_graph, serialize_instance
from pirates_treasure.solver import (
    DEFAULT_NODE_BUDGET,
    Search,
    classify,
    final_scores,
    left_wins_moving_first,
)
from pirates_treasure.theory import (
    connected_labeled_graphs,
    distinguishing_context,
    enumerate_pt_negx,
    enumerate_ptx,
    hampath_by_permutations,
    hampath_oracle,
    random_pt_instance,
    random_ptx_instance,
    reduce_from_hampath,
    sweeps,
    uniform_instance,
)
from pirates_treasure.theory.families import (
    MAX_DRAW_N,
    graph_from_bits,
    instance_from_bits,
    random_connected_adjacency,
)
from pirates_treasure.theory.reduction import gadget_board, hampath_from

L = Player.LEFT
R = Player.RIGHT


# ---------------------------------------------------------------------------
# families


def test_connected_graph_counts():
    assert [sum(1 for _ in connected_labeled_graphs(n)) for n in range(1, 6)] == [
        1, 1, 4, 38, 728,
    ]


def test_connected_graphs_are_connected_and_distinct():
    seen = set()
    for g in connected_labeled_graphs(4):
        assert g.is_connected()
        assert g.edges not in seen
        seen.add(g.edges)


def test_enumerate_ptx_counts():
    assert sum(1 for _ in enumerate_ptx(2, 1)) == 2
    assert sum(1 for _ in enumerate_ptx(3, 1)) == 24
    assert sum(1 for _ in enumerate_ptx(4, 1)) == 456


def test_enumerate_families_reject_bad_args():
    with pytest.raises(ValidationError):
        list(enumerate_ptx(3, 0))
    with pytest.raises(ValidationError):
        list(enumerate_ptx(3, -2))
    with pytest.raises(ValidationError):
        list(enumerate_ptx(1, 1))
    with pytest.raises(ValidationError):
        list(enumerate_ptx(8, 1))
    with pytest.raises(ValidationError):
        list(enumerate_pt_negx(3, -1))


def test_enumerate_pt_negx_mirrors_weights():
    boards = list(enumerate_pt_negx(3, 2))
    assert len(boards) == 24
    assert all(w == -2 for b in boards for w in b.weights.values())


def test_uniform_instance_layout():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    inst = uniform_instance(g, left=0, right=3, value=5)
    assert inst.weights == {1: 5, 2: 5}
    assert inst.left_starts == (0,) and inst.right_starts == (3,)


def test_random_connected_graph_is_connected():
    for seed in range(30):
        rng = random.Random(seed)
        g = graph_from_bits(random_connected_adjacency(rng.randint(1, 10), rng))
        assert g.is_connected()


def _set_based_draw(n, rng):
    """Reference for the bitmask draw: the same tree and extra edges on a set."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.25:
                edges.add((u, v))
    return frozenset(edges)


def test_random_connected_graph_matches_the_set_based_draw():
    for seed in range(500):
        ours, reference = random.Random(seed), random.Random(seed)
        n = ours.randint(1, 10)
        reference.randint(1, 10)
        drawn = graph_from_bits(random_connected_adjacency(n, ours))
        assert drawn.edges == _set_based_draw(n, reference)
        # the same numbers were drawn, so later draws stay in step
        assert ours.random() == reference.random()


def _set_based_board(n, rng):
    """Reference for a board of the uniform draws: the set-based graph, then
    the berths as ``sample`` picks them."""
    edges = _set_based_draw(n, rng)
    left, right = rng.sample(range(n), 2)
    return edges, left, right


def _set_based_pt(n, rng):
    """Reference for :func:`random_pt_instance`: piles from ``randint(1, 4)``,
    drawn again until Left has a first move."""
    while True:
        edges, left, right = _set_based_board(n, rng)
        piles = {v: rng.randint(1, 4) for v in range(n) if v != left and v != right}
        if any(left in e and right not in e for e in edges):
            return edges, piles, left, right


def _bits_board(adj, left, right):
    return graph_from_bits(adj).edges, left, right


def _pt_board(inst):
    return inst.graph.edges, inst.weights, *inst.left_starts, *inst.right_starts


@pytest.mark.parametrize("max_n", [7, 9])
def test_drawn_boards_match_the_randint_and_sample_draw(max_n):
    seeds = range(2000)
    expected = []
    for seed in seeds:
        rng = random.Random(seed)
        expected.append(_set_based_board(rng.randint(2, max_n), rng))
    assert [_bits_board(*board) for board in sweeps._draws(sweeps._drawn, seeds, max_n)] == expected


def test_drawn_pairs_match_the_randint_and_sample_draw():
    seeds = range(2000)
    expected = []
    for seed in seeds:
        rng = random.Random(seed)
        a = _set_based_board(rng.randint(2, 5), rng)
        expected.append((a, _set_based_board(rng.randint(2, 5), rng)))
    drawn = [(_bits_board(*a), _bits_board(*b)) for a, b in sweeps._draws(sweeps._pairs, seeds, 5)]
    assert drawn == expected


def test_drawn_pt_boards_match_the_randint_and_sample_draw():
    seeds = range(2000)
    expected = []
    for seed in seeds:
        rng = random.Random(seed)
        expected.append(_set_based_pt(rng.randint(3, 7), rng))
    drawn = sweeps._draws(sweeps._drawn_pt, seeds, 7)
    assert [_pt_board(instance_from_bits(*board)) for board in drawn] == expected


def test_the_bitmask_context_is_the_distinguishing_context():
    for board in sweeps._draws(sweeps._drawn_pt, range(1000), 7):
        inst = instance_from_bits(*board)
        assert instance_from_bits(*sweeps._context(board[1])) == distinguishing_context(inst)


@pytest.mark.parametrize("lo, hi, seeds", [(3, 9, 2000), (22, MAX_DRAW_N, 200)])
def test_raw_bit_draws_keep_the_generator_in_step(lo, hi, seeds):
    # past 21 vertices sample picks the berths by rejection, not from a pool
    for seed in range(seeds):
        ours, reference = random.Random(seed), random.Random(seed)
        n = ours.randint(lo, hi)
        assert reference.randint(lo, hi) == n
        assert _pt_board(random_pt_instance(n, ours)) == _set_based_pt(n, reference)
        assert ours.random() == reference.random()


#: sha256 of the repr of the first 1,000 seeded boards of the uniform sweeps
#: (``_drawn`` at max_n 9) and of the table (``_pairs`` at max_n 5): a
#: change of Python or of the draw that changes a checked board fails here.
DRAWN_DIGEST = "b84f87c7d25cb2c04f5ed695f2faed37aa64a9a6f2b1a39f58ea472280396f5a"
PAIRS_DIGEST = "c3ab83fc0b63099168b4c0e551feb0a41aa38324e3980573df4fea6699f3939a"


def test_seeded_sweep_boards_are_pinned():
    def digest(boards):
        return hashlib.sha256(repr(list(boards)).encode()).hexdigest()

    assert digest(sweeps._draws(sweeps._drawn, range(1000), 9)) == DRAWN_DIGEST
    assert digest(sweeps._draws(sweeps._pairs, range(1000), 5)) == PAIRS_DIGEST


#: sha256 of the repr of the text form of the first 1,000 seeded boards of
#: the distinguishing sweep (``_drawn_pt`` at max_n 7).  The stdlib reference
#: above draws through ``randint`` and ``sample``, which Python does not pin
#: across releases; this digest pins the boards themselves.
DRAWN_PT_DIGEST = "03a585972f07dbd7f4d00977dca0f3a09485f679909ce8e1f1c8509675dee653"


def test_seeded_distinguishing_boards_are_pinned():
    boards = sweeps._draws(sweeps._drawn_pt, range(1000), 7)
    texts = [serialize_instance(instance_from_bits(*board)) for board in boards]
    assert hashlib.sha256(repr(texts).encode()).hexdigest() == DRAWN_PT_DIGEST


def test_random_ptx_instance_is_uniform():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_ptx_instance(rng.randint(2, 8), 3, rng)
        assert set(inst.weights.values()) <= {3}
        assert len(inst.left_starts) == len(inst.right_starts) == 1


def test_random_pt_instance_left_move_guarantee():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_pt_instance(rng.randint(3, 8), rng)
        assert legal_moves(initial_position(inst, L))


def test_random_pt_instance_rejects_impossible_request():
    with pytest.raises(ValidationError):
        random_pt_instance(2, random.Random(0))


# ---------------------------------------------------------------------------
# reduction


def test_reduction_shape_for_triangle():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    inst = reduce_from_hampath(g, left_start=0)
    assert inst.graph.vertex_count == 5  # 2n - 1
    assert inst.left_starts == (0,)
    assert inst.right_starts == (3,)  # first fresh vertex, next to Left's berth
    assert inst.weights == {1: 1, 2: 1, 4: 1}
    assert {(0, 3), (3, 4)} <= set(inst.graph.edges)


def test_reduction_single_vertex_graph():
    inst = reduce_from_hampath(Graph(1, frozenset()), 0)
    assert inst.graph.vertex_count == 1
    assert inst.right_starts == ()
    assert inst.weights == {}
    # no path through one vertex, and Left cannot win a move-less game
    assert not hampath_oracle(Graph(1, frozenset()), 0)
    assert not left_wins_moving_first(inst)


def test_reduction_two_vertex_graph():
    g = Graph.from_edges(2, [(0, 1)])
    inst = reduce_from_hampath(g, 0)
    assert inst.graph.vertex_count == 3
    assert inst.right_starts == (2,)
    assert inst.weights == {1: 1}
    assert left_wins_moving_first(inst)


def test_reduction_verdict_tracks_path_existence():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for start, has_path in [(0, True), (1, False), (2, False), (3, True)]:
        assert hampath_oracle(p4, start) is has_path
        assert left_wins_moving_first(reduce_from_hampath(p4, start)) is has_path


def test_path_oracles_agree_exhaustively():
    for n in range(1, 6):
        for g in connected_labeled_graphs(n):
            assert hampath_oracle(g) == hampath_by_permutations(g)
            for s in range(n):
                assert hampath_oracle(g, s) == hampath_by_permutations(g, s)


def test_bitmask_gadget_matches_the_reference_board():
    # one board for all berths: the reference less its graft edge (s, n),
    # which joins two vertices plundered at the root
    for n in range(1, 7):
        for g in connected_labeled_graphs(n):
            adj, wt, roots = gadget_board(g.adjacency_bits)
            assert len(roots) == n
            for s, (ships, others, plundered) in enumerate(roots):
                inst = reduce_from_hampath(g, s)
                reference = list(inst.graph.adjacency_bits)
                if n > 1:
                    reference[s] ^= 1 << n
                    reference[n] ^= 1 << s
                assert adj == reference
                masks = tuple(sum(1 << v for v in f) for f in (inst.left_starts, inst.right_starts))
                assert (ships, others) == masks
                assert plundered == sum(1 << v for v in inst.start_vertices)
                unplundered = [v for v in range(len(adj)) if not plundered >> v & 1]
                assert {v: wt[v] for v in unplundered} == inst.weights


def test_shared_gadget_search_matches_the_reference_route():
    # one search per graph, every berth a root on it, against a fresh
    # search of each berth's own grafted board
    for n in range(1, 6):
        for g in connected_labeled_graphs(n):
            adj, wt, roots = gadget_board(g.adjacency_bits)
            search = Search(adj, wt, DEFAULT_NODE_BUDGET)
            for s, root in enumerate(roots):
                shared = search.value(*root, 0, 1) >= 1
                assert shared is left_wins_moving_first(reduce_from_hampath(g, s)), (g, s)


def test_path_oracle_on_disconnected_graph():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not hampath_oracle(g)
    assert not hampath_by_permutations(g)


def test_path_oracle_budget():
    # the size caps refuse the input; no node is counted, so no budget is spent
    with pytest.raises(ValidationError) as exc:
        hampath_oracle(Graph(13, frozenset()))
    assert str(exc.value) == "path oracle supports at most 12 vertices, got 13"
    with pytest.raises(ValidationError) as exc:
        hampath_by_permutations(Graph(9, frozenset()))
    assert str(exc.value) == "permutation scan supports at most 8 vertices, got 9"


@pytest.mark.parametrize("oracle, cap", [(hampath_oracle, 12), (hampath_by_permutations, 8)])
@pytest.mark.parametrize("start", ["-1", "n", "99"])
def test_path_oracles_check_the_start_before_their_size_caps(oracle, cap, start):
    for n in (3, cap + 1):
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        s = n if start == "n" else int(start)
        with pytest.raises(ValidationError, match=f"^start {s} out of range$"):
            oracle(path, s)


def test_reduction_rejects_bad_berth():
    with pytest.raises(ValidationError):
        reduce_from_hampath(Graph.from_edges(2, [(0, 1)]), 2)


def test_grid_reductions():
    # 2x2 has corner-to-corner tours, 1x4 only works from the ends,
    # 3x3 works from the center but not from an edge midpoint
    cases = [
        (2, 2, (1, 1), True),
        (1, 4, (1, 1), True),
        (1, 4, (1, 2), False),
        (3, 3, (2, 2), True),
        (3, 3, (2, 1), False),
    ]
    for cols, rows, cell, has_path in cases:
        adj = grid_graph(cols, rows).adjacency_bits
        s = GridSpec(cols, rows).vertex_id(*cell)
        board, wt, roots = gadget_board(adj)
        left_wins = Search(board, wt, DEFAULT_NODE_BUDGET).value(*roots[s], 0, 1) >= 1
        assert left_wins is hampath_from(adj, s) is has_path
        # a path beside a planar graph keeps the board planar: at most 3n - 6 edges
        assert sum(b.bit_count() for b in board) // 2 <= 3 * len(board) - 6


def test_grid_path_facts():
    assert hampath_oracle(grid_graph(1, 4), 0)
    assert not hampath_oracle(grid_graph(1, 4), 1)
    center = 4
    assert hampath_oracle(grid_graph(3, 3), center)
    edge_mid = 1
    assert not hampath_oracle(grid_graph(3, 3), edge_mid)


# ---------------------------------------------------------------------------
# distinguishing contexts


def test_context_bait_is_one_more_than_the_positives():
    assert distinguishing_context(fig_half()).weight_of(1) == 3
    assert distinguishing_context(fig_ex()).weight_of(1) == 11


def test_context_needs_a_left_ship():
    with pytest.raises(ValidationError):
        distinguishing_context(fig_add_b())


def test_context_flips_left_first_sign():
    half = fig_half()
    assert final_scores(half).left_first == 1
    summed = solve_sum(sum_position([half, distinguishing_context(half)], L)).final_scores
    assert summed == (-2, -3)


def test_context_puts_board_and_empty_game_in_one_class():
    # the overweight context drags both the board and the empty game into
    # the same class, even though the Left-first scores differ in sign
    ctx = distinguishing_context(fig_half())
    both = solve_sum(sum_position([fig_half(), ctx], L)).final_scores
    alone = final_scores(ctx)
    assert classify(both) is classify(alone)
    sign = lambda v: (v > 0) - (v < 0)  # noqa: E731
    assert sign(both.left_first) != sign(alone.left_first)
