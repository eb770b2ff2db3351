from __future__ import annotations

import dataclasses
import random
from itertools import accumulate

import pytest

from pirates_treasure import solver
from pirates_treasure.algebra import solve_sum, sum_apply, sum_legal_moves, sum_position
from pirates_treasure.engine import (
    Move,
    Player,
    Position,
    apply_move,
    initial_position,
    legal_moves,
)
from pirates_treasure.errors import BudgetExceededError, ValidationError
from pirates_treasure.fixtures import fig_ex, fig_ex1, fig_half
from pirates_treasure.model import Graph, Instance, random_instance
from pirates_treasure.solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Search,
    _union_state,
    classify,
    final_scores,
    greedy_score,
    left_wins_moving_first,
    minimax_final_score,
    solve,
)
from pirates_treasure.theory.reduction import gadget_board

L = Player.LEFT
R = Player.RIGHT


@pytest.mark.parametrize(
    "scores, expected",
    [
        ((1, 1), OutcomeClass.L),
        ((1, 0), OutcomeClass.L),
        ((0, 1), OutcomeClass.L),
        ((-1, -1), OutcomeClass.R),
        ((-1, 0), OutcomeClass.R),
        ((0, -1), OutcomeClass.R),
        ((1, -1), OutcomeClass.N),
        ((-1, 1), OutcomeClass.P),
        ((0, 0), OutcomeClass.TIE),
    ],
)
def test_classify_all_sign_pairs(scores, expected):
    assert classify(FinalScores(*scores)) is expected


def test_fig_ex_scores_and_class():
    report = solve(fig_ex())
    assert report.final_scores == FinalScores(2, 2)
    assert report.outcome is OutcomeClass.L
    assert report.nodes_expanded > 0


def test_fig_ex_best_first_moves():
    report = solve(fig_ex())
    assert report.best_first_moves_left == frozenset(
        {(0, Move(L, 0, 1)), (0, Move(L, 0, 2))}
    )
    assert report.best_first_moves_right == frozenset(
        {(0, Move(R, 0, 3)), (0, Move(R, 0, 4))}
    )


def test_fig_ex1_punishes_greed():
    inst = fig_ex1()
    assert final_scores(inst) == FinalScores(1, -1)
    assert greedy_score(inst, greedy_player=L, first_player=L) == -1
    report = solve(inst)
    # the greedy grab (the 3 next door) is not among the optimal openings
    assert report.best_first_moves_left == frozenset({(0, Move(L, 0, 1))})
    assert (0, Move(L, 0, 3)) not in report.best_first_moves_left


def test_greedy_never_beats_optimal():
    for seed in range(40):
        inst = random_instance(7, 0.5, (1, 5), 1, 1, seed=seed)
        fs = final_scores(inst)
        assert greedy_score(inst, L, L) <= fs.left_first
        assert greedy_score(inst, R, R) >= fs.right_first


def test_pv_replays_to_reported_score():
    for builder in (fig_ex, fig_ex1, fig_half):
        inst = builder()
        report = solve(inst)
        for first, line, expected in (
            (L, report.pv_left, report.final_scores.left_first),
            (R, report.pv_right, report.final_scores.right_first),
        ):
            pos = initial_position(inst, first)
            for move in line:
                pos = apply_move(pos, move)  # raises if illegal
            assert not legal_moves(pos)
            assert pos.score == expected


def test_pv_starts_with_lexicographically_first_best_move():
    report = solve(fig_ex())
    for pv, best in ((report.pv_left, report.best_first_moves_left),
                     (report.pv_right, report.best_first_moves_right)):
        assert (0, pv[0]) == min(best, key=lambda cm: cm[1].sort_key())


def test_initial_score_shifts_both_results():
    inst = fig_ex()
    shifted = dataclasses.replace(inst, initial_score=5)
    assert final_scores(shifted) == FinalScores(7, 7)
    negative = dataclasses.replace(inst, initial_score=-9)
    assert final_scores(negative) == FinalScores(-7, -7)


def test_stuck_first_mover_scores_zero():
    inst = Instance(Graph.from_edges(3, [(1, 2)]), {2: 1}, (0,), (1,))
    assert final_scores(inst) == FinalScores(0, -1)
    assert classify(final_scores(inst)) is OutcomeClass.R


def test_mixed_weights_admit_second_player_wins():
    # Forced bad grab each way: a single -1 pile between the ships.
    inst = Instance(Graph.from_edges(3, [(0, 1), (1, 2)]), {1: -1}, (0,), (2,))
    fs = final_scores(inst)
    assert fs == FinalScores(-1, 1)
    assert classify(fs) is OutcomeClass.P


def _corridor_boards() -> list[Instance]:
    """Paths and cycles on 2-7 vertices with fleets of 1-2 and seeded piles
    in -3..4: most of their states give the mover exactly one move."""
    rng = random.Random(8000)
    boards = []
    for n in range(2, 8):
        path = [(v, v + 1) for v in range(n - 1)]
        for edges in (path, path + [(0, n - 1)]) if n > 2 else (path,):
            for ls, rs in ((1, 1), (1, 2), (2, 1), (2, 2)):
                if ls + rs > n:
                    continue
                berths = rng.sample(range(n), ls + rs)
                weights = {v: rng.randint(-3, 4) for v in range(n) if v not in berths}
                boards.append(
                    Instance(Graph.from_edges(n, edges), weights, berths[:ls], berths[ls:])
                )
    return boards


def test_alpha_beta_matches_plain_minimax():
    boards = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        boards.append(random_instance(n, rng.uniform(0.3, 0.9), (-3, 4), 1, 1, seed=seed))
    for i, inst in enumerate(boards + _corridor_boards()):
        for first in (L, R):
            pos = initial_position(inst, first)
            fast = Search.of([inst], DEFAULT_NODE_BUDGET).root((pos,), pos.to_move)[0]
            assert fast == minimax_final_score(pos), f"board {i}, {first} first"


def test_forced_states_take_no_table_entry():
    # one ship at each end of a path: every move of both sides is forced, so
    # the search stores nothing and still scores as plain minimax
    rng = random.Random(8100)
    for n in range(2, 13):
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        inst = Instance(path, {v: rng.randint(-3, 4) for v in range(1, n - 1)}, (0,), (n - 1,))
        for first in (L, R):
            pos = initial_position(inst, first)
            search = Search.of([inst], DEFAULT_NODE_BUDGET)
            assert search.root((pos,), first)[0] == minimax_final_score(pos), f"n {n}"
            assert search.memo == {}, f"n {n}, {first} first"


def test_board_of_zero_piles_is_solved_unsearched():
    # every value is 0, so no root needs a search (the exact window
    # (1 - inf, inf - 1) is empty) and every move keeps the value
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    inst = Instance(graph, {1: 0, 3: 0}, (0,), (2,))
    report = solve(inst)
    assert report.final_scores == FinalScores(0, 0)
    for first, best in ((L, report.best_first_moves_left), (R, report.best_first_moves_right)):
        assert best == frozenset((0, m) for m in legal_moves(initial_position(inst, first)))
    assert report.nodes_expanded == 0
    search = Search.of([inst], budget=0)
    for first in (L, R):
        assert search.root([initial_position(inst, first)], first)[0] == 0
    assert search.nodes == 0
    assert final_scores(inst, budget=0) == FinalScores(0, 0)


def test_report_packs_each_root_once(monkeypatch):
    # one packed root per first mover: the best moves and the variation step
    # to packed children instead of packing their positions again
    packed = []
    monkeypatch.setattr(solver, "_union_state", lambda *a: packed.append(a) or _union_state(*a))
    report = solve_sum(sum_position([fig_ex(), fig_half(), fig_ex1()], L))
    assert (len(packed), report.nodes_expanded) == (2, 1230)
    packed.clear()
    report = solve(fig_ex())
    assert (len(packed), report.nodes_expanded) == (2, 58)


def test_a_lower_bound_entry_raises_alpha():
    # a 6-vertex draw whose node count moves when a lower-bound
    # table hit stops raising alpha: 39 nodes without the raise
    report = solve(random_instance(6, 0.7, (1, 4), 1, 1, seed=257))
    assert report.final_scores == FinalScores(3, -5)
    assert report.nodes_expanded == 42


def test_gadget_on_a_path_from_an_end_takes_no_table_entry():
    # Left walks the path while Right walks the fresh one: all forced
    for n in range(2, 13):
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        board, wt, (root, *_) = gadget_board(path.adjacency_bits)
        search = Search(board, wt, DEFAULT_NODE_BUDGET)
        assert search.value(*root, 0, 1) >= 1, f"n {n}"
        assert search.memo == {}, f"n {n}"


def test_forced_and_stuck_states_count_against_the_budget():
    # the gadget on a 12-vertex path from an end has only forced and stuck
    # states: 22 of them, each counted and checked against the budget
    path = Graph.from_edges(12, [(v, v + 1) for v in range(11)])
    board, wt, (root, *_) = gadget_board(path.adjacency_bits)
    with pytest.raises(BudgetExceededError):
        Search(board, wt, 21).value(*root, 0, 1)
    search = Search(board, wt, 22)
    assert search.value(*root, 0, 1) >= 1
    assert search.nodes == 22


class _Recording(Search):
    """A search that records, in order, the children its root visits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.depth = 0
        self.children = []

    def value(self, ships, others, visited, alpha, beta):
        if self.depth == 1:
            self.children.append((others, visited))
        self.depth += 1
        try:
            return super().value(ships, others, visited, alpha, beta)
        finally:
            self.depth -= 1


@pytest.mark.parametrize("stuck", [0, 1, -1])
@pytest.mark.parametrize("fleet", [1, 2, 3])
def test_moves_are_tried_by_pile_then_ship_then_target(fleet, stuck):
    # the order of a stable sort, highest pile first, of the moves generated
    # ship by ship and target by target; under stuck = ±1 every pile is 0
    shared_tiers = 0
    for seed in range(12):
        inst = random_instance(10, 0.5, (-2, 2), fleet, 2, seed=seed)
        piles = [0] * 10 if stuck else inst.pile_values
        for first in (L, R):
            pos = initial_position(inst, first)
            ships, others, visited = root = _union_state((pos,), first)
            search = _Recording.of([inst], DEFAULT_NODE_BUDGET, stuck=stuck)
            wide = search.inf + 1  # no cutoff at the root: every child is tried
            search.value(*root, -wide, wide)
            tried = [
                ((ships & ~moved).bit_length() - 1, (seen ^ visited).bit_length() - 1)
                for moved, seen in search.children
            ]
            generated = [
                (at, to)
                for at in pos.ships_of(first)
                for to in range(10)
                if inst.graph.adjacency_bits[at] >> to & 1 and not visited >> to & 1
            ]
            assert tried == sorted(generated, key=lambda move: -piles[move[1]]), (seed, first)
            movers = {}
            for at, to in generated:
                movers.setdefault(piles[to], set()).add(at)
            shared_tiers += any(len(ships_at) > 1 for ships_at in movers.values())
    # the order of two ships' moves of one pile is pinned too
    assert shared_tiers > 0


def test_two_ship_fleets_agree_with_minimax():
    for seed in range(20):
        inst = random_instance(7, 0.6, (1, 3), 2, 1, seed=1000 + seed)
        pos = initial_position(inst, L)
        fast = Search.of([inst], DEFAULT_NODE_BUDGET).root((pos,), pos.to_move)[0]
        assert fast == minimax_final_score(pos)


def test_decision_form_matches_full_solve():
    for seed in range(40):
        inst = random_instance(6, 0.5, (-2, 4), 1, 1, seed=2000 + seed)
        assert left_wins_moving_first(inst) == (final_scores(inst).left_first > 0)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError) as err:
        solve(fig_ex(), budget=3)
    assert "3" in str(err.value)
    with pytest.raises(BudgetExceededError):
        minimax_final_score(initial_position(fig_ex(), L), budget=5)


def test_solver_shares_transpositions_across_roots():
    # one searcher answers both first-mover questions; the second root
    # reuses entries from the first, so the total node count stays small
    report = solve(fig_ex())
    assert report.nodes_expanded < 200


def _random_fleet_board(seed: int) -> Instance:
    """Seeded board with 1-2 ships a side, negative values and a nonzero
    banked score."""
    rng = random.Random(seed)
    ls, rs = rng.randint(1, 2), rng.randint(1, 2)
    n = rng.randint(ls + rs, 7)
    inst = random_instance(n, rng.uniform(0.3, 0.9), (-3, 4), ls, rs, seed=seed)
    return dataclasses.replace(inst, initial_score=rng.choice([-3, -2, -1, 1, 2, 3]))


def _reaches(search: Search, positions, mover: Player, target: int) -> bool:
    """Does the final score from ``positions`` reach ``target``?  One
    zero-window search of the packed root, in the mover's frame."""
    root = _union_state(positions, mover)
    banked = 0 if search.stuck else sum(p.score for p in positions)
    if mover is L:
        t = target - banked
        return search.value(*root, t - 1, t) >= t
    t = banked - target
    return search.value(*root, t, t + 1) <= t


def test_left_wins_matches_sign_of_final_score():
    # the zero-width window must sit at the banked score, from either mover
    for seed in range(300):
        inst = _random_fleet_board(3000 + seed)
        # Left's play adds v to the banked score: bank each score around -v
        v = final_scores(inst).left_first - inst.initial_score
        for banked in range(-v - 2, -v + 3):
            shifted = dataclasses.replace(inst, initial_score=banked)
            wins = left_wins_moving_first(shifted, 10**6)
            assert wins == (banked + v > 0), f"seed {seed}, banked {banked}"
        for stuck in (0, -1, 1):
            for first in (L, R):
                roots = [initial_position(inst, first)]
                exact = Search.of([inst], 10**6, stuck=stuck).root(roots, first)[0]
                wins = _reaches(Search.of([inst], 10**6, stuck=stuck), roots, first, 1)
                assert wins == (exact > 0), f"seed {seed}, stuck {stuck}, {first} first"


def test_zero_window_values_match_thresholds_of_final_score():
    # each threshold in a fresh table, then all of them through one shared table
    boards = [_random_fleet_board(5000 + seed) for seed in range(120)] + _corridor_boards()
    for i, inst in enumerate(boards):
        for stuck in (0, -1, 1):
            for first in (L, R):
                roots = [initial_position(inst, first)]
                exact = Search.of([inst], 10**6, stuck=stuck).root(roots, first)[0]
                shared = Search.of([inst], 10**6, stuck=stuck)
                for t in range(exact - 2, exact + 3):
                    why = f"board {i}, stuck {stuck}, {first} first, target {t}"
                    fresh = Search.of([inst], 10**6, stuck=stuck)
                    assert _reaches(fresh, roots, first, t) == (exact >= t), why
                    assert _reaches(shared, roots, first, t) == (exact >= t), why


def _minimax_children(pos: Position) -> tuple[list[tuple[Move, int]], int]:
    """Every legal move with its child's minimax score, and the optimum."""
    values = [(m, minimax_final_score(apply_move(pos, m))) for m in legal_moves(pos)]
    best = (max if pos.to_move is L else min)(v for _, v in values)
    return values, best


def _assert_report_matches_minimax(inst: Instance, report, why: str) -> None:
    """Best moves: every move whose child keeps the optimum; each PV step:
    the optimal move with the lowest (ship, target vertex)."""
    for first, best, pv in (
        (L, report.best_first_moves_left, report.pv_left),
        (R, report.best_first_moves_right, report.pv_right),
    ):
        pos = initial_position(inst, first)
        if not legal_moves(pos):
            assert best == frozenset() and pv == ()
            continue
        values, opt = _minimax_children(pos)
        assert best == frozenset((0, m) for m, v in values if v == opt), why
        for step, move in enumerate(pv):
            values, opt = _minimax_children(pos)
            expected = min((m for m, v in values if v == opt), key=Move.sort_key)
            assert move == expected, f"{why}, {first} first, step {step}"
            pos = apply_move(pos, move)
        assert not legal_moves(pos), f"{why}, {first} first: variation stops early"


def test_best_moves_and_variations_match_minimax():
    boards = [_random_fleet_board(6000 + seed) for seed in range(150)] + _corridor_boards()
    for i, inst in enumerate(boards):
        _assert_report_matches_minimax(inst, solve(inst), f"board {i}")


def test_sum_best_moves_match_full_window_values():
    # the zero-window sum report against every child valued in a fresh table
    for seed in range(120):
        rng = random.Random(7000 + seed)
        boards = [_random_fleet_board(rng.randrange(10**6)) for _ in range(rng.randint(1, 3))]
        for first in (L, R):
            sp = sum_position(boards, first)
            report = solve_sum(sp)
            best = report.best_first_moves_left if first is L else report.best_first_moves_right
            values = []
            for sm in sum_legal_moves(sp):
                child = sum_apply(sp, sm)
                search = Search.of([c.instance for c in child.components], 10**6)
                values.append((sm, search.root(child.components, child.to_move)[0]))
            if not values:
                assert best == frozenset()
                continue
            opt = (max if first is L else min)(v for _, v in values)
            assert best == frozenset(m for m, v in values if v == opt), f"seed {seed}, {first}"


def _greedy_reference(pos: Position, greedy_player: Player) -> int:
    """Plain recursion over positions: the greedy side takes the most
    valuable pile (then lowest vertex id, then lowest ship index), the
    other side plays minimax."""
    moves = legal_moves(pos)
    if not moves:
        return pos.score
    if pos.to_move is greedy_player:
        weight = pos.instance.weight_of
        grab = min(moves, key=lambda m: (-weight(m.to), m.to, m.ship))
        return _greedy_reference(apply_move(pos, grab), greedy_player)
    results = [_greedy_reference(apply_move(pos, m), greedy_player) for m in moves]
    return max(results) if pos.to_move is L else min(results)


def test_greedy_score_matches_position_reference():
    for seed in range(150):
        inst = _random_fleet_board(4000 + seed)
        for greedy in (L, R):
            for first in (L, R):
                expected = _greedy_reference(initial_position(inst, first), greedy)
                got = greedy_score(inst, greedy, first)
                assert got == expected, f"seed {seed}, greedy {greedy}, {first} first"


def test_greedy_budget_counts_the_whole_playout_tree(monkeypatch):
    inst = random_instance(8, 0.7, (1, 3), 1, 1, seed=3)
    assert greedy_score(inst, R, L, budget=120) == 4
    with pytest.raises(BudgetExceededError, match="^greedy playout exceeded node budget of 119$"):
        greedy_score(inst, R, L, budget=119)
    # one node per position the rules-level reference visits
    visits = []
    reference = _greedy_reference

    def counted(pos, greedy_player):
        visits.append(pos)
        return reference(pos, greedy_player)

    monkeypatch.setitem(globals(), "_greedy_reference", counted)
    assert counted(initial_position(inst, L), R) == 4
    assert len(visits) == 120


def _side_by_side(boards) -> Instance:
    """The boards as one disconnected board, each shifted past the ones
    before it: the union the kernel packs, built without it."""
    edges, weights, lefts, rights = [], {}, [], []
    offset = 0
    for inst in boards:
        edges += [(u + offset, v + offset) for u, v in inst.graph.edges]
        weights.update({v + offset: w for v, w in inst.weights.items()})
        lefts += [v + offset for v in inst.left_starts]
        rights += [v + offset for v in inst.right_starts]
        offset += inst.graph.vertex_count
    score = sum(inst.initial_score for inst in boards)
    return Instance(Graph.from_edges(offset, edges), weights, tuple(lefts), tuple(rights), score)


def test_three_ship_fleets_match_minimax():
    # fleets of 3 a side, one more than the other minimax checks draw
    for seed in range(120):
        rng = random.Random(8000 + seed)
        inst = random_instance(rng.randint(7, 10), rng.uniform(0.3, 0.9), (-3, 4), 3, 3, seed=seed)
        inst = dataclasses.replace(inst, initial_score=rng.choice([-2, 0, 2]))
        expected = FinalScores(
            *(minimax_final_score(initial_position(inst, first)) for first in (L, R))
        )
        assert final_scores(inst) == expected, f"seed {seed}"
        report = solve(inst)
        assert report.final_scores == expected, f"seed {seed}"
        _assert_report_matches_minimax(inst, report, f"seed {seed}")


def test_multi_ship_sums_match_minimax_on_the_union():
    # 2-3 components with fleets of 2 a side: up to 6 ships a side in the union
    for seed in range(120):
        rng = random.Random(9000 + seed)
        count = rng.randint(2, 3)
        boards = [
            random_instance(rng.randint(4, 7 if count == 2 else 6), rng.uniform(0.3, 0.9),
                            (-3, 4), 2, 2, seed=rng.randrange(10**6))
            for _ in range(count)
        ]
        union = _side_by_side(boards)
        expected = FinalScores(
            *(minimax_final_score(initial_position(union, first)) for first in (L, R))
        )
        assert final_scores(*boards) == expected, f"seed {seed}"
        report = solve(union)
        assert report.final_scores == expected, f"seed {seed}"
        _assert_report_matches_minimax(union, report, f"seed {seed}")
        # a sum move (component, move) is the union's move of the same ship:
        # each component before it adds 2 to the ship index and its vertices
        # to the vertex
        offsets = [0, *accumulate(b.graph.vertex_count for b in boards)]
        summed = solve_sum(sum_position(boards, L))
        assert summed.final_scores == expected, f"seed {seed}"
        for sum_best, best in (
            (summed.best_first_moves_left, report.best_first_moves_left),
            (summed.best_first_moves_right, report.best_first_moves_right),
        ):
            as_union = {
                (0, Move(m.player, 2 * ci + m.ship, offsets[ci] + m.to)) for ci, m in sum_best
            }
            assert as_union == best, f"seed {seed}"


def test_two_ships_of_one_fleet_on_one_vertex_are_rejected():
    # validate() rejects this board; one built around it must not be solved
    # as if one of the two ships were missing, nor both played, by the
    # kernel or by the reference routes, which check the fleets themselves
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    inst = Instance(path, {1: 1, 2: 2}, left_starts=(0, 0), right_starts=(3,))
    calls = [
        lambda: final_scores(inst),
        lambda: solve(inst),
        lambda: solve_sum(sum_position([inst], L)),
        lambda: solve_sum(sum_position([fig_ex(), inst], R)),
        lambda: minimax_final_score(initial_position(inst, L)),
        lambda: minimax_final_score(initial_position(inst, R)),
        lambda: greedy_score(inst, L, L),
        lambda: greedy_score(inst, R, L),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^two ships share vertex 0$"):
            call()

