from __future__ import annotations

import pytest

from pirates_treasure.engine import (
    Move,
    Player,
    apply_move,
    format_move,
    initial_position,
    legal_moves,
    moves_for,
    score_delta,
)
from pirates_treasure.errors import IllegalMoveError
from pirates_treasure.fixtures import fig_ex
from pirates_treasure.model import Graph, Instance


def test_player_basics():
    assert Player.LEFT.opponent is Player.RIGHT
    assert Player.RIGHT.opponent is Player.LEFT
    assert str(Player.LEFT) == "L"


def test_initial_position_marks_berths_plundered():
    pos = initial_position(fig_ex(), Player.LEFT)
    assert pos.left_ships == (0,)
    assert pos.right_ships == (5,)
    assert pos.visited == frozenset({0, 5})
    assert pos.score == 0
    assert pos.to_move is Player.LEFT


def test_moves_ordered_by_ship_then_target():
    pos = initial_position(fig_ex(), Player.LEFT)
    assert legal_moves(pos) == [Move(Player.LEFT, 0, 1), Move(Player.LEFT, 0, 2)]
    assert moves_for(pos, Player.RIGHT) == [
        Move(Player.RIGHT, 0, 3),
        Move(Player.RIGHT, 0, 4),
    ]


def test_apply_move_bookkeeping():
    pos = initial_position(fig_ex(), Player.LEFT)
    nxt = apply_move(pos, Move(Player.LEFT, 0, 1))
    assert nxt.left_ships == (1,)
    assert nxt.right_ships == (5,)
    assert nxt.visited == frozenset({0, 1, 5})
    assert nxt.score == 4
    assert nxt.to_move is Player.RIGHT
    # original untouched
    assert pos.left_ships == (0,) and pos.score == 0

    after = apply_move(nxt, Move(Player.RIGHT, 0, 3))
    assert after.score == 4 - 3
    assert after.right_ships == (3,)


def test_illegal_moves_rejected():
    pos = initial_position(fig_ex(), Player.LEFT)
    with pytest.raises(IllegalMoveError):
        apply_move(pos, Move(Player.RIGHT, 0, 3))  # not Right's turn
    with pytest.raises(IllegalMoveError):
        apply_move(pos, Move(Player.LEFT, 1, 1))  # no such ship
    with pytest.raises(IllegalMoveError):
        apply_move(pos, Move(Player.LEFT, 0, 5))  # already plundered
    with pytest.raises(IllegalMoveError):
        apply_move(pos, Move(Player.LEFT, 0, 3))  # no edge 0-3
    for off_board in (-1, 99):
        with pytest.raises(IllegalMoveError, match=f"no edge from 0 to {off_board}"):
            apply_move(pos, Move(Player.LEFT, 0, off_board))


def test_stuck_mover_ends_game_even_if_opponent_could_move():
    # Left's berth is isolated; Right still has a move, but with Left to
    # move the game is over on the spot.
    inst = Instance(Graph.from_edges(3, [(1, 2)]), {2: 1}, (0,), (1,))
    left_first = initial_position(inst, Player.LEFT)
    assert not legal_moves(left_first)
    right_first = initial_position(inst, Player.RIGHT)
    assert legal_moves(right_first)


def test_score_delta_signs():
    pos = initial_position(fig_ex(), Player.LEFT)
    assert score_delta(pos, Move(Player.LEFT, 0, 1)) == 4
    assert score_delta(pos, Move(Player.RIGHT, 0, 3)) == -3


def test_format_move_single_ship():
    pos = initial_position(fig_ex(), Player.LEFT)
    assert format_move(pos, Move(Player.LEFT, 0, 1)) == "L: 0->1 (+4)"
    assert format_move(pos, Move(Player.RIGHT, 0, 3)) == "R: 5->3 (-3)"


def test_format_move_fleet_shows_ship_index():
    inst = Instance(
        Graph.from_edges(4, [(0, 2), (1, 2), (2, 3)]), {2: 5}, (0, 1), (3,)
    )
    pos = initial_position(inst, Player.LEFT)
    assert format_move(pos, Move(Player.LEFT, 1, 2)) == "L1: 1->2 (+5)"


def test_move_sort_key():
    moves = [Move(Player.LEFT, 1, 0), Move(Player.LEFT, 0, 3), Move(Player.LEFT, 0, 1)]
    assert sorted(moves, key=Move.sort_key) == [
        Move(Player.LEFT, 0, 1),
        Move(Player.LEFT, 0, 3),
        Move(Player.LEFT, 1, 0),
    ]
