"""Turn mechanics: positions, legal moves, move application, termination.

A move slides one of the mover's ships along an edge to an unplundered
vertex and banks its treasure (Left adds, Right subtracts, so the score is
always Left's lead).  The game is over as soon as the player whose turn it
is has no move anywhere; the opponent's remaining mobility is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import IllegalMoveError
from .model import Instance


class Player(Enum):
    LEFT = "L"
    RIGHT = "R"

    @property
    def opponent(self) -> Player:
        return Player.RIGHT if self is Player.LEFT else Player.LEFT

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Move:
    """One ship slide.  ``ship`` is the index within the owner's fleet."""

    player: Player
    ship: int
    to: int

    def sort_key(self) -> tuple[int, int]:
        return (self.ship, self.to)


@dataclass(frozen=True)
class Position:
    instance: Instance
    left_ships: tuple[int, ...]
    right_ships: tuple[int, ...]
    visited: frozenset[int]
    score: int
    to_move: Player

    __hash__ = None  # type: ignore[assignment]

    def ships_of(self, player: Player) -> tuple[int, ...]:
        return self.left_ships if player is Player.LEFT else self.right_ships


def initial_position(inst: Instance, first_player: Player) -> Position:
    """Start-of-game position: berths plundered, score at the board's score."""
    return Position(
        instance=inst,
        left_ships=inst.left_starts,
        right_ships=inst.right_starts,
        visited=inst.start_vertices,
        score=inst.initial_score,
        to_move=first_player,
    )


def moves_for(pos: Position, player: Player) -> list[Move]:
    """All slides ``player`` could make, whoever is actually to move.

    Deterministic order: by ship index, then target vertex.
    """
    adj = pos.instance.graph.adjacency_bits
    out = []
    for ship, at in enumerate(pos.ships_of(player)):
        bits = adj[at]
        for to in range(bits.bit_length()):
            if bits >> to & 1 and to not in pos.visited:
                out.append(Move(player, ship, to))
    return out


def legal_moves(pos: Position) -> list[Move]:
    return moves_for(pos, pos.to_move)


def apply_move(pos: Position, move: Move) -> Position:
    """Apply a legal move; raises IllegalMoveError otherwise."""
    if move.player is not pos.to_move:
        raise IllegalMoveError(f"it is {pos.to_move}'s turn, not {move.player}'s")
    ships = pos.ships_of(move.player)
    if not 0 <= move.ship < len(ships):
        raise IllegalMoveError(f"{move.player} has no ship {move.ship}")
    at = ships[move.ship]
    if move.to in pos.visited:
        raise IllegalMoveError(f"vertex {move.to} is already plundered")
    if move.to < 0 or not pos.instance.graph.adjacency_bits[at] >> move.to & 1:
        raise IllegalMoveError(f"no edge from {at} to {move.to}")
    new_ships = ships[: move.ship] + (move.to,) + ships[move.ship + 1 :]
    kwargs = {
        "visited": pos.visited | {move.to},
        "score": pos.score + score_delta(pos, move),
        "to_move": pos.to_move.opponent,
    }
    if move.player is Player.LEFT:
        return replace(pos, left_ships=new_ships, **kwargs)
    return replace(pos, right_ships=new_ships, **kwargs)


def score_delta(pos: Position, move: Move) -> int:
    """Signed score change the move would bank (positive favors Left)."""
    gain = pos.instance.weight_of(move.to)
    return gain if move.player is Player.LEFT else -gain


def format_move(pos: Position, move: Move) -> str:
    """Render e.g. ``L: 3->1 (+4)``; the ship index appears only for fleets."""
    at = pos.ships_of(move.player)[move.ship]
    delta = score_delta(pos, move)
    who = str(move.player)
    if len(pos.ships_of(move.player)) > 1:
        who += str(move.ship)
    return f"{who}: {at}->{move.to} ({delta:+d})"
