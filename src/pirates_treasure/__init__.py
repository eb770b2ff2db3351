"""Pirates and Treasure: exact play and game algebra on graph boards.

Two fleets race over a graph collecting vertex treasure; the final score
is Left's haul minus Right's, and the game stops the instant the player
to move is stuck.  This package gives the board model and file format
(:mod:`.model`), turn mechanics (:mod:`.engine`), an exact solver
(:mod:`.solver`), game-tree algebra with negation and disjunctive sums
(:mod:`.algebra`), and a verification lab for the structural results
about these games (:mod:`.theory`).
"""

from .algebra import (
    GameTree,
    SumMove,
    SumPosition,
    extract_tree,
    leaf,
    negate_instance,
    negate_tree,
    render_tree,
    sum_apply,
    sum_legal_moves,
    sum_position,
    solve_sum,
    sum_trees,
    tree_final_scores,
)
from .engine import (
    Move,
    Player,
    Position,
    apply_move,
    format_move,
    initial_position,
    legal_moves,
    moves_for,
)
from .errors import (
    BudgetExceededError,
    IllegalMoveError,
    ParseError,
    ValidationError,
)
from .model import (
    Graph,
    GridSpec,
    Instance,
    grid_graph,
    make_grid,
    parse_graph,
    parse_instance,
    random_instance,
    serialize_graph,
    serialize_instance,
    validate,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    FinalScores,
    OutcomeClass,
    Report,
    classify,
    final_scores,
    greedy_score,
    left_wins_moving_first,
    minimax_final_score,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_NODE_BUDGET",
    "FinalScores",
    "GameTree",
    "Graph",
    "GridSpec",
    "IllegalMoveError",
    "Instance",
    "Move",
    "OutcomeClass",
    "ParseError",
    "Player",
    "Position",
    "Report",
    "SumMove",
    "SumPosition",
    "ValidationError",
    "apply_move",
    "classify",
    "extract_tree",
    "final_scores",
    "format_move",
    "greedy_score",
    "grid_graph",
    "initial_position",
    "leaf",
    "left_wins_moving_first",
    "legal_moves",
    "make_grid",
    "minimax_final_score",
    "moves_for",
    "negate_instance",
    "negate_tree",
    "parse_graph",
    "parse_instance",
    "random_instance",
    "render_tree",
    "serialize_graph",
    "serialize_instance",
    "solve",
    "solve_sum",
    "sum_apply",
    "sum_legal_moves",
    "sum_position",
    "sum_trees",
    "tree_final_scores",
    "validate",
]
