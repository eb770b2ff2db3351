"""Verification lab: reductions, instance families, sweeps, conventions."""

from .conventions import (
    ConventionReport,
    convention_best_moves,
    convention_comparison,
    misere_outcome,
    normal_outcome,
)
from .families import (
    connected_labeled_graphs,
    distinguishing_context,
    enumerate_pt_negx,
    enumerate_ptx,
    random_pt_instance,
    random_ptx_instance,
    uniform_instance,
)
from .reduction import (
    hampath_by_permutations,
    hampath_oracle,
    reduce_from_hampath,
)
from .sweeps import (
    OUTCOME_TABLE,
    SweepReport,
    Violation,
    check_distinguishing,
    check_no_n_positions,
    check_no_p_positions,
    check_outcome_table,
    check_reduction_sweep,
    check_self_sum_tie,
    check_table_witnesses,
    outcome_table_cell,
)

__all__ = [
    "ConventionReport",
    "OUTCOME_TABLE",
    "SweepReport",
    "Violation",
    "check_distinguishing",
    "check_no_n_positions",
    "check_no_p_positions",
    "check_outcome_table",
    "check_reduction_sweep",
    "check_self_sum_tie",
    "check_table_witnesses",
    "connected_labeled_graphs",
    "convention_best_moves",
    "convention_comparison",
    "distinguishing_context",
    "enumerate_pt_negx",
    "enumerate_ptx",
    "hampath_by_permutations",
    "hampath_oracle",
    "misere_outcome",
    "normal_outcome",
    "outcome_table_cell",
    "random_pt_instance",
    "random_ptx_instance",
    "reduce_from_hampath",
    "uniform_instance",
]
