"""tritgame: exact analysis of a multi-party one-trit communication game.

k parties (k = 4, 7, 10, ...) each hold one trit and one bit; the bit
vectors are promised to contain a multiple of three zeros.  All parties
must make a referee learn a global trit function of the registers while
each transmits a single trit.  Sharing an entangled qutrit state lets them
succeed on every input; this package simulates that protocol exactly and,
on the classical side, computes the exact success probability of the best
one-trit strategies, which collapses toward 1/3 as the party count grows.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundRow,
    bound_A,
    bound_F,
    bound_L,
    bound_N,
    convergence_table,
)
from .classical import (
    DIVISION_NAMES,
    REGISTER_VALUES,
    Strategy,
    StrategyProfile,
    best_homogeneous,
    canonical_division,
    evaluate_collapsed,
    evaluate_exhaustive,
    evaluator_metrics,
    exhaustive_transcript_counts,
    ten_player_worked_example,
    strategy_groups,
    strategy_orbit_reps,
)
from .combinat import (
    binomial,
    grouped_sum,
    residue_row,
)
from .protocol import (
    DenseCounts,
    VerificationError,
    decode_batch,
    dense_pre_measurement_state,
    global_function_batch,
    run_analytic_batch,
    run_dense_batch,
    sample_admissible_batch,
    verify_class_stepping,
    zero_triples_mod3,
)
from .qudit import (
    LocalGate,
    QuditState,
    evolve,
    inverse_cdf,
    make_sum_class_state,
    permutation_gate,
    root_gate,
)

__all__ = [
    "__version__",
    # combinatorics
    "binomial", "grouped_sum", "residue_row",
    # qudit simulation
    "LocalGate", "QuditState", "evolve", "inverse_cdf", "make_sum_class_state",
    "permutation_gate", "root_gate",
    # protocol
    "DenseCounts", "VerificationError", "decode_batch", "dense_pre_measurement_state",
    "global_function_batch", "run_analytic_batch", "run_dense_batch", "sample_admissible_batch",
    "verify_class_stepping", "zero_triples_mod3",
    # classical analysis
    "DIVISION_NAMES", "REGISTER_VALUES", "Strategy", "StrategyProfile",
    "best_homogeneous", "canonical_division", "evaluate_collapsed",
    "evaluate_exhaustive", "evaluator_metrics", "exhaustive_transcript_counts",
    "ten_player_worked_example", "strategy_groups", "strategy_orbit_reps",
    # bounds
    "BoundRow", "bound_A", "bound_F", "bound_L", "bound_N", "convergence_table",
]
