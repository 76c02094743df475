"""Finite-dimensional rounding of almost-synchronous game strategies.

Synchronous non-local games, tensor-split commuting strategies, the
scaling-fiber model of non-commutative L_p spaces over matrix algebras,
and the pipeline that rounds an almost-synchronous commuting strategy
into a tracial one with certified distance and value bounds.
"""

from .games import (
    CorrelationTable,
    GameFormatError,
    SynchronousGame,
    game_value,
    graph_coloring_game,
    load_game,
    save_game,
    table_l1_distance,
)
from .haagerup import (
    CommutatorCertificate,
    ConnesCertificate,
    JointSpectralMeasure,
    MeasureMoments,
    commutator_certificate,
    connes_certificate,
    joint_spectral_measure,
    lp_duality_check,
    measure_moments,
    threshold_chi_distance,
    threshold_integral,
)
from .rounding import (
    CornerDecomposition,
    CornerRounding,
    DualDistanceReport,
    OrthogonalizationReport,
    RoundingCertificate,
    RoundingResult,
    corner_correlation,
    corner_decomposition,
    orthogonalize_povm,
    round_b_sides,
    round_corners,
    round_strategy,
    symmetrized_correlation,
    verify_dual_distance,
)
from .spectral import (
    SpectralDecomposition,
    eigh,
    functional_calculus,
    svd,
)
from .strategies import (
    CommutingStrategy,
    PVMStack,
    SeesawResult,
    StandardForm,
    TracialBlock,
    TracialStrategy,
    conjugate_synchronous_strategy,
    correlation_of_commuting,
    cyclic_coloring_strategy,
    dump_commuting_strategy,
    dump_tracial_strategy,
    load_commuting_strategy,
    load_tracial_strategy,
    maximally_entangled_state,
    perturb_b_side,
    perturb_b_sides,
    purify,
    reduced_density,
    seesaw_optimize,
    standard_form_dual,
    synchronicity_deficit,
    tracial_correlation,
)

__version__ = "0.1.0"
