"""Transformed-linear analysis of multivariate extremes.

Estimation of the tail pairwise dependence matrix, transformed-linear
prediction via projection, partial tail correlation, a residual-based test
for zero partial tail correlation, and extremal graph output.
"""

from .errors import (
    ConditioningError,
    DataError,
    DegenerateMarginError,
    DegenerateProjectionError,
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    InsufficientExceedancesError,
    NumericalError,
    TailgraphError,
)
from .graphx import ExtremalGraph, build_graph, emit_dot, graph_from_stats, to_adjacency
from .inference import (
    CoverageResult,
    PairRecord,
    PtcTestReport,
    ResidualSample,
    confidence_interval,
    coverage_study,
    critical_value,
    estimate_sigma_u,
    estimate_tau2,
    ptc_test_all_pairs,
    residuals,
    size_power_study,
    t_statistic,
)
from .project import (
    ConditionalIPM,
    Partition,
    conditional_ipm,
    invert_ipm,
    predict,
    project_onto_span,
    ptc,
    ptc_from_inverse,
    ptc_matrix,
    solve_b,
)
from .rvsim import (
    AngularPointMass,
    RvNoiseSpec,
    angular_points,
    ar1_matrix,
    construct,
    sample_noise,
    theoretical_ipm,
    theoretical_tpdm,
)
from .tpdm import (
    IPMatrix,
    TailSample,
    estimate_mass,
    estimate_sigma_pair,
    estimate_tpdm,
    marginal_transform,
    polar2,
    solve_delta,
)
from .xlinear import (
    LOG2,
    softplus,
    softplus_inv,
    tadd,
    tail_ratio,
    tmatmul,
    tscale,
    zero_clip,
)

__version__ = "0.1.0"
