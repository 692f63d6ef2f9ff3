"""Transformed-linear analysis of multivariate extremes.

Estimation of the tail pairwise dependence matrix, transformed-linear
prediction via projection, partial tail correlation, a residual-based test
for zero partial tail correlation, and extremal graph output.

The package needs numpy alone.  Names are exported lazily (PEP 562):
``import tailgraph`` loads no submodule, and ``tailgraph.X`` or ``from
tailgraph import X`` imports the module that defines X on first use, so a
command loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it defines
    "errors": ("ConditioningError", "DataError", "DegenerateMarginError",
               "DegenerateProjectionError", "DegenerateVarianceError", "DimensionError",
               "DomainError", "InsufficientExceedancesError", "NumericalError",
               "TailgraphError"),
    "graphx": ("ExtremalGraph", "build_graph", "emit_dot", "graph_from_stats", "to_adjacency"),
    "inference": ("CoverageResult", "ResidualSample", "confidence_interval", "coverage_study",
                  "critical_value", "estimate_sigma_u", "estimate_tau2", "ptc_test_all_pairs",
                  "residuals", "size_power_study", "t_statistic"),
    "project": ("Partition", "conditional_ipm", "invert_ipm", "predict", "project_onto_span",
                "ptc", "ptc_from_inverse", "ptc_matrix", "solve_b"),
    "report": ("PairRecord", "PtcTestReport"),
    "rvsim": ("AngularPointMass", "angular_points", "ar1_matrix", "construct", "sample_noise",
              "theoretical_ipm", "theoretical_tpdm"),
    "tpdm": ("IPMatrix", "TailSample", "estimate_mass", "estimate_sigma_pair", "estimate_tpdm",
             "marginal_transform", "polar2", "solve_delta"),
    "xlinear": ("LOG2", "softplus", "softplus_inv", "tadd", "tail_ratio", "tmatmul", "tscale",
                "zero_clip"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:  # importing binds it, so this runs once per submodule
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
