"""The package's lazy exports: every public name resolves as an eager import would."""

import importlib
import os
import subprocess
import sys

import pytest

import tailgraph

# The export list of the eager package, module by module.
EXPORTS = {
    "errors": ["ConditioningError", "DataError", "DegenerateMarginError",
               "DegenerateProjectionError", "DegenerateVarianceError", "DimensionError",
               "DomainError", "InsufficientExceedancesError", "NumericalError", "TailgraphError"],
    "graphx": ["ExtremalGraph", "build_graph", "emit_dot", "graph_from_stats", "to_adjacency"],
    "inference": ["CoverageResult", "PairRecord", "PtcTestReport", "ResidualSample",
                  "confidence_interval", "coverage_study", "critical_value", "estimate_sigma_u",
                  "estimate_tau2", "ptc_test_all_pairs", "residuals", "size_power_study",
                  "t_statistic"],
    "project": ["Partition", "conditional_ipm", "invert_ipm", "predict", "project_onto_span",
                "ptc", "ptc_from_inverse", "ptc_matrix", "solve_b"],
    "rvsim": ["AngularPointMass", "angular_points", "ar1_matrix", "construct", "sample_noise",
              "theoretical_ipm", "theoretical_tpdm"],
    "tpdm": ["IPMatrix", "TailSample", "estimate_mass", "estimate_sigma_pair", "estimate_tpdm",
             "marginal_transform", "polar2", "solve_delta"],
    "xlinear": ["LOG2", "softplus", "softplus_inv", "tadd", "tail_ratio", "tmatmul", "tscale",
                "zero_clip"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_eager_name_is_listed():
    assert len(NAMES) == 60
    assert sorted(tailgraph.__all__) == sorted(name for _, name in NAMES)
    assert {name for _, name in NAMES} <= set(dir(tailgraph))


@pytest.mark.parametrize("module,name", NAMES)
def test_name_is_the_module_attribute(module, name):
    assert getattr(tailgraph, name) is getattr(importlib.import_module(f"tailgraph.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from tailgraph import *", namespace)
    assert all(namespace[name] is getattr(tailgraph, name) for _, name in NAMES)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        tailgraph.bogus
    assert not hasattr(tailgraph, "bogus")


def test_submodule_after_bare_import():
    """In a fresh interpreter, ``import tailgraph`` loads no submodule, and a
    submodule or an exported name loads its module on first use."""
    script = """
import sys
import tailgraph
assert not [m for m in sys.modules if m.startswith("tailgraph.")], sys.modules
assert tailgraph.inference.ptc_test_all_pairs is tailgraph.ptc_test_all_pairs
assert tailgraph.cli.main is sys.modules["tailgraph.cli"].main
from tailgraph import PtcTestReport
assert PtcTestReport is tailgraph.report.PtcTestReport
"""
    src = os.path.dirname(os.path.dirname(tailgraph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
