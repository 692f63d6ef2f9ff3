"""The package's lazy exports: every public name resolves as an eager import
would, and every module uses what it imports.  README's library sketch runs,
every pytest target of the CI workflow collects a test, every source file
parses at the oldest supported Python, and no source statement throws away
what an argument rule read."""

import ast
import importlib
import os
import re
import shlex
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


def test_cli_resolves_through_the_package_getattr():
    """``cli`` exports no name; the package's ``__getattr__`` still returns the
    module, whether or not an earlier import has bound it already."""
    assert tailgraph.__getattr__("cli") is importlib.import_module("tailgraph.cli")


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



_PACKAGE = os.path.dirname(tailgraph.__file__)
_MODULES = sorted(name[:-3] for name in os.listdir(_PACKAGE) if name.endswith(".py"))


@pytest.mark.parametrize("module", _MODULES)
def test_every_import_is_used(module):
    """Each name a module imports is used in it, listed in its ``__all__``, or
    imported by a statement marked ``# noqa: F401`` (kept for callers outside)."""
    with open(os.path.join(_PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        source = fh.read()
    lines, tree = source.splitlines(), ast.parse(source)
    loaded = tailgraph if module == "__init__" else importlib.import_module(f"tailgraph.{module}")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(loaded, "__all__", ()))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        unused += [f"{module}.py:{node.lineno}: {name}" for name in names if name not in used]
    assert not unused


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_sketch_runs(capsys):
    """README's "Library sketch" runs as written, so the example cannot go stale."""
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    assert capsys.readouterr().out.startswith("graph extremal {")


def _workflow_pytest_runs():
    """``{-k expression or None: [targets]}`` of every pytest command in the CI
    workflow: each argument that is not an option is a file or a node id."""
    with open(os.path.join(_ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")  # join continued shell lines
    runs = {}
    for line in text.splitlines():
        if "-m pytest" not in line:
            continue
        args, expression, targets = iter(shlex.split(line.split("-m pytest", 1)[1])), None, []
        for arg in args:
            if arg == "-k":
                expression = next(args)
            elif arg == "-W":
                next(args)  # a warning filter
            elif not arg.startswith("-"):
                targets.append(arg)
        known = runs.setdefault(expression, [])
        known += [t for t in targets if t not in known]
    return {expression: targets for expression, targets in runs.items() if targets}


_CI_RUNS = _workflow_pytest_runs()


@pytest.mark.parametrize("expression", list(_CI_RUNS), ids=lambda e: f"-k {e}" if e else "files")
def test_ci_pytest_targets_collect(expression):
    """Each file, node id and ``-k`` expression the workflow runs still collects a
    test here, so a renamed test fails tier-1 and not only on the CI runner."""
    targets = _CI_RUNS[expression]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(_ROOT, "src")] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *targets, *(["-k", expression] if expression else [])],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    empty = [t for t in targets
             if not any(line == t or line.startswith((t + "::", t + "[")) for line in collected)]
    assert not empty, proc.stdout


def _python_floor() -> tuple:
    """``(3, minor)`` of ``requires-python = ">=3.minor"`` in pyproject.toml (read
    with a pattern: ``tomllib`` is not in the 3.10 standard library)."""
    with open(os.path.join(_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        minor = re.search(r'^requires-python = ">=3\.(\d+)"$', fh.read(), re.MULTILINE).group(1)
    return 3, int(minor)


def test_sources_parse_at_the_oldest_supported_python():
    """Every ``.py`` file under src/, tests/ and perfbench/ parses with the grammar
    of the oldest Python that pyproject.toml supports, so syntax newer than the
    floor fails here and not only on that interpreter."""
    floor, checked = _python_floor(), 0
    for top in ("src", "tests", "perfbench"):
        for directory, _, files in os.walk(os.path.join(_ROOT, top)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fh:
                    ast.parse(fh.read(), filename=path, feature_version=floor)
                checked += 1
    assert floor >= (3, 10) and checked >= 20


# The argument rules that return what they read: a caller keeps the returned
# value, so the value it tested is the value used downstream.
_READING_RULES = {"check_unit_interval", "check_integer", "float_scalar", "check_positive",
                  "check_names", "check_sequence", "as_index", "as_real", "float_array",
                  "fixed_critical_value", "_check_estimate_args", "_read_mass", "square_matrix",
                  "as_sample", "as_matrix"}


def test_no_reading_rule_result_is_discarded():
    """No statement under src/ is a bare call of a reading rule: a read value
    thrown away leaves the raw argument (a numpy scalar, an unstripped name)
    to travel on, where a report or graph may not be able to write it."""
    bare = []
    for name in sorted(f for f in os.listdir(_PACKAGE) if f.endswith(".py")):
        with open(os.path.join(_PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in _READING_RULES:
                    bare.append(f"{name}:{node.lineno}: {called}")
    assert not bare
