"""The input contract: every argument rule is checked where the argument enters
the library, and a wrong value gives a ``TailgraphError``, never a numpy
exception, a warning or a silently wrong answer."""

import copy
import inspect
import json
import os
import warnings
from decimal import Decimal
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tailgraph
from conftest import DATA_DIR
from tailgraph import (
    ConditioningError,
    DataError,
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    ExtremalGraph,
    InsufficientExceedancesError,
    IPMatrix,
    NumericalError,
    PairRecord,
    Partition,
    PtcTestReport,
    ResidualSample,
    TailSample,
    TailgraphError,
    angular_points,
    ar1_matrix,
    build_graph,
    conditional_ipm,
    confidence_interval,
    construct,
    coverage_study,
    critical_value,
    emit_dot,
    estimate_mass,
    estimate_sigma_pair,
    estimate_sigma_u,
    estimate_tau2,
    estimate_tpdm,
    graph_from_stats,
    invert_ipm,
    marginal_transform,
    predict,
    ptc,
    ptc_from_inverse,
    ptc_matrix,
    ptc_test_all_pairs,
    residuals,
    sample_noise,
    size_power_study,
    softplus,
    softplus_inv,
    solve_b,
    t_statistic,
    tadd,
    tail_ratio,
    theoretical_ipm,
    theoretical_tpdm,
    tmatmul,
    to_adjacency,
    tpdm,
    tscale,
    zero_clip,
)
from tailgraph.cli import _read_csv_checked, main
from tailgraph.project import project_onto_span, ptc_matrix_from_inverse
from tailgraph.report import check_records, fixed_critical_value

NAN_3X3 = np.full((3, 3), np.nan)
ASYMMETRIC = np.array([[2.0, 1.0, 0.2], [0.0, 2.0, 0.3], [0.2, 0.3, 2.0]])


class TestMatrixEntryPoints:
    """Each matrix function checks its input before ``eigvalsh`` or any product."""

    @pytest.mark.parametrize("fn", [
        invert_ipm, ptc_matrix, ptc_matrix_from_inverse, lambda G: ptc_from_inverse(G, 0, 1),
    ], ids=["invert_ipm", "ptc_matrix", "ptc_matrix_from_inverse", "ptc_from_inverse"])
    @pytest.mark.parametrize("G, error", [
        (np.ones((2, 3)), DimensionError),
        (np.ones(3), DimensionError),
        (NAN_3X3, DataError),
    ], ids=["2x3", "1-D", "NaN"])
    def test_bad_matrix_is_a_tailgraph_error(self, fn, G, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                fn(G)

    @pytest.mark.parametrize("fn", [
        invert_ipm, ptc_matrix, lambda G: ptc(G, 0, 1),
        lambda G: conditional_ipm(G, Partition.pair(0, 1, 3)),
        lambda G: solve_b(G, Partition.pair(0, 1, 3)),
        lambda G: ptc_from_inverse(G, 0, 1), ptc_matrix_from_inverse,
    ], ids=["invert_ipm", "ptc_matrix", "ptc", "conditional_ipm", "solve_b", "ptc_from_inverse",
            "ptc_matrix_from_inverse"])
    def test_plain_matrix_takes_the_ipmatrix_rule(self, fn):
        # each read one triangle of this matrix, or failed a check with a wrong reason
        with pytest.raises(DomainError, match="must be symmetric"):
            fn(ASYMMETRIC)

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 3), (-1, 1)])
    def test_pair_indices_follow_partition_pair(self, i, j):
        with pytest.raises(DomainError, match="two distinct indices inside the vector"):
            ptc_from_inverse(np.eye(3), i, j)

    def test_nonpositive_diagonal_of_an_inverse(self):
        G = np.array([[1.0, 0.2, 0.1], [0.2, -1.0, 0.3], [0.1, 0.3, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (ptc_matrix_from_inverse, lambda G: ptc_from_inverse(G, 1, 2)):
                with pytest.raises(TailgraphError, match="nonpositive diagonal"):
                    fn(G)

    def test_ipmatrix_converts_to_the_dtype_asked_for(self):
        gamma = IPMatrix([[1.0, 0.5], [0.5, 1.0]])
        arr = np.asarray(gamma, dtype=np.float32)
        assert arr.dtype == np.float32 and np.array_equal(arr, gamma.entries)

    def test_ipmatrix_refuses_non_finite_entries(self):
        with pytest.raises(DataError, match="must be finite"):
            IPMatrix(np.full((2, 2), np.inf))

    @pytest.mark.parametrize("cell", ["x", "A2"])
    def test_span_projection_refuses_non_finite_input(self, cell):
        x, A2 = np.array([1.0, 2.0, 3.0]), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        (x if cell == "x" else A2)[1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="must be finite"):
                project_onto_span(x, A2)


def test_pair_estimate_refuses_non_finite_input():
    x = construct(ar1_matrix(0.7, 2), sample_noise(2, 500, seed=1))
    a = x[:, 0].copy()
    a[7] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="finite"):
            estimate_sigma_pair(a, x[:, 1])


class TestEstimateArguments:
    """``estimate_tpdm`` checks q and the mass on entry, in both modes."""

    @pytest.fixture(scope="class")
    def sample(self):
        return TailSample(construct(ar1_matrix(0.7, 3), sample_noise(3, 600, seed=2)))

    @pytest.mark.parametrize("mode", ["global", "pairwise"])
    @pytest.mark.parametrize("kwargs, match", [
        ({"q_radial": 1.0}, "q_radial must lie in"),
        ({"q_radial": np.nan}, "q_radial must lie in"),
        ({"mass": "bogus"}, "'estimate', 'fixed' or a positive number"),
        ({"mass": np.inf}, "positive and finite"),
    ])
    def test_checked_before_any_exceedance(self, sample, monkeypatch, mode, kwargs, match):
        def no_kernel(*args, **kw):
            raise AssertionError("an exceedance kernel ran before the arguments were checked")

        monkeypatch.setattr(tpdm, "_radial_exceedances", no_kernel)
        with pytest.raises(DomainError, match=match):
            estimate_tpdm(sample, mode=mode, **kwargs)

    def test_pair_estimate_checks_q_first(self):
        with pytest.raises(DomainError, match="q_radial must lie in"):
            estimate_sigma_pair(np.ones(10), np.ones(10), q_radial=0.0)


class TestColumnNames:
    @pytest.mark.parametrize("names", [["a", "a", "b"], [" a", "a ", "b"], ["a", "", "b"],
                                       ["a", " ", "b"]],
                             ids=["repeated", "repeated-after-strip", "empty", "blank"])
    def test_sample_names_distinct_and_non_blank(self, names):
        with pytest.raises(DataError, match="column name"):
            TailSample(np.ones((5, 3)), columns=names)

    def test_sample_name_count(self):
        with pytest.raises(DimensionError, match="2 column names for 3 columns"):
            TailSample(np.ones((5, 3)), columns=["a", "b"])

    def test_graph_needs_one_distinct_name_per_row(self):
        T = np.full((3, 3), 5.0)
        with pytest.raises(DimensionError):
            graph_from_stats(T, ["a", "b"], 1.0)
        with pytest.raises(DataError):
            graph_from_stats(T, ["a", "b", "a"], 1.0)
        assert graph_from_stats(T, None, 1.0).nodes == ["1", "2", "3"]


class TestCriticalValue:
    @pytest.mark.parametrize("value", [-1.0, "fixed:-1", "fixed:-1e-300", -np.inf])
    def test_negative_is_refused(self, value):
        with pytest.raises(DomainError, match="non-negative"):
            fixed_critical_value(value)
        with pytest.raises(DomainError, match="non-negative"):
            critical_value(value)

    def test_graph_refuses_a_negative_critical_value_and_takes_zero(self):
        with pytest.raises(DomainError):
            graph_from_stats(np.zeros((3, 3)), None, -1.0)
        assert len(graph_from_stats(np.full((3, 3), 0.5), None, 0.0).edges) == 3

    @pytest.mark.parametrize("value", [np.float32(0.25), np.int64(0)], ids=["float32", "int64"])
    def test_graph_takes_any_number_float_takes(self, value):
        graph = graph_from_stats(np.full((3, 3), 0.5), None, value)
        assert len(graph.edges) == 3 and graph.critical_value == float(value)

    @pytest.mark.parametrize("value", [Decimal("0.25"), "0.25", np.array([0.25])],
                             ids=["Decimal", "str", "1-element array"])
    def test_graph_refuses_what_is_not_a_real_number(self, value):
        # "0.25" is not "fixed:0.25"; a Decimal or an array is not a Python or numpy number
        with pytest.raises(DomainError, match="unknown critical value method|a real number"):
            graph_from_stats(np.full((3, 3), 0.5), None, value)


def _near_copy_report():
    with open(os.path.join(DATA_DIR, "near_copy_report.json")) as fh:
        return json.load(fh)


class TestReportReader:
    """``PtcTestReport.from_dict`` enforces the rules its writer keeps."""

    @pytest.mark.parametrize("breakage", [
        "repeated pair", "missing pair", "flipped reject", "reject on an errored pair",
        "reject missing", "repeated column", "negative critical value", "names contradict columns",
        "fractional index", "string index", "string k", "k of 1", "list sigma_u", "infinite tau2",
        "string t", "string alpha", "numeric adjustment", "quantiles as pairs",
        "reject at |t| = c",
    ])
    def test_broken_rule_is_data_error(self, breakage):
        payload = copy.deepcopy(_near_copy_report())
        pairs = payload["pairs"]
        tested = next(d for d in pairs if d["error"] is None)
        errored = next(d for d in pairs if d["error"] is not None)
        if breakage == "repeated pair":
            pairs[1] = dict(pairs[0])
        elif breakage == "missing pair":
            del pairs[-1]
        elif breakage == "flipped reject":
            tested["reject"] = not tested["reject"]
        elif breakage == "reject on an errored pair":
            errored["reject"] = False
        elif breakage == "reject missing":
            tested["reject"] = None
        elif breakage == "repeated column":
            payload["columns"][1] = payload["columns"][0]
        elif breakage == "names contradict columns":
            tested["names"] = tested["names"][::-1]
        elif breakage == "fractional index":  # read as its integer part
            tested["i"] += 0.7
        elif breakage == "string index":
            tested["j"] = str(tested["j"])
        elif breakage in ("string k", "k of 1"):
            tested["k"] = "x" if breakage == "string k" else 1
        elif breakage == "list sigma_u":
            tested["sigma_u"] = [tested["sigma_u"]]
        elif breakage == "infinite tau2":
            tested["tau2"] = float("inf")
        elif breakage == "string t":
            tested["t"] = str(tested["t"])
        elif breakage == "string alpha":
            payload["alpha"] = "x"
        elif breakage == "numeric adjustment":
            payload["adjustment"] = 7
        elif breakage == "quantiles as pairs":
            payload["quantiles"] = [["a", 1]]
        elif breakage == "reject at |t| = c":  # |t| > c rejects; |t| = c does not
            tested["t"], tested["reject"] = -payload["critical_value"], True
        else:
            payload["critical_value"] = -0.01
        with pytest.raises(DataError, match="malformed report"):
            PtcTestReport.from_dict(payload)

    def test_quantiles_may_be_empty(self):
        payload = dict(_near_copy_report(), quantiles={})
        assert PtcTestReport.from_dict(payload).quantiles == {}

    def test_csv_rows_carry_k_and_the_error_message(self):
        payload = _near_copy_report()
        rows = list(PtcTestReport.from_dict(payload).to_csv_rows())
        assert any(d["error"] for d in payload["pairs"]) and any(d["k"] for d in payload["pairs"])
        assert [(row[6], row[9]) for row in rows] == [
            ("" if d["k"] is None else d["k"], d["error"] or "") for d in payload["pairs"]]


_SHAPES = [(), (0,), (3,), (300,), (0, 0), (1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (300, 2),
           (3, 3, 1)]
# a pair of five variables: its weights are (3, 2), one of the shapes above
_FIVE = TailSample(construct(ar1_matrix(0.7, 5), sample_noise(5, 600, seed=4)))
_CALLABLES = {
    "TailSample": TailSample,
    "marginal_transform": marginal_transform,
    "estimate_tpdm": estimate_tpdm,
    "ptc_test_all_pairs": ptc_test_all_pairs,
    "IPMatrix": IPMatrix,
    "invert_ipm": invert_ipm,
    "ptc_matrix": ptc_matrix,
    "ptc_matrix_from_inverse": ptc_matrix_from_inverse,
    "ptc_from_inverse": lambda a: ptc_from_inverse(a, 0, 1),
    "ptc": lambda a: ptc(a, 0, 1),
    "graph_from_stats": lambda a: graph_from_stats(a, None, 2.0),
    # x is A2's last row, so a non-finite cell there reaches both arguments
    "project_onto_span": lambda a: project_onto_span(np.atleast_1d(a)[-1:].ravel(), a),
    "estimate_sigma_pair": lambda a: estimate_sigma_pair(a, np.flip(a)),
    "theoretical_ipm": theoretical_ipm,
    "theoretical_tpdm": theoretical_tpdm,
    "tail_ratio": tail_ratio,
    "angular_points": angular_points,
    "softplus": softplus,
    "softplus_inv": softplus_inv,
    "tadd": lambda a: tadd(a, a),
    "tmatmul": lambda a: tmatmul(np.eye(2), a),
    "construct": lambda a: construct(a, np.full((3, 2), 2.0)),
    "residuals": lambda a: residuals(_FIVE, Partition.pair(0, 1, 5), a),
    "estimate_mass": lambda a: estimate_mass(a, 1, 1),
}
# far from unit size, where a square or a product of two entries leaves the float64 range
_SCALES = (1.0, 2.0 ** 600, 2.0 ** -600, 1e200, 1e-200, 1e303, 2.0 ** -1000)


@st.composite
def _hostile_arrays(draw):
    """An array of any shape in ``_SHAPES`` with cells of either sign, sometimes
    symmetric positive definite, scaled by one of ``_SCALES`` or so that its
    largest cell is 1.7e308, sometimes holding a NaN or an infinity, C- or
    Fortran-ordered."""
    cells = st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01))
    a = draw(hnp.arrays(np.float64, draw(st.sampled_from(_SHAPES)), elements=cells))
    if a.ndim == 2 and a.shape[0] == a.shape[1] and draw(st.booleans()):
        a = a @ a.T + a.shape[0] * np.eye(a.shape[0])
    scale = draw(st.sampled_from(_SCALES + (None,)))  # every cell is at least 0.01 in size
    if scale is None:  # divided first: 1.7e308 / max|a| overflows for max|a| below 0.95
        a = a / np.abs(a).max(initial=0.01) * 1.7e308
    else:
        a *= scale
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return np.asfortranarray(a) if draw(st.booleans()) else a


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_CALLABLES)), a=_hostile_arrays())
def test_hostile_arrays_give_a_result_or_a_tailgraph_error(name, a):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # angular_points documents a UserWarning
        warnings.filterwarnings("ignore", "columns .* contribute no angular mass", UserWarning)
        try:
            _CALLABLES[name](a)
        except TailgraphError:
            pass


# the value itself in every array argument: two calls above reshape theirs with numpy
_RAW_CALLABLES = {**_CALLABLES, "project_onto_span": lambda v: project_onto_span(v, v),
                  "estimate_sigma_pair": lambda v: estimate_sigma_pair(v, v)}


@pytest.mark.parametrize("value, error", [
    (None, TailgraphError), ("x", DataError), ([[1.0, 2.0], [3.0]], DataError), ({}, DataError),
], ids=["None", "string", "ragged list", "dict"])
@pytest.mark.parametrize("name", sorted(_RAW_CALLABLES))
def test_non_numeric_input_is_a_tailgraph_error(name, value, error):
    # numpy reads None as a 0-d NaN, which a shape or finite rule refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            _RAW_CALLABLES[name](value)


class TestStatisticMatrix:
    """``graph_from_stats`` reads one triangle, so the other must agree with it."""

    @pytest.mark.parametrize("T", [
        [[0.0, np.nan, np.nan], [9.0, 0.0, np.nan], [9.0, 9.0, 0.0]],
        [[0.0, 9.0, 0.1], [0.1, 0.0, 9.0], [9.0, 0.1, 0.0]],
    ], ids=["filled below the diagonal, NaN above", "three-cycle"])
    def test_asymmetric_matrix_is_data_error(self, T):
        with pytest.raises(DataError, match="symmetric"):
            graph_from_stats(np.array(T), None, 1.0)


_GRAPH = graph_from_stats(np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 2.0], [1.0, 2.0, 0.0]]), None, 1.5)


@pytest.mark.parametrize("call, error", [
    (lambda: t_statistic(0.1, 1.0, 2.5), DomainError),
    (lambda: t_statistic(0.1, np.nan, 10), DegenerateVarianceError),
    (lambda: t_statistic(np.nan, 1.0, 10), DomainError),
    (lambda: confidence_interval(0.1, np.nan, 10), DegenerateVarianceError),
    (lambda: critical_value("bonferroni", n_pairs=2.5, df=10), DomainError),
    (lambda: ar1_matrix(0.5, 2.5), DomainError),
    (lambda: ar1_matrix("x", 3), DomainError),
    (lambda: ar1_matrix(0.5, "x"), DomainError),
    (lambda: build_graph({}), DataError),
    (lambda: emit_dot(_GRAPH, width_scale=np.nan), DomainError),
    (lambda: emit_dot(_GRAPH, width_scale=np.inf), DomainError),
    (lambda: emit_dot(None), DataError),
    (lambda: to_adjacency(None), DataError),
    (lambda: TailSample(np.ones((5, 3)), columns=5), DataError),
    (lambda: marginal_transform(np.arange(15.0).reshape(5, 3), columns=5), DataError),
], ids=["t k=2.5", "t tau2=nan", "t sigma_u=nan", "interval tau2=nan", "bonferroni n_pairs=2.5",
        "ar1 p=2.5", "ar1 phi=str", "ar1 p=str", "graph of a dict", "dot width nan",
        "dot width inf", "dot of None", "adjacency of None", "sample names=5",
        "transform names=5"])
def test_scalar_argument_rules(call, error):
    with pytest.raises(error):
        call()


# Each wrong scalar below is read by errors._real, the one scalar reader, or refused
# as an unknown name by a parameter that takes one (a mode, a method, a mass).
_WRONG_SCALARS = {"None": None, "str": "x", "numeric str": "0.5", "list": [0.5],
                  "array": np.array([0.5, 0.5]), "dict": {}, "nan": np.nan, "inf": np.inf,
                  "-inf": -np.inf, "10**400": 10 ** 400}
_PAIR_01 = Partition.pair(0, 1, 5)
_RES = residuals(_FIVE, _PAIR_01, np.zeros((3, 2)), q_pred=0.9, m_trace=2.0)
_SCALAR_PARAMETERS = {  # callable -> (a call taking the scalars by keyword, a valid value of each)
    "t_statistic": (t_statistic, {"sigma_u_hat": 0.1, "tau2_hat": 1.0, "k": 10}),
    "confidence_interval": (confidence_interval,
                            {"sigma_u_hat": 0.1, "tau2_hat": 1.0, "k": 10, "level": 0.95}),
    "critical_value": (critical_value,
                       {"method": "bonferroni", "alpha": 0.05, "n_pairs": 6, "df": 10}),
    "coverage_study": (coverage_study, {"phi": 0.7, "n": 600, "reps": 1, "q_radial": 0.9,
                                        "level": 0.95, "seed": 0}),
    "size_power_study": (size_power_study, {
        "phi": 0.7, "n": 600, "reps": 1, "p": 3, "q_radial": 0.9, "q_pred": 0.9,
        "cv_method": "bonferroni", "alpha": 0.05, "seed": 0}),
    "estimate_sigma_u": (partial(estimate_sigma_u, _RES), {"q_res": 0.95, "mass": "trace"}),
    "estimate_tau2": (partial(estimate_tau2, _RES), {"m_tilde": 2.0, "q_res": 0.95}),
    "ptc_test_all_pairs": (partial(ptc_test_all_pairs, _FIVE), {
        "q_radial": 0.9, "q_pred": 0.9, "q_res": 0.95, "cv_method": "bonferroni", "alpha": 0.05,
        "tpdm_mode": "pairwise", "tpdm_mass": "fixed"}),
    "residuals": (partial(residuals, _FIVE, _PAIR_01, np.zeros((3, 2))),
                  {"q_pred": 0.9, "m_trace": 2.0}),
    "Partition.pair": (Partition.pair, {"i": 0, "j": 1, "p": 3}),
    "Partition.single": (Partition.single, {"i": 0, "p": 3}),
    "ptc": (partial(ptc, np.eye(3)), {"i": 0, "j": 1}),
    "ptc_from_inverse": (partial(ptc_from_inverse, np.eye(3)), {"i": 0, "j": 1}),
    "ar1_matrix": (ar1_matrix, {"phi": 0.7, "p": 4}),
    "sample_noise": (sample_noise, {"q": 2, "n": 5, "distribution": "frechet", "seed": 0}),
    "estimate_mass": (partial(estimate_mass, np.ones(5)), {"k": 2, "n": 5}),
    "estimate_sigma_pair": (partial(estimate_sigma_pair, _FIVE.data[:, 0], _FIVE.data[:, 1]),
                            {"q_radial": 0.9, "mass": "fixed"}),
    "estimate_tpdm": (partial(estimate_tpdm, _FIVE),
                      {"q_radial": 0.9, "mode": "pairwise", "mass": "fixed"}),
    "tscale": (partial(tscale, x=np.ones(2)), {"a": 0.5}),
    "emit_dot": (partial(emit_dot, _GRAPH), {"width_scale": 4.0}),
    "graph_from_stats": (partial(graph_from_stats, np.zeros((3, 3)), None), {"critical": 1.0}),
}
_SCALAR_ANNOTATIONS = {"float", "int", "str", "float | None", "int | None"}


def test_scalar_table_covers_every_exported_scalar_parameter():
    """Each parameter of an exported function annotated as a number or a string, or
    whose default is one, is in ``_SCALAR_PARAMETERS``; so are the classmethods of
    ``Partition``.  Each valid call gives a result."""
    found = {f"{cls.__name__}.{m}" for cls in (Partition,) for m in ("pair", "single")}
    missing = []
    for name in tailgraph.__all__:
        fn = getattr(tailgraph, name)
        if not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if (param.annotation in _SCALAR_ANNOTATIONS
                    or isinstance(param.default, (int, float, str))):
                found.add(name)
                if param.name not in _SCALAR_PARAMETERS.get(name, ((), {}))[1]:
                    missing.append(f"{name}({param.name})")
    assert not missing and found <= set(_SCALAR_PARAMETERS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, valid in _SCALAR_PARAMETERS.values():
            fn(**valid)


@pytest.mark.parametrize("name, param", [(name, param) for name, (_, valid) in
                                         _SCALAR_PARAMETERS.items() for param in valid])
def test_wrong_scalar_gives_a_result_or_a_tailgraph_error(name, param):
    fn, valid = _SCALAR_PARAMETERS[name]
    escaped = []
    for label, value in _WRONG_SCALARS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fn(**{**valid, param: value})
            except TailgraphError:
                pass
            except Exception as exc:  # noqa: BLE001 -- every escape is listed, not only the first
                escaped.append(f"{param}={label}: {type(exc).__name__}: {exc}")
    assert not escaped


@pytest.mark.parametrize("call, match", [
    (lambda: Partition.single(0.5, 3), "out of range"),
    (lambda: Partition.pair(0.5, 1, 3), "two distinct indices"),
    (lambda: ptc(np.eye(3), 0.5, 1), "two distinct indices"),
    (lambda: ptc_from_inverse(np.eye(3), 0.5, 1), "two distinct indices"),
    (lambda: sample_noise(2.5, 10), "integer q"),
    (lambda: estimate_mass(np.ones(5), 2.5, 5), "integer k"),
    (lambda: coverage_study(reps=2.5), "integer reps"),
    (lambda: coverage_study(n=2.5, reps=1), "integer n"),
    (lambda: size_power_study(reps=2.5), "integer reps"),
    (lambda: size_power_study(n=2.5, reps=1), "integer n"),
], ids=["single i=0.5", "pair i=0.5", "ptc i=0.5", "ptc_from_inverse i=0.5", "noise q=2.5",
        "mass k=2.5", "coverage reps=2.5", "coverage n=2.5", "size-power reps=2.5",
        "size-power n=2.5"])
def test_counts_and_indices_are_integers(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_integer_valued_indices_are_indices():
    G = invert_ipm(ar1_matrix(0.7, 3) @ ar1_matrix(0.7, 3).T)
    assert ptc_from_inverse(G, 1.0, np.float64(2)) == ptc_from_inverse(G, 1, 2)
    assert ptc(np.eye(3), 0.0, 2.0) == 0.0


@pytest.mark.parametrize("kwargs", [{"phi": np.array(0.5), "p": 3}, {"phi": 0.5, "p": np.array(3)}],
                         ids=["0-d phi", "0-d p"])
def test_zero_dimensional_array_is_read_as_its_number(kwargs):
    """``errors._real`` reads a 0-d array as the number it holds: here phi, a
    unit-interval argument, and p, an integer one."""
    assert np.array_equal(ar1_matrix(**kwargs), ar1_matrix(0.5, 3))


# each size is refused by errors.check_array_size before anything is allocated
@pytest.mark.parametrize("call", [
    lambda: Partition.pair(0, 1, 10 ** 18),
    lambda: Partition.single(0, 4 * 10 ** 9),
    lambda: sample_noise(1, 10 ** 19),
    lambda: coverage_study(n=10 ** 19, reps=1),
    lambda: size_power_study(n=10 ** 19, reps=1),
    lambda: size_power_study(p=4 * 10 ** 9, n=10, reps=1),
], ids=["pair p=1e18", "single p=4e9", "noise n=1e19", "coverage n=1e19",
        "size-power n=1e19", "size-power p=4e9"])
def test_size_past_any_array_is_refused_on_entry(call):
    """Not numpy's "Maximum allowed dimension exceeded", a ``MemoryError`` after a
    long build, or a study's "every replication failed"."""
    with pytest.raises(DomainError, match=r"^a \d+ x \d+ float64 array exceeds the largest array size$"):
        call()


_REPORT_3 = PtcTestReport(records=[PairRecord(0, 7, t_stat=5.0, k=40, reject=True)],
                          critical_value=2.0, adjustment="fixed", alpha=0.05,
                          columns=["a", "b", "c"])


def _report(columns, *records):
    """A report at critical value 1 holding ``records`` as given."""
    return PtcTestReport(records=list(records), critical_value=1.0, adjustment="fixed",
                         alpha=0.05, columns=columns)


@pytest.mark.parametrize("call, message", [
    (lambda: solve_b(np.eye(3), None), "^solve_b needs a Partition, got a NoneType$"),
    (lambda: conditional_ipm(np.eye(3), (0, 1)), "^conditional_ipm needs a Partition, got a tuple$"),
    (lambda: residuals(_FIVE, None, np.zeros((3, 2))), "^residuals needs a Partition, got a NoneType$"),
    (lambda: estimate_sigma_u(None), "^estimate_sigma_u needs a ResidualSample, got a NoneType$"),
    (lambda: estimate_tau2(None, 1.0), "^estimate_tau2 needs a ResidualSample, got a NoneType$"),
    (lambda: emit_dot(ExtremalGraph(["a"], [], "x")),
     "^emit_dot: unknown critical value method 'x'$"),
    (lambda: to_adjacency(ExtremalGraph(["a"], [], "x")),
     "^to_adjacency: unknown critical value method 'x'$"),
    (lambda: to_adjacency(ExtremalGraph(["a"], [], -1.0)),
     "^to_adjacency: critical value must be finite and non-negative, got -1.0$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 5, 1.0)], 1.0)),
     r"^emit_dot: edge \(0, 5\) is not a pair i < j of 2 columns$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], [(1, 0, 1.0)], 1.0)),
     r"^to_adjacency: edge \(1, 0\) is not a pair i < j of 2 columns$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [], 1.0, skipped=[(0, 0.5, "x")])),
     r"^emit_dot: skipped pair \(0, 0.5\) is not a pair i < j of 2 columns$"),
    (lambda: build_graph(_REPORT_3), r"^build_graph: record \(0, 7\) is not a pair i < j of 3 columns$"),
    (lambda: build_graph(_report(["a", "b"], PairRecord(0, 1, t_stat=5.0, k=40),
                                 PairRecord(0, 1, t_stat=0.5, k=40))),
     "^build_graph: 1 distinct pairs in 2 records for 2 columns$"),
    (lambda: build_graph(_report(["a", "b"], PairRecord(0, 1, k=40))),
     r"^build_graph: record \(0, 1\) breaks the record rule: PairRecord\(i=0, j=1, .*t_stat=None"),
    (lambda: build_graph(_report(["a", "b", "c"], PairRecord(0, 1, t_stat=5.0, k=40),
                                 PairRecord(0, 2, t_stat=5.0, k=40))),
     "^build_graph: 2 distinct pairs in 2 records for 3 columns$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 1, "x")], 1.0)),
     "^emit_dot: edge weight must be a real number, got 'x'$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], [(0, 1, np.nan)], 1.0)),
     "^to_adjacency: edge weights must be finite and above the critical value$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 1, -3.0)], 1.0)),
     "^emit_dot: edge weights must be finite and above the critical value$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 1)], 1.0)),
     r"^emit_dot: edge \(0, 1\) is not three fields$"),
    (lambda: emit_dot(ExtremalGraph(["a", "a"], [(0, 1, 5.0)], 1.0)),
     "^emit_dot: column name 'a' is repeated$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 1, 5.0), (0, 1, 5.0)], 1.0)),
     "^emit_dot: a pair appears twice among the edges and skipped pairs$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], [(0, 1, 5.0)], 1.0, skipped=[(0, 1, "x")])),
     "^to_adjacency: a pair appears twice among the edges and skipped pairs$"),
    (lambda: build_graph(_report(["a", "b"], PairRecord(0, 1, error=""))),
     r"^build_graph: record \(0, 1\) breaks the record rule: PairRecord\(.*error=''\)$"),
    (lambda: build_graph(_report(["a", "b"], {"i": 0})), "^build_graph needs a PairRecord, got a dict$"),
    (lambda: build_graph(_report(None, PairRecord(0, 1, t_stat=5.0, k=40))),
     "^build_graph: columns None is not a sequence$"),
    (lambda: build_graph(_report(["a", "b"], PairRecord(0, 1, t_stat=5.0, k="x"))),
     r"^build_graph: record \(0, 1\) breaks the record rule: PairRecord\(.*k='x'"),
    (lambda: build_graph(_report(["a", "b"], PairRecord(1, 1, t_stat=5.0, k=40))),
     r"^build_graph: record \(1, 1\) is not a pair i < j of 2 columns$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [5], 1.0)), "^emit_dot: edge 5 is not a sequence$"),
    (lambda: emit_dot(ExtremalGraph(None, [], 1.0)), "^emit_dot: nodes None is not a sequence$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], None, 1.0)),
     "^to_adjacency: edges None is not a sequence$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], [], 1.0, skipped=[5])),
     "^to_adjacency: skipped pair 5 is not a sequence$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [], 1.0, skipped=[(0, 1, "")])),
     "^emit_dot: a skipped pair's reason must be a non-empty str$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], [(0, 1, 0.5)], 2.0)),
     "^to_adjacency: edge weights must be finite and above the critical value$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 1, 2.0)], 2.0)),
     "^emit_dot: edge weights must be finite and above the critical value$"),
    (lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 1, np.inf)], 2.0)),
     "^emit_dot: edge weights must be finite and above the critical value$"),
    (lambda: to_adjacency(ExtremalGraph(["a", "b"], [(0, 0, 5.0)], 1.0)),
     r"^to_adjacency: edge \(0, 0\) is not a pair i < j of 2 columns$"),
    (lambda: build_graph(_report(["a", "b"], PairRecord(0, 1, np.inf, 1.0, 40, 5.0))),
     r"^build_graph: record \(0, 1\) breaks the record rule: PairRecord\(i=0, j=1, sigma_u=inf"),
], ids=["solve_b of None", "conditional_ipm of a tuple", "residuals of None",
        "sigma_u of None", "tau2 of None", "DOT critical 'x'", "adjacency critical 'x'",
        "adjacency critical -1", "edge past the nodes", "edge j < i", "skipped pair j=0.5",
        "record past the columns", "record pair repeated", "tested record without t",
        "record pair missing", "edge weight 'x'", "edge weight NaN", "edge weight -3",
        "edge of two fields", "node name repeated", "edge repeated", "edge also skipped",
        "record error ''", "record not a PairRecord", "columns None", "record k 'x'",
        "record (1, 1)", "edge 5", "nodes None", "edges None", "skipped pair 5",
        "skipped reason ''", "edge weight 0.5 at critical 2", "edge weight at the critical value",
        "edge weight inf", "edge (0, 0)", "record sigma_u inf"])
def test_record_arguments_and_fields_are_data_errors(call, message):
    """A record argument of another type, or a graph or report whose fields break
    the rules :func:`build_graph` and the report reader keep, is a
    :class:`DataError`, never an ``AttributeError``, ``IndexError`` or
    ``ValueError`` from inside, nor a file written with the bad field."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            call()


def test_records_are_returned_as_read():
    """``check_records`` reads each field once and returns it as read: i, j and k
    as ints, σ̂_u, τ̂² and t as floats; k = 2 is the least it takes."""
    records = [PairRecord(np.int64(0), 1.0, np.float32(0.5), 2, 2.0, np.float64(-3.0), True),
               PairRecord(0, 2, error="x"), PairRecord(1, 2, 0.25, 0.5, 40, 1.5, False)]
    out = check_records(records, 3, "reader")
    assert out == [PairRecord(0, 1, 0.5, 2.0, 2, -3.0, True), records[1], records[2]]
    assert [type(v) for v in vars(out[0]).values()] == [int, int, float, float, int, float,
                                                        bool, type(None)]


def test_graph_fields_are_read_as_written():
    """Indices read by ``errors.as_index`` (a numpy int, an integer-valued float)
    and a numpy critical value are written as Python numbers."""
    graph = ExtremalGraph(["a", "b", "c"], [(np.int64(0), 2.0, 3.5)], np.float64(2.0),
                          skipped=[(1.0, np.int32(2), "x")])
    assert to_adjacency(graph) == {"nodes": ["a", "b", "c"], "critical_value": 2.0,
                                   "edges": [[0, 2, 3.5]], "skipped_pairs": [[1, 2, "x"]]}
    assert '"a" -- "c"' in emit_dot(graph)


@pytest.mark.parametrize("call", [
    lambda A: tmatmul(A, np.ones(2)),
    lambda A: predict(A[0], np.ones(2)),
    lambda A: construct(A, np.ones((3, 2))),
    zero_clip,
    lambda A: tail_ratio(A[0]),
    angular_points,
    theoretical_ipm,
    theoretical_tpdm,
], ids=["tmatmul", "predict", "construct", "zero_clip", "tail_ratio", "angular_points",
        "theoretical_ipm", "theoretical_tpdm"])
def test_coefficients_must_be_finite(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="coefficient matrix must be finite"):
            call(np.array([[np.nan, 1.0], [1.0, 1.0]]))


_TL_CELLS = (5e-324, 1.0, 1e3, 1e308, 0.0, -1.0, np.nan, np.inf, -np.inf)
_TL_COEFFICIENTS = (0.0, 0.5, -0.5, 1e308, -1e308, np.nan)
_TRANSFORMED_LINEAR = {  # name -> call on rows X (n, q) and a coefficient matrix M (p, q)
    "tadd": lambda X, M: tadd(X[0], X[-1]),
    "tscale": lambda X, M: tscale(M[0, 0], X[0]),
    "tmatmul vector": lambda X, M: tmatmul(M, X[0]),
    "tmatmul rows": lambda X, M: tmatmul(M, X),
    "predict": lambda X, M: predict(M[0], X[0]),
    "construct": lambda X, M: construct(M, X),
}


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_TRANSFORMED_LINEAR)), data=st.data())
def test_transformed_linear_gives_a_positive_result_or_a_tailgraph_error(name, data):
    n, p, q = (data.draw(st.integers(1, 2)) for _ in range(3))
    X = data.draw(hnp.arrays(np.float64, (n, q), elements=st.sampled_from(_TL_CELLS)))
    M = data.draw(hnp.arrays(np.float64, (p, q), elements=st.sampled_from(_TL_COEFFICIENTS)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "columns .* carry no tail mass", UserWarning)
        try:
            out = _TRANSFORMED_LINEAR[name](X, M)
        except TailgraphError:
            return
    assert np.isfinite(out).all() and (out > 0.0).all(), out


_HOSTILE_SCALARS = (np.nan, np.inf, -np.inf, 0.0, -1.0, 2.5, 1e308)
_SCALAR_CALLS = {  # name -> (function, one valid value per argument)
    "t_statistic": (t_statistic, (0.1, 1.0, 10)),
    "confidence_interval": (confidence_interval, (0.1, 1.0, 10, 0.95)),
    "critical_value bonferroni": (
        lambda alpha, n_pairs, df: critical_value("bonferroni", alpha, n_pairs, df), (0.05, 6, 10)),
    "critical_value none": (lambda alpha, df: critical_value("none", alpha, df=df), (0.05, 10)),
    "ar1_matrix": (ar1_matrix, (0.7, 4)),
    "emit_dot": (lambda width: emit_dot(_GRAPH, width_scale=width), (4.0,)),
}


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_SCALAR_CALLS)), data=st.data())
def test_hostile_scalars_give_a_finite_result_or_a_tailgraph_error(name, data):
    fn, valid = _SCALAR_CALLS[name]
    args = [data.draw(st.sampled_from(_HOSTILE_SCALARS + (v,))) for v in valid]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except TailgraphError:
            return
    if isinstance(out, str):
        assert "inf" not in out and "nan" not in out, out
    else:
        assert np.isfinite(np.asarray(out, dtype=float)).all(), out


_Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
_COND_8E11 = (_Q * np.logspace(0, -11.9, 3)) @ _Q.T  # passes the 1e12 gate, not the 1e-8 check
_ONE_ROW = ResidualSample(u=np.ones((1, 2)), r=np.ones(1), w=np.full((1, 2), 0.5 ** 0.5),
                          n_total=100, threshold=0.5)
_NO_ROWS = ResidualSample(u=np.ones((0, 2)), r=np.ones(0), w=np.ones((0, 2)), n_total=100,
                          threshold=0.5)

REACHED_RAISES = [  # (case, call, documented class, message)
    ("--mass bogus", lambda: main(["tpdm", "--input", "x.csv", "--mass", "bogus",
                                   "--out-prefix", "x"]), SystemExit, "^2$"),  # the exit code
    # the checked reader runs after the fast one failed: a file gone by then
    ("file gone before the checked read", lambda: _read_csv_checked(
        os.path.join(DATA_DIR, "missing.csv")), DataError, "cannot read"),
    ("emit_dot width 0", lambda: emit_dot(_GRAPH, width_scale=0.0), DomainError, "width_scale"),
    ("residuals of one target", lambda: residuals(np.ones((60, 3)), Partition.single(0, 3),
                                                  np.zeros((2, 2))), DomainError, "two target"),
    ("tau2 of one row", lambda: estimate_tau2(_ONE_ROW, 1.0), DegenerateVarianceError,
     "at least 2 exceedances"),
    ("t past the float64 range", lambda: t_statistic(1e308, 2.5, 1e300), NumericalError,
     "past the float64 range"),
    ("bonferroni without n_pairs", lambda: critical_value("bonferroni", df=10), DomainError,
     "integer n_pairs"),
    ("single index out of range", lambda: Partition.single(3, 3), DomainError, "out of range"),
    ("partition for another p", lambda: conditional_ipm(np.eye(4), Partition.pair(0, 1, 3)),
     DomainError, "cover all indices"),
    ("span of the wrong width", lambda: project_onto_span(np.ones(3), np.ones((2, 4))),
     DimensionError, "columns must match"),
    ("noise of the wrong width", lambda: construct(np.eye(3), np.ones((5, 2))), DimensionError,
     "does not conform"),
    ("non-positive noise", lambda: construct(np.eye(2), np.array([[1.0, 0.0]])), DomainError,
     "softplus_inv requires finite input > 0"),
    ("ar1_matrix p=0", lambda: ar1_matrix(0.5, 0), DomainError, "integer p"),
    ("ar1_matrix past any array", lambda: ar1_matrix(0.5, 10 ** 10), DomainError,
     "largest array size"),
    ("inverse that fails its check", lambda: invert_ipm(_COND_8E11), ConditioningError,
     r"^inverse verification failed: \|G G\^-1 - I\| reaches \d\.\d{3}e-\d\d, limit 1e-08$"),
    ("asymmetric IPMatrix", lambda: IPMatrix([[1.0, 0.5], [0.4, 1.0]]), DomainError, "symmetric"),
    ("3-D raw data", lambda: marginal_transform(np.ones((2, 2, 2))), DimensionError, "2-D"),
    ("mass of k > n", lambda: estimate_mass(np.ones(5), 6, 5), DomainError, "1 <= k <= n"),
    ("tadd of a negative", lambda: tadd(np.array([1.0, -1.0]), np.ones(2)), DomainError,
     "softplus_inv requires finite input > 0"),
    ("tscale by nan", lambda: tscale(np.nan, np.ones(2)), DomainError, "must be finite"),
    ("tscale past the float64 range", lambda: tscale(1e10, np.array([1e300])), NumericalError,
     "^transformed-linear result lies past the float64 range$"),
    ("coefficient vector for a matrix", lambda: theoretical_ipm(np.ones(3)), DimensionError,
     r"^coefficient matrix must have 2 axes, got shape \(3,\)$"),
    ("Gram past the float64 range", lambda: tail_ratio(np.full(2, 1e200)), NumericalError,
     "^coefficient inner products lie past the float64 range$"),
    ("inverse past the float64 range", lambda: invert_ipm(np.eye(2) * 1e-309), NumericalError,
     "^inverse of the inner product matrix lies past the float64 range$"),
    ("non-numeric matrix", lambda: invert_ipm("x"), DataError,
     "^inner product matrix must be numeric, got a str$"),
    ("weights past the float64 range", lambda: solve_b(
        [[0.5, 0.9, 0.9], [0.9, 1e-309, 0.0], [0.9, 0.0, 1e-309]], Partition.single(0, 3)),
     NumericalError, "^prediction weights lie past the float64 range$"),
    ("residuals past the float64 range", lambda: residuals(
        _FIVE, Partition.pair(0, 1, 5), np.full((3, 2), 1e308)), NumericalError,
     "^preimage residuals lie past the float64 range$"),
    ("moment of no rows", lambda: estimate_sigma_u(_NO_ROWS, mass=1.0),
     InsufficientExceedancesError,
     r"^residual estimator: only 0 exceedances \(need >= 1\)$"),
    ("radii of two axes", lambda: estimate_mass(np.zeros((2, 2)), 1, 1), DataError,
     "^radii must be a 1-D array of non-negative values$"),
    ("negative radius", lambda: estimate_mass([-1.0], 1, 1), DataError,
     "^radii must be a 1-D array of non-negative values$"),
    ("graph of a dict", lambda: build_graph({}), DataError,
     "^build_graph needs a PtcTestReport, got a dict$"),
    ("scalar that is not a real number", lambda: t_statistic("x", 1.0, 10), DomainError,
     "^sigma_u must be a real number, got 'x'$"),
    ("scalar past the float64 range", lambda: tscale(10 ** 400, np.ones(2)), DomainError,
     "^scalar must be a real number, got an int past the float64 range$"),
    ("count past the float64 range", lambda: sample_noise(2, 10 ** 400), DomainError,
     "^need an integer n >= 1, got an int past the float64 range$"),
    ("DOT of a dict", lambda: emit_dot({}), DataError,
     "^emit_dot needs an ExtremalGraph, got a dict$"),
    ("names of an int", lambda: TailSample(np.ones((5, 3)), columns=5), DataError,
     "^column names must be a sequence, got a int$"),
    ("mode of an array", lambda: estimate_tpdm(_FIVE, mode=np.array(["global", "global"])),
     DomainError, "^unknown mode"),
    ("noise of an array", lambda: sample_noise(2, 5, distribution=np.array(["a", "b"])),
     DomainError, "^distribution must be one of"),
    ("--reps past the float64 range", lambda: main(["size-power", "--reps", str(10 ** 400),
                                                    "--out", "x.json"]), SystemExit, "^2$"),
    ("edge past the node count", lambda: emit_dot(ExtremalGraph(["a", "b"], [(0, 5, 1.0)], 1.0)),
     DataError, r"^emit_dot: edge \(0, 5\) is not a pair i < j of 2 columns$"),
    ("graph critical value that is not one", lambda: to_adjacency(ExtremalGraph(["a"], [], "x")),
     DataError, "^to_adjacency: unknown critical value method 'x'$"),
    ("--n and --p past any array", lambda: main(["simulate", "--p", str(10 ** 10),
                                                 "--out", "x.csv"]), SystemExit, "^2$"),
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in REACHED_RAISES],
                         ids=[row[0] for row in REACHED_RAISES])
def test_every_raise_is_reached(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()
