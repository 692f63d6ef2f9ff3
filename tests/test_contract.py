"""The input contract: every argument rule is checked where the argument enters
the library, and a wrong value gives a ``TailgraphError``, never a numpy
exception, a warning or a silently wrong answer."""

import copy
import json
import os
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import DATA_DIR
from tailgraph import (
    ConditioningError,
    DataError,
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    InsufficientExceedancesError,
    IPMatrix,
    NumericalError,
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
    tpdm,
    tscale,
    zero_clip,
)
from tailgraph.cli import _read_csv_checked, main
from tailgraph.project import project_onto_span, ptc_matrix_from_inverse
from tailgraph.report import fixed_critical_value

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

    @pytest.mark.parametrize("value", [np.float32(0.25), np.int64(0), Decimal("0.25"), "0.25"],
                             ids=["float32", "int64", "Decimal", "str"])
    def test_graph_takes_any_number_float_takes(self, value):
        graph = graph_from_stats(np.full((3, 3), 0.5), None, value)
        assert len(graph.edges) == 3 and graph.critical_value == float(value)


def _near_copy_report():
    with open(os.path.join(DATA_DIR, "near_copy_report.json")) as fh:
        return json.load(fh)


class TestReportReader:
    """``PtcTestReport.from_dict`` enforces the rules its writer keeps."""

    @pytest.mark.parametrize("breakage", [
        "repeated pair", "missing pair", "flipped reject", "reject on an errored pair",
        "reject missing", "repeated column", "negative critical value", "names contradict columns",
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
        else:
            payload["critical_value"] = -0.01
        with pytest.raises(DataError, match="malformed report"):
            PtcTestReport.from_dict(payload)


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
], ids=["t k=2.5", "t tau2=nan", "t sigma_u=nan", "interval tau2=nan", "bonferroni n_pairs=2.5",
        "ar1 p=2.5", "ar1 phi=str", "ar1 p=str", "graph of a dict", "dot width nan",
        "dot width inf"])
def test_scalar_argument_rules(call, error):
    with pytest.raises(error):
        call()


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
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in REACHED_RAISES],
                         ids=[row[0] for row in REACHED_RAISES])
def test_every_raise_is_reached(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()
