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
    DataError,
    DimensionError,
    DomainError,
    IPMatrix,
    PtcTestReport,
    TailSample,
    TailgraphError,
    ar1_matrix,
    construct,
    critical_value,
    estimate_sigma_pair,
    estimate_tpdm,
    graph_from_stats,
    invert_ipm,
    ptc,
    ptc_from_inverse,
    ptc_matrix,
    sample_noise,
    tpdm,
)
from tailgraph.project import project_onto_span, ptc_matrix_from_inverse
from tailgraph.report import fixed_critical_value

NAN_3X3 = np.full((3, 3), np.nan)


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
        "reject missing", "repeated column", "negative critical value",
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
        else:
            payload["critical_value"] = -0.01
        with pytest.raises(DataError, match="malformed report"):
            PtcTestReport.from_dict(payload)


_SHAPES = [(), (0,), (3,), (300,), (0, 0), (1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (300, 2),
           (3, 3, 1)]
_CALLABLES = {
    "TailSample": TailSample,
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
}


@st.composite
def _hostile_arrays(draw):
    """An array of any shape in ``_SHAPES`` with cells of either sign, sometimes
    symmetric positive definite, sometimes holding a NaN or an infinity, C- or
    Fortran-ordered."""
    cells = st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01))
    a = draw(hnp.arrays(np.float64, draw(st.sampled_from(_SHAPES)), elements=cells))
    if a.ndim == 2 and a.shape[0] == a.shape[1] and draw(st.booleans()):
        a = a @ a.T + a.shape[0] * np.eye(a.shape[0])
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return np.asfortranarray(a) if draw(st.booleans()) else a


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_CALLABLES)), a=_hostile_arrays())
def test_hostile_arrays_give_a_result_or_a_tailgraph_error(name, a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _CALLABLES[name](a)
        except TailgraphError:
            pass
