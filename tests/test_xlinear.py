import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailgraph import (
    LOG2,
    DimensionError,
    DomainError,
    softplus,
    softplus_inv,
    tadd,
    tail_ratio,
    tmatmul,
    tscale,
    zero_clip,
)
from tailgraph.rvsim import ar1_matrix, sample_noise

finite_coef = st.floats(min_value=-50, max_value=50, allow_nan=False)
preimage = st.floats(min_value=-30, max_value=30, allow_nan=False)


class TestSoftplus:
    def test_zero_maps_to_log2(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=0)

    def test_asymptotic_identity(self):
        assert softplus(50.0) == pytest.approx(50.0, rel=1e-15)

    def test_deep_negative_branch(self):
        # log(1 + exp(-50)) to 20 significant digits: 1.9287498479639177829e-22
        assert softplus(-50.0) == pytest.approx(1.9287498479639178e-22, rel=1e-12)

    def test_finite_and_monotone_over_wide_range(self):
        y = np.linspace(-700, 700, 20001)
        v = softplus(y)
        assert np.all(np.isfinite(v))
        assert np.all(np.diff(v) >= 0)
        gap = v - np.maximum(y, 0.0)
        assert np.all(gap >= 0)
        assert np.all(gap <= LOG2 + 1e-15)
        # the gap exp(-|y|) is representable above rounding only for |y| <= ~30
        inner = np.abs(y) <= 30
        assert np.all(gap[inner] > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            softplus(np.inf)
        with pytest.raises(DomainError):
            softplus(np.array([1.0, np.nan]))


class TestSoftplusInv:
    def test_log2_maps_to_zero(self):
        assert softplus_inv(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_asymptotic_identity(self):
        assert softplus_inv(50.0) == pytest.approx(50.0, rel=1e-15)

    def test_round_trip(self):
        assert softplus_inv(softplus(1.5)) == pytest.approx(1.5, abs=1e-12)

    @given(preimage)
    def test_round_trip_everywhere(self, y):
        assert softplus_inv(softplus(y)) == pytest.approx(y, abs=1e-12)

    def test_near_zero_fallback(self):
        x = 1e-200
        assert softplus_inv(x) == pytest.approx(math.log(x), rel=1e-12)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                softplus_inv(bad)


def _gather_scatter_softplus(arr):
    # the kernel that the masked-ufunc path replaced: each branch's cells are
    # copied out with a boolean index, transformed, and written back
    out = np.empty_like(arr)
    hi = arr > 30.0
    lo = arr < -30.0
    mid = ~(hi | lo)
    out[hi] = arr[hi] + np.exp(-arr[hi])
    out[lo] = np.exp(arr[lo])
    out[mid] = np.log1p(np.exp(arr[mid]))
    return out


def _gather_scatter_softplus_inv(arr):
    out = np.empty_like(arr)
    hi = arr > 30.0
    mid = ~hi
    out[hi] = arr[hi] + np.log1p(-np.exp(-arr[hi]))
    out[mid] = np.log(np.expm1(arr[mid]))
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _edge_grid():
    """Positive edge cases: subnormals, the branch point and the float64 maximum."""
    near_branch = 30.0 + np.arange(-8, 9) * 1e-14
    return np.concatenate([
        [5e-324, 1e-322, 1e-320, 1e-310, np.finfo(float).tiny, 1e-300, 1e-200, 1e-16,
         1e-8, 0.5, LOG2, 1.0, 29.5, np.nextafter(30.0, 0.0), np.nextafter(30.0, 60.0),
         30.5, 36.0, 37.0, 40.0, 700.0, 710.0, 1e10, 1e300, 1.7e308, np.finfo(float).max],
        near_branch,
    ])


def _preimages():
    """Inputs of softplus_inv: the edge grid, log-uniform values over e^+-700
    and simulated noise."""
    rng = np.random.default_rng(11)
    return {
        "edges": _edge_grid(),
        "log-uniform": np.exp(rng.uniform(-700.0, 700.0, 300_000)),
        "noise": sample_noise(10, 40_000, seed=3).ravel(),
    }


def _forward_inputs():
    """Inputs of softplus: a grid over +-800, both signs of the edge grid and
    of the neighbourhood of +-30, and constructed preimages."""
    edges = _edge_grid()
    noise = sample_noise(10, 40_000, seed=3)
    return {
        "grid": np.linspace(-800.0, 800.0, 100_001),
        "edges": np.concatenate([edges, -edges, [0.0, -0.0]]),
        "near-branch": np.concatenate([s * (30.0 + np.arange(-2000, 2001) * 1e-3) for s in (1, -1)]),
        "constructed": (_gather_scatter_softplus_inv(noise) @ ar1_matrix(0.7, 10).T).ravel(),
    }


def _at_offset(x, offset):
    buf = np.zeros(x.size + offset)
    buf[offset:] = x
    return buf[offset:]


TRANSFORMS = [
    pytest.param(softplus_inv, _gather_scatter_softplus_inv, _preimages, id="softplus_inv"),
    pytest.param(softplus, _gather_scatter_softplus, _forward_inputs, id="softplus"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("transform, reference, inputs", TRANSFORMS)
class TestSameBitsAsGatherScatter:
    """The masked-ufunc path gives the bits of the gather/scatter kernels on
    every cell, whatever the element offset, layout or rank of the input."""

    @pytest.mark.parametrize("offset", [0, 1, 3])
    def test_contiguous_at_offsets(self, transform, reference, inputs, offset):
        for name, x in inputs().items():
            got = transform(_at_offset(x, offset))
            assert got.shape == x.shape, name
            np.testing.assert_array_equal(_bits(got), _bits(reference(x)), err_msg=name)

    def test_layouts_keep_shape_and_bits(self, transform, reference, inputs):
        x = np.concatenate(list(inputs().values()))
        x = x[: x.size // 6 * 6]
        grid = x.reshape(-1, 6)
        views = {
            "F-ordered": np.asfortranarray(grid),
            "transposed": grid.T,
            "every other": np.repeat(x, 2)[::2],
            "offset 1": _at_offset(x, 1),
            "3-D": grid.reshape(-1, 3, 2),
        }
        for name, v in views.items():
            got = transform(v)
            assert got.shape == v.shape, name
            np.testing.assert_array_equal(_bits(got), _bits(reference(np.ascontiguousarray(v))),
                                          err_msg=name)

    def test_scalars_return_float(self, transform, reference, inputs):
        for x in inputs()["edges"]:
            for arg in (float(x), np.float64(x), np.array(x)):
                got = transform(arg)
                assert type(got) is float
                assert _bits(got)[0] == _bits(reference(np.array([x])))[0]


class TestVectorOps:
    def test_additive_identity(self):
        x = np.array([0.4, 1.7, 22.0])
        ident = np.full(3, LOG2)
        np.testing.assert_allclose(tadd(x, ident), x, atol=1e-12)

    def test_tadd_by_definition(self):
        got = tadd(softplus(np.array([1.0])), softplus(np.array([2.0])))
        np.testing.assert_allclose(got, softplus(np.array([3.0])), atol=1e-12)

    def test_tadd_large_values_asymptotic(self):
        got = tadd(np.array([100.0]), np.array([200.0]))
        assert got[0] == pytest.approx(300.0, abs=1e-12)

    def test_tadd_commutes(self):
        x = np.array([0.3, 5.0])
        y = np.array([2.0, 0.01])
        np.testing.assert_allclose(tadd(x, y), tadd(y, x), atol=0)

    def test_tadd_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tadd(np.ones(2), np.ones(3))

    def test_underflow_gives_the_least_positive_double(self):
        """t(y) = exp(y) is 0 in float64 below y of about -745; the result
        stays inside the orthant, for arrays and for a scalar alike."""
        assert tadd(np.array([5e-324, 1.0]), np.array([5e-324, 1.0]))[0] == 5e-324
        out = tscale(3.0, 1e-200)  # 3 log(1e-200) = -1381.6
        assert out == 5e-324 and type(out) is float

    def test_tscale_identity_and_zero(self):
        x = np.array([0.2, 3.0, 40.0])
        np.testing.assert_allclose(tscale(1.0, x), x, atol=1e-12)
        np.testing.assert_allclose(tscale(0.0, x), np.full(3, LOG2), atol=1e-15)

    def test_tscale_by_definition(self):
        np.testing.assert_allclose(tscale(2.0, softplus(np.array([3.0]))),
                                   softplus(np.array([6.0])), atol=1e-12)

    @given(st.lists(preimage, min_size=1, max_size=6),
           st.lists(preimage, min_size=1, max_size=6),
           st.floats(min_value=-8, max_value=8, allow_nan=False))
    def test_vector_space_axioms_in_preimage_space(self, ys, zs, a):
        n = min(len(ys), len(zs))
        x = softplus(np.asarray(ys[:n]))
        y = softplus(np.asarray(zs[:n]))
        # inverses: x (+) (-1 * x) = t(0)
        np.testing.assert_allclose(tadd(x, tscale(-1.0, x)), np.full(n, LOG2), atol=1e-10)
        # distributivity: a * (x (+) y) = (a * x) (+) (a * y)
        left = tscale(a, tadd(x, y))
        right = tadd(tscale(a, x), tscale(a, y))
        np.testing.assert_allclose(softplus_inv(left), softplus_inv(right), atol=1e-10)

    def test_associativity(self):
        x = softplus(np.array([0.5, -2.0]))
        y = softplus(np.array([1.5, 3.0]))
        z = softplus(np.array([-0.7, 0.1]))
        np.testing.assert_allclose(tadd(tadd(x, y), z), tadd(x, tadd(y, z)), atol=1e-12)


class TestMatmul:
    def test_identity_matrix(self):
        x = np.array([0.9, 4.0, 0.02])
        np.testing.assert_allclose(tmatmul(np.eye(3), x), x, atol=1e-12)

    def test_zero_element_fixed_point(self):
        x = np.full(3, LOG2)
        A = np.array([[1.0, -4.0, 2.0], [0.5, 0.0, 9.0]])
        np.testing.assert_allclose(tmatmul(A, x), np.full(2, LOG2), atol=1e-14)

    def test_ar1_application(self):
        # direct product oracle: ar1(0.7, 4) @ ones = (1, 1.7, 2.19, 2.533)
        A = ar1_matrix(0.7, 4)
        expected = softplus(np.array([1.0, 1.7, 2.19, 2.533]))
        np.testing.assert_allclose(tmatmul(A, softplus(np.ones(4))), expected, atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(2, 3))
        x = softplus(rng.normal(size=4))
        np.testing.assert_allclose(tmatmul(B, tmatmul(A, x)), tmatmul(B @ A, x), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tmatmul(np.eye(3), np.ones(4))


class TestZeroClipAndTailRatio:
    def test_zero_clip_examples(self):
        np.testing.assert_array_equal(zero_clip([[1.0, -2.0], [0.0, 3.0]]),
                                      [[1.0, 0.0], [0.0, 3.0]])
        A = np.array([[0.5, 2.0]])
        np.testing.assert_array_equal(zero_clip(A), A)
        np.testing.assert_array_equal(zero_clip([[-1.0, -0.1]]), [[0.0, 0.0]])

    def test_tail_ratio_examples(self):
        assert tail_ratio([1.0, 0.0]) == 1.0
        assert tail_ratio([-1.0, 2.0]) == 4.0
        assert tail_ratio([0.7, 1.0, 0.0, 0.0]) == pytest.approx(1.49, abs=0)

    @given(st.lists(finite_coef, min_size=1, max_size=8))
    def test_tail_ratio_invariances(self, coefs):
        a = np.asarray(coefs)
        assert tail_ratio(a) == pytest.approx(tail_ratio(zero_clip(a)), abs=0)
        assert tail_ratio(np.concatenate([a, np.zeros(3)])) == pytest.approx(tail_ratio(a), rel=1e-15)

    @given(st.lists(finite_coef, min_size=1, max_size=8),
           st.lists(finite_coef, min_size=1, max_size=8))
    def test_metric_matches_tail_ratio_of_max(self, c1, c2):
        # squared coefficient distance equals the tail ratio of the larger of
        # the two differences: positive parts of c and -c partition |c|^2
        n = min(len(c1), len(c2))
        d = np.asarray(c1[:n]) - np.asarray(c2[:n])
        assert tail_ratio(d) + tail_ratio(-d) == pytest.approx(float(np.sum(d ** 2)), rel=1e-12, abs=1e-12)
