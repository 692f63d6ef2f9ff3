import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.stats import rankdata

from tailgraph import (
    DataError,
    DegenerateMarginError,
    DimensionError,
    DomainError,
    InsufficientExceedancesError,
    NumericalError,
    TailSample,
    ar1_matrix,
    construct,
    estimate_mass,
    estimate_sigma_pair,
    estimate_tpdm,
    marginal_transform,
    polar2,
    sample_noise,
    softplus_inv,
    solve_delta,
)
from tailgraph import inference, tpdm
from tailgraph.tpdm import MIN_EXCEEDANCES, _average_ranks, _radial_exceedances, _resolve_mass


def _preimage_mean(delta: float) -> float:
    """Reference E[t^-1(P - delta)] for P standard Pareto(2), by quadrature.

    The integral of log(exp(x - delta) - 1) * 2 x^-3 over (1, inf); needs
    delta < 1 so the shifted support stays positive.  Split at 2 because the
    integrand steepens near the lower endpoint as delta approaches 1.
    """
    def integrand(x):
        return softplus_inv(x - delta) * 2.0 * x ** -3

    v1, e1 = integrate.quad(integrand, 1.0, 2.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    v2, e2 = integrate.quad(integrand, 2.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert np.isfinite(v1 + v2) and e1 + e2 <= 1e-9, f"quadrature error {e1 + e2:.2e}"
    return v1 + v2


class TestTailSample:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_entry_is_data_error(self, bad):
        X = np.ones((5, 2))
        X[3, 1] = bad
        with pytest.raises(DataError, match="finite and strictly positive"):
            TailSample(X)


class TestSolveDelta:
    def test_reproduces_known_shift(self):
        assert solve_delta() == pytest.approx(0.9352, abs=5e-4)

    def test_shiftless_preimage_mean_positive(self):
        assert _preimage_mean(0.0) > 0.0

    def test_literal_is_the_root_of_its_definition(self):
        root = optimize.brentq(_preimage_mean, 0.2, 0.999, xtol=1e-10)
        assert abs(root - solve_delta()) < 1e-10
        assert abs(_preimage_mean(solve_delta())) < 1e-8

    def test_monte_carlo_centering(self):
        delta = solve_delta()
        rng = np.random.default_rng(17)
        x = 1.0 / np.sqrt(1.0 - rng.random(10 ** 6)) - delta
        assert abs(float(np.mean(softplus_inv(x)))) < 3e-3


class TestMarginalTransform:
    def test_three_point_column(self):
        delta = solve_delta()
        sample = marginal_transform(np.array([[1.0], [2.0], [3.0]]))
        expected = np.array([1.0 / np.sqrt(0.75), 1.0 / np.sqrt(0.5), 2.0]) - delta
        np.testing.assert_allclose(sample.data[:, 0], expected, atol=1e-12)

    def test_preserves_order(self):
        raw = np.random.default_rng(1).normal(size=(500, 1))
        out = marginal_transform(raw).data[:, 0]
        assert np.array_equal(np.argsort(raw[:, 0]), np.argsort(out))

    def test_upper_quantile_matches_pareto(self):
        delta = solve_delta()
        raw = np.random.default_rng(11).gamma(2.0, 3.0, (10 ** 5, 1))
        q99 = np.quantile(marginal_transform(raw).data[:, 0], 0.99)
        assert q99 == pytest.approx(10.0 - delta, rel=0.05)

    def test_all_outputs_above_support_floor(self):
        delta = solve_delta()
        raw = np.random.default_rng(2).normal(size=(200, 3))
        out = marginal_transform(raw)
        assert out.data.min() > 1.0 - delta > 0.0

    def test_ties_get_average_ranks(self):
        sample = marginal_transform(np.array([[1.0], [1.0], [2.0], [3.0]]))
        assert sample.data[0, 0] == sample.data[1, 0]

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateMarginError):
            marginal_transform(np.ones((50, 2)))

    @given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                              st.floats(-1e6, 1e6, allow_nan=False)), min_size=2, max_size=80))
    @example([1.0, 2.0])
    @example([2.0, 1.0])
    @example([5.0, 5.0, 5.0, 5.0, -1.0])
    @example([-0.0, 0.0, -0.0, 1.0])
    @example([-7.5, -2.0, -7.5, -2.0, -2.0, -30.0])
    def test_average_ranks_match_rankdata(self, values):
        x = np.array(values)
        assert _average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    def test_average_ranks_of_strided_heavily_tied_column(self):
        X = np.random.default_rng(4).integers(0, 5, size=(3000, 3)).astype(float)
        for j in range(3):
            assert (_average_ranks(X[:, j]).tobytes()
                    == rankdata(X[:, j], method="average").tobytes())

    @pytest.mark.parametrize("n", [40_000, 1000, 17])
    def test_average_ranks_of_signed_zeros_and_heavy_ties(self, n):
        """-0.0 and 0.0 compare equal and share one tie group, whatever order an
        unstable sort leaves them in."""
        levels = np.array([-0.0, 0.0, -2.5, 1.0, 7.0])
        X = levels[np.random.default_rng(n).integers(0, 5, size=(n, 2))]
        for x in (X[:, 0], X[:, 1], np.ascontiguousarray(X[:, 0])):
            zeros = np.signbit(x[x == 0.0])
            assert zeros.any() and not zeros.all()
            assert _average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            marginal_transform(np.array([[1.0], [np.inf]]))


class TestPolar2:
    def test_three_four_five(self):
        r, w = polar2(np.array([3.0]), np.array([4.0]))
        assert r[0] == pytest.approx(5.0)
        np.testing.assert_allclose(w[0], [0.6, 0.8])

    def test_diagonal_direction(self):
        for a in (0.1, 7.0):
            _, w = polar2(np.array([a]), np.array([a]))
            np.testing.assert_allclose(w[0], [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        _, w = polar2(rng.random(100) + 0.01, rng.random(100) + 0.01)
        np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-12)

    def test_zero_rows_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="zero observations"):
            r, w = polar2(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert r.shape == (1,)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            polar2(np.ones(3), np.ones(4))


class TestEstimateSigmaPair:
    def test_comonotone_is_exactly_one(self):
        x = 1.0 / np.sqrt(1.0 - np.random.default_rng(0).random(2000))
        sigma, k, angles = estimate_sigma_pair(x, x, 0.95, mass=2.0)
        assert sigma == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(angles, 1 / np.sqrt(2), atol=1e-12)

    def test_independent_pairs_bias_decays_with_threshold(self):
        # On the positive orthant the angular products of independent pairs
        # stay ~0.1 per unit mass at moderate thresholds and vanish only as
        # the threshold grows; both regimes are pinned here.
        delta = solve_delta()
        u = np.random.default_rng(0).random((10 ** 6, 2))
        x = 1.0 / np.sqrt(1.0 - u) - delta
        s95, _, _ = estimate_sigma_pair(x[:10 ** 5, 0], x[:10 ** 5, 1], 0.95, mass=2.0)
        s999, _, _ = estimate_sigma_pair(x[:, 0], x[:, 1], 0.999, mass=2.0)
        assert 0.1 < s95 < 0.3
        assert abs(s999) < 0.1 < abs(s95)

    def test_ar1_lag2_entry(self):
        A = ar1_matrix(0.7, 4)
        X = construct(A, sample_noise(4, 10 ** 5, seed=0))
        sigma, k, _ = estimate_sigma_pair(X[:, 1], X[:, 3], 0.95, mass="estimate")
        assert sigma == pytest.approx(0.7301, abs=0.1)
        assert k >= 4000

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x, y = rng.pareto(2, 1000) + 1, rng.pareto(2, 1000) + 1
        a, _, _ = estimate_sigma_pair(x, y, 0.9, mass=2.0)
        b, _, _ = estimate_sigma_pair(y, x, 0.9, mass=2.0)
        assert a == b

    def test_too_few_exceedances(self):
        x = 1.0 / np.sqrt(1.0 - np.random.default_rng(0).random(60))
        with pytest.raises(InsufficientExceedancesError):
            estimate_sigma_pair(x, x, 0.95)

    def test_too_short(self):
        with pytest.raises(DataError):
            estimate_sigma_pair(np.ones(10), np.ones(10))


class TestEstimateMass:
    def test_exact_algebra(self):
        # with r_(k) = sqrt(n/k) the estimate collapses to 1
        n, k = 100, 5
        r = np.full(n, 0.5)
        r[-k:] = np.sqrt(n / k)
        assert estimate_mass(r, k, n) == pytest.approx(1.0, abs=1e-12)

    def test_unit_scale_bivariate(self):
        u = np.random.default_rng(5).random((10 ** 5, 2))
        x = 1.0 / np.sqrt(1.0 - u)  # exactly unit-scale margins
        r = np.hypot(x[:, 0], x[:, 1])
        k = int((r > np.quantile(r, 0.95)).sum())
        assert estimate_mass(r, k, 10 ** 5) == pytest.approx(2.0, abs=0.2)

    def test_scale_equivariance(self):
        r = np.random.default_rng(1).random(500) + 0.5
        assert estimate_mass(2 * r, 50, 500) == pytest.approx(4 * estimate_mass(r, 50, 500))

    def test_past_float_range_is_numerical_error(self):
        with pytest.raises(NumericalError, match="estimated mass overflows"):
            estimate_mass(np.full(20, 1e200), 10, 20)

    def test_global_tpdm_uses_the_same_estimate(self):
        X = construct(ar1_matrix(0.7, 3), sample_noise(3, 5000, seed=8))
        S = estimate_tpdm(TailSample(X), 0.95, mode="global", mass="estimate")
        assert np.trace(S.entries) == pytest.approx(_global_mass(X, S), rel=1e-12)


def _global_mass(X, S):
    """``estimate_mass`` on the radii of X's rows, scaled so that none overflows,
    at the global TPDM S's k.  The angles are unit vectors, so it is S's trace."""
    m = np.abs(X).max(axis=1)
    r = m * np.sqrt(np.sum((X / m[:, None]) ** 2, axis=1))
    return estimate_mass(r, int(S.k_used[0, 0]), r.size)


class TestResolveMass:
    def test_named_value_and_number_verbatim(self):
        assert _resolve_mass("fixed", 3.0, 10, 100, "fixed", 2.0) == 2.0
        assert _resolve_mass("trace", 3.0, 10, 100, "trace", 1.25) == 1.25
        assert _resolve_mass(0.5, 3.0, 10, 100) == 0.5

    def test_estimate_formula(self):
        assert _resolve_mass("estimate", 3.0, 10, 100, "trace", None) == 9.0 / 100 * 10

    @pytest.mark.parametrize("mass, name, value", [("trace", "trace", None), (0.0, "fixed", 2.0),
                                                   (-1.0, "fixed", 2.0)])
    def test_missing_or_non_positive_mass(self, mass, name, value):
        with pytest.raises(DomainError):
            _resolve_mass(mass, 3.0, 10, 100, name, value)

    @pytest.mark.parametrize("mode", ["global", "pairwise"])
    @pytest.mark.parametrize("mass", ["bogus", "", None])
    def test_unknown_mass_names_accepted_values(self, mode, mass):
        X = construct(ar1_matrix(0.5, 3), sample_noise(3, 2000, seed=10))
        with pytest.raises(DomainError, match="'estimate', 'fixed' or a positive number"):
            estimate_tpdm(TailSample(X), 0.9, mode=mode, mass=mass)


class TestEstimateTpdm:
    def test_comonotone_pairwise(self):
        x = 1.0 / np.sqrt(1.0 - np.random.default_rng(3).random(5000))
        sample = TailSample(np.column_stack([x, x]))
        S = estimate_tpdm(sample, 0.95, mode="pairwise", mass="fixed")
        np.testing.assert_allclose(S.entries, np.ones((2, 2)), atol=1e-12)

    def test_symmetric_output(self):
        X = construct(ar1_matrix(0.5, 4), sample_noise(4, 3000, seed=9))
        S = estimate_tpdm(TailSample(X), 0.9, mode="pairwise", mass="estimate")
        np.testing.assert_array_equal(S.entries, S.entries.T)
        assert S.k_used.min() >= 10

    def test_row_permutation_invariance(self):
        X = construct(ar1_matrix(0.5, 3), sample_noise(3, 2000, seed=10))
        S1 = estimate_tpdm(TailSample(X), 0.9, mode="global", mass="estimate")
        perm = np.random.default_rng(0).permutation(2000)
        S2 = estimate_tpdm(TailSample(X[perm]), 0.9, mode="global", mass="estimate")
        np.testing.assert_allclose(S1.entries, S2.entries, atol=1e-12)

    def test_global_trace_equals_mass(self):
        X = construct(ar1_matrix(0.7, 4), sample_noise(4, 5000, seed=11))
        S = estimate_tpdm(TailSample(X), 0.95, mode="global", mass="estimate")
        assert np.trace(S.entries) == pytest.approx(_global_mass(X, S), rel=1e-12)

    def test_global_fixed_mass_uses_dimension(self):
        x = 1.0 / np.sqrt(1.0 - np.random.default_rng(3).random((4000, 2)))
        S = estimate_tpdm(TailSample(x), 0.9, mode="global", mass="fixed")
        assert np.trace(S.entries) == pytest.approx(2.0, rel=1e-12)

    def test_global_radii_survive_overflowing_squares(self, overflow_sample):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = estimate_tpdm(overflow_sample, 0.95, mode="global", mass="estimate")
        assert np.all(np.isfinite(S.entries))
        assert np.trace(S.entries) == pytest.approx(_global_mass(overflow_sample.data, S),
                                                    rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0 ** -520, 2.0 ** 1000])
    def test_global_fixed_mass_is_scale_free(self, overflow_sample, scale):
        """A power-of-two rescaling is exact: 2^-520 clears the overflowing rows
        of the sample, 2^1000 makes every retained row and the threshold overflow."""
        X = overflow_sample.data if scale < 1 else overflow_sample.data.clip(max=100.0)
        S = estimate_tpdm(TailSample(X), 0.95, mode="global", mass="fixed")
        scaled = estimate_tpdm(TailSample(X * scale), 0.95, mode="global", mass="fixed")
        np.testing.assert_allclose(scaled.entries, S.entries, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["global", "pairwise"])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_radii_whose_squares_leave_the_float_range(self, mode, scale):
        """The squares underflow to subnormals or 0, or overflow: the radii are
        mended, and the counts and entries are those at scale 1."""
        X = construct(ar1_matrix(0.7, 5), sample_noise(5, 4000, seed=3))
        S = estimate_tpdm(TailSample(X), 0.95, mode=mode, mass="fixed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = estimate_tpdm(TailSample(X * scale), 0.95, mode=mode, mass="fixed")
        assert np.array_equal(scaled.k_used, S.k_used)
        np.testing.assert_allclose(scaled.entries, S.entries, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("mode", ["global", "pairwise"])
    def test_estimated_mass_past_float_range_is_numerical_error(self, overflow_sample, mode):
        X = overflow_sample.data.clip(max=100.0) * 2.0 ** 1000
        with pytest.raises(NumericalError, match="estimated mass overflows"):
            estimate_tpdm(TailSample(X), 0.95, mode=mode, mass="estimate")

    def test_unknown_mode(self):
        X = np.ones((100, 2)) + np.random.default_rng(0).random((100, 2))
        with pytest.raises(Exception):
            estimate_tpdm(TailSample(X), mode="sideways")

    def test_insufficient_exceedances_propagates(self):
        X = 1.0 + np.random.default_rng(0).random((60, 2))
        with pytest.raises(InsufficientExceedancesError):
            estimate_tpdm(TailSample(X), 0.95, mode="pairwise")

    def test_inverse_of_estimate_is_near_tridiagonal(self):
        from tailgraph import invert_ipm

        X = construct(ar1_matrix(0.7, 4), sample_noise(4, 10 ** 5, seed=400))
        S = estimate_tpdm(TailSample(X), 0.98, mode="global", mass="estimate")
        Q = invert_ipm(S).entries
        off = max(abs(Q[0, 2]), abs(Q[0, 3]), abs(Q[1, 3]))
        assert off < 0.3


def _reference_radii(X):
    """Squared radii and radii of the rows of X by definition: the root of the
    row sum of squares, and ``m ||x / m||`` (m the row's largest magnitude)
    where that sum leaves ``[tiny, inf)``."""
    with np.errstate(over="ignore"):
        s = np.sum(X ** 2, axis=1)
    r = np.sqrt(s)
    bad = np.flatnonzero((s < np.finfo(float).tiny) | (s == np.inf))
    m = np.abs(X[bad]).max(axis=1)
    r[bad] = m * np.sqrt(np.sum((X[bad] / m[:, None]) ** 2, axis=1))
    return s, r


# power-of-two scales are exact: the squares of these rows underflow or overflow
_SCALES = {"unit": 1.0, "tiny": 2.0 ** -560, "huge": 2.0 ** 530}


class TestExceedanceThreshold:
    """``_radial_exceedances`` against ``np.quantile`` of the radii and its
    strict mask, bit for bit."""

    @given(n=st.integers(50, 20_000), q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           levels=st.sampled_from([0, 2, 7, 300]), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from(["unit", "unit", "tiny", "huge", "mixed"]))
    @example(n=7001, q=0.975, levels=0, seed=0, scale="unit")  # Hyndman-Fan misses the last bit
    @example(n=101, q=0.75, levels=0, seed=1, scale="unit")  # integer virtual index 75
    @example(n=1001, q=0.9506, levels=0, seed=420, scale="unit")  # fraction 0.6: a + d g is off
    @example(n=1001, q=0.9506, levels=7, seed=3, scale="unit")  # the same fraction on tied radii
    @example(n=2000, q=0.98, levels=0, seed=5, scale="tiny")  # every square underflows
    @example(n=2000, q=0.98, levels=7, seed=6, scale="huge")  # every square overflows
    @example(n=2000, q=0.9, levels=0, seed=7, scale="mixed")  # some of each, threshold in range
    def test_matches_numpy_on_full_and_candidate_radii(self, n, q, levels, seed, scale):
        rng = np.random.default_rng(seed)
        X = (rng.integers(1, levels + 1, (n, 2)).astype(float) if levels
             else rng.pareto(2.0, (n, 2)) + 1.0)
        if scale == "mixed":  # a tenth of the rows above the overflow range, a tenth below
            X[rng.random(n) < 0.1] *= _SCALES["huge"]
            X[rng.random(n) < 0.1] *= _SCALES["tiny"]
        else:
            X *= _SCALES[scale]
        s, r = _reference_radii(X)
        assert np.all(np.isfinite(r) & (r > 0.0))
        thr = np.quantile(r, q)
        want = np.flatnonzero(r > thr)
        if want.size < MIN_EXCEEDANCES:
            with pytest.raises(InsufficientExceedancesError):
                _radial_exceedances(s, q, X.T)
            return
        idx, radii, k, got = _radial_exceedances(s, q, X.T)
        assert np.float64(got).tobytes() == thr.tobytes()
        assert np.array_equal(idx, want) and k == want.size
        assert radii.tobytes() == r[want].tobytes()
        # a candidate subset: every radius at or above the floor((n-1) q)-th smallest, plus others
        lo = math.floor((n - 1) * q)
        keep = np.flatnonzero((r >= np.partition(r, lo)[lo]) | (rng.random(n) < 0.3))
        sub_idx, sub_radii, sub_k, sub_thr = _radial_exceedances(s[keep], q, X[keep].T, n=n)
        assert np.float64(sub_thr).tobytes() == thr.tobytes()
        assert sub_k == k and np.array_equal(keep[sub_idx], want)
        assert sub_radii.tobytes() == radii.tobytes()


def _float_order_statistics(v, q, n):
    """``tpdm._order_statistics`` as a float64 partition: a at the shifted kth,
    b the least non-NaN value after it (NaN when there is none)."""
    h = (n - 1) * q
    kth = math.floor(h) - (n - v.size)
    part = np.partition(v, kth)
    b = np.fmin.reduce(part[kth + 1:]) if kth + 1 < v.size else part[kth]
    return float(part[kth]), float(b), h - math.floor(h)


# The values a square, a sum of squares or a root of one can take.  Arithmetic
# makes only quiet NaNs; fmin, the reference's reduction, returns NaN for a
# signaling one.
_SPECIAL_BITS = {
    "zero": 0, "min_subnormal": 1, "subnormal": 0x000F_FFFF_FFFF_FFFF, "tiny": 0x0010 << 48,
    "inf": 0x7FF0 << 48, "nan": 0x7FF8 << 48, "nan_payload": (0x7FF8 << 48) | 5,
    "negative_nan": 0xFFF8 << 48, "negative_nan_payload": (0xFFF8 << 48) | 3,
}


class TestOrderStatistics:
    """The unsigned partition of ``_order_statistics`` against a float64 partition."""

    @given(n=st.integers(1, 400), q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           kinds=st.lists(st.sampled_from(["normal", "normal", *_SPECIAL_BITS]), min_size=1,
                          max_size=6, unique=True),
           subset=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=200, q=0.95, kinds=["normal", "nan", "negative_nan"], subset=True, seed=0)
    @example(n=50, q=0.5, kinds=["inf", "negative_nan", "zero"], subset=False, seed=1)
    def test_bit_identical_to_float_partition(self, n, q, kinds, subset, seed):
        """Bit for bit on ``+0``, subnormals, normal values, ``+inf`` and NaNs of
        both signs, on all n values and on a subset holding every value at or
        above a.  A NaN result compares as NaN: a float partition leaves NaNs in
        no defined order, so which one lands at kth is arbitrary there."""
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(kinds), n)
        bits = rng.pareto(2.0, n).view(np.uint64)  # normal values
        for c, kind in enumerate(kinds):
            if kind != "normal":
                bits[pick == c] = _SPECIAL_BITS[kind]
        full = bits.view(np.float64)
        v = full
        if subset:  # every value from the floor((n-1) q)-th smallest up, and a few below
            order = np.argsort(full, kind="stable")
            rank = np.empty(n, dtype=int)
            rank[order] = np.arange(n)
            v = rng.permutation(full[(rank >= math.floor((n - 1) * q)) | (rng.random(n) < 0.3)])
        got = tpdm._order_statistics(v.copy(), q, n)
        want = _float_order_statistics(v.copy(), q, n)
        assert got[2] == want[2]
        for g, w in zip(got[:2], want[:2]):
            assert (math.isnan(g) and math.isnan(w)) or np.float64(g).tobytes() == \
                np.float64(w).tobytes()


def _reference_pairwise(X, q, mass):
    """The pairwise TPDM as it was before tail candidates: every pair on its whole columns."""
    p = X.shape[1]
    S = np.zeros((p, p))
    K = np.zeros((p, p), dtype=int)
    for i in range(p):
        for j in range(i, p):
            sigma, k, _ = estimate_sigma_pair(X[:, i], X[:, j], q, mass)
            S[i, j] = S[j, i] = sigma
            K[i, j] = K[j, i] = k
    return S, K


def _hypot_pairwise(X, q, mass):
    """The pairwise TPDM with the pair radius taken by ``np.hypot``, as it was
    before the squared-radius thresholds: whole columns, numpy's quantile, a
    strict mask."""
    n, p = X.shape
    S = np.zeros((p, p))
    K = np.zeros((p, p), dtype=int)
    for i in range(p):
        for j in range(i, p):
            a, b = X[:, i], X[:, j]
            r = np.hypot(a, b)
            mask = r > np.quantile(r, q)
            k = int(mask.sum())
            m = _resolve_mass(mass, float(r[mask].min()), k, n, "fixed", 2.0)
            S[i, j] = S[j, i] = m / k * float(np.sum((a[mask] / r[mask]) * (b[mask] / r[mask])))
            K[i, j] = K[j, i] = k
    return S, K


def _outcome(fn, *args):
    """What ``fn`` returns, or the class, message and count of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the error must match too
        return type(exc), str(exc), getattr(exc, "k", None)


class TestPairwiseCandidates:
    """The pairwise TPDM on tail candidates against the whole-column pair loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [5, 12])
    @pytest.mark.parametrize("kind", ["raw", "preprocessed", "tied"])
    def test_bit_identical_to_the_pair_loop(self, seed, p, kind):
        X = construct(ar1_matrix(0.7, p), sample_noise(p, 3000, seed=seed))
        if kind == "preprocessed":
            X = marginal_transform(X).data
        elif kind == "tied":
            X = np.ceil(X * 2.0) / 2.0  # half-unit grid: most rows share values
        for q in (0.9, 0.95, 0.975, 0.99):
            for mass in ("fixed", "estimate"):
                S = estimate_tpdm(TailSample(X), q, mode="pairwise", mass=mass)
                want_S, want_K = _reference_pairwise(X, q, mass)
                assert np.array_equal(S.entries, want_S), (q, mass)
                assert np.array_equal(S.k_used, want_K), (q, mass)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["raw", "preprocessed", "tied"])
    def test_hypot_radius_moves_entries_by_rounding_only(self, seed, kind):
        """``sqrt(a^2 + b^2)`` and ``hypot(a, b)`` differ by at most an ulp or so:
        the exceedance counts are the same, the entries agree to 2e-15."""
        X = construct(ar1_matrix(0.7, 8), sample_noise(8, 3000, seed=seed))
        if kind == "preprocessed":
            X = marginal_transform(X).data
        elif kind == "tied":
            X = np.ceil(X * 2.0) / 2.0
        for q in (0.9, 0.95, 0.975, 0.99):
            for mass in ("fixed", "estimate"):
                S = estimate_tpdm(TailSample(X), q, mode="pairwise", mass=mass)
                want_S, want_K = _hypot_pairwise(X, q, mass)
                assert np.array_equal(S.k_used, want_K), (q, mass)
                np.testing.assert_allclose(S.entries, want_S, rtol=2e-15, atol=0)

    @pytest.mark.parametrize("X, q, mass", [
        (1.0 + np.arange(80.0).reshape(40, 2), 0.95, "fixed"),  # n < 50
        (1.0 + np.arange(80.0).reshape(40, 2), 1.5, "fixed"),  # q comes before n < 50
        (1.0 + np.random.default_rng(0).random((60, 2)), 0.95, "fixed"),  # too few exceedances
        (np.full((200, 3), 2.0), 0.9, "fixed"),  # constant: every row a candidate, no exceedance
        (1.0 + np.random.default_rng(1).random((500, 3)), 0.9, "bogus"),  # mass, on entry
        (1.0 + np.random.default_rng(2).random((500, 3)), 1.0, "fixed"),
    ], ids=["short", "short-and-bad-q", "few-exceedances", "constant", "bad-mass", "bad-q"])
    def test_errors_match_the_pair_loop(self, X, q, mass):
        got = _outcome(lambda: estimate_tpdm(TailSample(X), q, mode="pairwise", mass=mass))
        want = _outcome(_reference_pairwise, X, q, mass)
        assert isinstance(got, tuple) and got == want

    def test_first_failing_pair_in_loop_order(self):
        # at n=200, q=0.95 a continuous pair keeps 10 exceedances; (1, 1) keeps 7 (seven
        # values above a tie of ten), (2, 2) none (its top twenty tie); (1, 1) comes first
        x = 1.0 + np.random.default_rng(4).pareto(2.0, (200, 3))
        x[:10, 1] = 500.0
        x[10:17, 1] = 600.0 + np.arange(7)
        x[:20, 2] = 1000.0
        got = _outcome(lambda: estimate_tpdm(TailSample(x), 0.95, mode="pairwise"))
        assert got == _outcome(_reference_pairwise, x, 0.95, "fixed")
        assert got == (InsufficientExceedancesError,
                       "pair estimate: only 7 exceedances (need >= 10)", 7)


# The pair kernels as they were before the lean forms, kept as references: both
# order statistics from one two-kth partition of the radii, every radius taken
# from the row sum of squares, exceedances by boolean mask.
def _two_kth_threshold(r, q, n=None):
    if not 0.0 < q < 1.0:
        raise DomainError("radial quantile must lie in (0, 1)")
    if not r.size:
        return 0.0
    n = r.size if n is None else n
    v = (n - 1) * q
    lo = math.floor(v)
    g = v - lo
    skip = n - r.size
    kth = [lo - skip, min(lo + 1, n - 1) - skip]
    a, b = np.partition(r, kth)[kth].tolist()
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _row_sum_exceedances(s, q, cols, context="", n=None):
    """``_radial_exceedances`` by the reference kernels; ``s`` is taken again
    from the columns."""
    X = np.stack(cols, axis=1)
    with np.errstate(over="ignore"):
        r = tpdm._radii(np.sum(X ** 2, axis=1), cols)
    thr = _two_kth_threshold(r, q, n)
    mask, k = tpdm._strict_exceedances(r, thr, context)
    return mask.nonzero()[0], r[mask], k, thr


def _mask_pair_moment(a, b, s, n, q_radial, mass):
    with np.errstate(over="ignore"):
        r = tpdm._radii(a * a + b * b, (a, b))
    mask, k = tpdm._strict_exceedances(r, _two_kth_threshold(r, q_radial, n), "pair estimate")
    rk = r[mask]
    m = tpdm._resolve_mass(mass, float(rk.min()), k, n, "fixed", 2.0)
    wk = np.column_stack((a[mask], b[mask])) / rk[:, None]
    return m / k * float(np.sum(wk[:, 0] * wk[:, 1])), k, wk[:, 0], wk[:, 1]


def _install_reference_kernels(monkeypatch):
    monkeypatch.setattr(tpdm, "_radial_exceedances", _row_sum_exceedances)
    monkeypatch.setattr(inference, "_radial_exceedances", _row_sum_exceedances)
    monkeypatch.setattr(tpdm, "_pair_moment", _mask_pair_moment)


def _fit_bytes(sample, gamma, q_pred, q_res):
    """Every pair's outcome: the bytes of its C, sigma_u, tau2 and t and its k, or its error."""
    _, fit = inference._pair_pipeline(sample, gamma, q_pred, q_res)
    out = []
    for pair in itertools.combinations(range(sample.p), 2):
        got = _outcome(fit, pair)
        if not isinstance(got[0], type):  # not an error class: the fit's outputs
            C, sigma_u, tau2, k, t = got
            got = (C.tobytes(), np.array([sigma_u, tau2, t]).tobytes(), k)
        out.append(got)
    return out


class TestLeanKernels:
    """The TPDM and every pair's statistics against the reference kernels, bit for bit."""

    @pytest.mark.parametrize("kind, mode, mass", [("preprocessed", "pairwise", "fixed"),
                                                  ("raw", "global", "estimate"),
                                                  ("tied", "pairwise", "estimate")])
    @pytest.mark.parametrize("p", [3, 4, 10, 30])
    @pytest.mark.parametrize("n", [60, 2000, 10_000])
    def test_bit_identical_to_reference_kernels(self, monkeypatch, n, p, kind, mode, mass):
        X = construct(ar1_matrix(0.7, p), sample_noise(p, n, seed=n + p))
        if kind == "preprocessed":
            X = marginal_transform(X).data
        elif kind == "tied":
            X = np.ceil(X * 2.0) / 2.0  # half-unit grid: tied radii
        sample = TailSample(X)
        grid = [(q_pred, q_res) for q_pred in (0.9, 0.98) for q_res in (None, 0.98, 0.99)]
        S = _outcome(lambda: estimate_tpdm(sample, 0.8, mode=mode, mass=mass))
        got = [] if isinstance(S, tuple) else [_fit_bytes(sample, S, *qs) for qs in grid]
        _install_reference_kernels(monkeypatch)
        if mode == "pairwise":
            want_S = _outcome(_reference_pairwise, X, 0.8, mass)
        else:
            want_S = _outcome(lambda: estimate_tpdm(sample, 0.8, mode=mode, mass=mass))
            want_S = want_S if isinstance(want_S, tuple) else (want_S.entries, want_S.k_used)
        if isinstance(S, tuple):  # the TPDM failed (tied rows at n=60): so must the reference
            assert S == want_S
            return
        assert S.entries.tobytes() == want_S[0].tobytes()
        assert np.array_equal(S.k_used, want_S[1])
        for qs, have in zip(grid, got):
            assert have == _fit_bytes(sample, S, *qs), qs


def _residual_rows(case):
    """(2000, 2) residuals: overflowing squares in retained rows, enough of them
    to push the threshold to inf, or a unit grid with ties at the threshold."""
    rng = np.random.default_rng(11)
    U = rng.standard_normal((2000, 2))
    if case == "overflow":  # 20 rows: above the 0.98 threshold, which stays finite
        U[rng.choice(2000, 20, replace=False)] = rng.uniform(0.1, 0.6, (20, 2)) * 1e308
    elif case == "inf_threshold":  # 100 rows: the threshold is inf until every radius is mended
        U[rng.choice(2000, 100, replace=False)] = rng.uniform(-0.6, 0.6, (100, 2)) * 1e308
    else:  # 48 radii equal the threshold and drop; 19 lie above it
        U = np.ceil(U)
    return U


class TestResidualLayouts:
    """``_retain_exceedances`` takes the residuals as two rows: a C-ordered (2, n)
    array, as both runner paths form them, or the transpose of an (n, 2) array.
    On the same residuals both layouts give the rows, radii, threshold and k of
    the row-sum reference, bit for bit.  No product is formed, so this holds on
    any BLAS."""

    @pytest.mark.parametrize("case", ["overflow", "inf_threshold", "ties"])
    def test_both_layouts_give_the_reference_bits(self, case):
        U = _residual_rows(case)
        rows_first = np.ascontiguousarray(U.T).T
        assert U.flags.c_contiguous and rows_first.flags.f_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, radii, k, thr = _row_sum_exceedances(None, 0.98, U.T)
            rows = U[idx]
            kept = [inference._retain_exceedances(X.T, 0.98, None) for X in (U, rows_first)]
        got = [(res.u, res.r, len(res), res.threshold) for res in kept]
        assert np.all(np.isfinite(radii)) and np.isfinite(thr)
        if case == "overflow":  # retained rows mended, threshold untouched
            assert radii.max() > 1e307 and thr < 10.0
        elif case == "inf_threshold":
            assert thr > 1e300
        elif case == "ties":
            assert np.count_nonzero(np.sqrt(np.sum(U ** 2, axis=1)) == thr) > 1 and k < 40
        for g_rows, g_radii, g_k, g_thr in got:
            assert g_rows.tobytes() == rows.tobytes()
            assert g_radii.tobytes() == radii.tobytes()
            assert (g_k, g_thr) == (k, thr)
