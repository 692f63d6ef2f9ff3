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
from tailgraph.tpdm import MIN_EXCEEDANCES, _average_ranks, _exceedance_mask, _resolve_mass


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
        assert sample.margin == "shifted-pareto"
        assert sample.delta == pytest.approx(delta)

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
        r = np.sqrt(np.sum(X ** 2, axis=1))
        assert S.mass == estimate_mass(r, int(S.k_used[0, 0]), r.size)


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
        sample = TailSample(np.column_stack([x, x]), margin="shifted-pareto")
        S = estimate_tpdm(sample, 0.95, mode="pairwise", mass="fixed")
        np.testing.assert_allclose(S.entries, np.ones((2, 2)), atol=1e-12)

    def test_symmetric_output(self):
        X = construct(ar1_matrix(0.5, 4), sample_noise(4, 3000, seed=9))
        S = estimate_tpdm(TailSample(X, margin="raw"), 0.9, mode="pairwise", mass="estimate")
        np.testing.assert_array_equal(S.entries, S.entries.T)
        assert S.kind == "estimated"
        assert S.k_used.min() >= 10

    def test_row_permutation_invariance(self):
        X = construct(ar1_matrix(0.5, 3), sample_noise(3, 2000, seed=10))
        S1 = estimate_tpdm(TailSample(X, margin="raw"), 0.9, mode="global", mass="estimate")
        perm = np.random.default_rng(0).permutation(2000)
        S2 = estimate_tpdm(TailSample(X[perm], margin="raw"), 0.9, mode="global", mass="estimate")
        np.testing.assert_allclose(S1.entries, S2.entries, atol=1e-12)

    def test_global_trace_equals_mass(self):
        X = construct(ar1_matrix(0.7, 4), sample_noise(4, 5000, seed=11))
        S = estimate_tpdm(TailSample(X, margin="raw"), 0.95, mode="global", mass="estimate")
        assert np.trace(S.entries) == pytest.approx(S.mass, rel=1e-12)

    def test_global_fixed_mass_uses_dimension(self):
        x = 1.0 / np.sqrt(1.0 - np.random.default_rng(3).random((4000, 2)))
        S = estimate_tpdm(TailSample(x, margin="shifted-pareto"), 0.9, mode="global", mass="fixed")
        assert np.trace(S.entries) == pytest.approx(2.0, rel=1e-12)

    def test_global_radii_survive_overflowing_squares(self, overflow_sample):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = estimate_tpdm(overflow_sample, 0.95, mode="global", mass="estimate")
        assert np.all(np.isfinite(S.entries))
        assert np.trace(S.entries) == pytest.approx(S.mass, rel=1e-12)  # unit angles

    @pytest.mark.parametrize("scale", [2.0 ** -520, 2.0 ** 1000])
    def test_global_fixed_mass_is_scale_free(self, overflow_sample, scale):
        """A power-of-two rescaling is exact: 2^-520 clears the overflowing rows
        of the sample, 2^1000 makes every retained row and the threshold overflow."""
        X = overflow_sample.data if scale < 1 else overflow_sample.data.clip(max=100.0)
        S = estimate_tpdm(TailSample(X), 0.95, mode="global", mass="fixed")
        scaled = estimate_tpdm(TailSample(X * scale), 0.95, mode="global", mass="fixed")
        np.testing.assert_allclose(scaled.entries, S.entries, rtol=0, atol=1e-12)

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
        S = estimate_tpdm(TailSample(X, margin="raw"), 0.98, mode="global", mass="estimate")
        Q = invert_ipm(S).entries
        off = max(abs(Q[0, 2]), abs(Q[0, 3]), abs(Q[1, 3]))
        assert off < 0.3


class TestExceedanceThreshold:
    """``_exceedance_mask`` against ``np.quantile`` and its strict mask, bit for bit."""

    @given(n=st.integers(50, 20_000), q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           levels=st.sampled_from([0, 2, 7, 300]), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=7001, q=0.975, levels=0, seed=0)     # the Hyndman-Fan form misses the last bit
    @example(n=101, q=0.75, levels=0, seed=1)       # integer virtual index 75
    @example(n=1001, q=0.9506, levels=0, seed=420)  # fraction 0.6, where a + d g is one ulp off
    @example(n=1001, q=0.9506, levels=7, seed=3)    # the same fraction on tied radii
    def test_matches_numpy_on_full_and_candidate_radii(self, n, q, levels, seed):
        rng = np.random.default_rng(seed)
        r = rng.integers(1, levels + 1, n).astype(float) if levels else rng.pareto(2.0, n) + 1.0
        thr = np.quantile(r, q)
        want = r > thr
        if want.sum() < MIN_EXCEEDANCES:
            with pytest.raises(InsufficientExceedancesError):
                _exceedance_mask(r, q)
            return
        mask, k, got = _exceedance_mask(r, q)
        assert np.float64(got).tobytes() == thr.tobytes()
        assert np.array_equal(mask, want) and k == want.sum()
        # a candidate subset: every radius at or above the floor((n-1) q)-th smallest, plus others
        lo = math.floor((n - 1) * q)
        keep = (r >= np.partition(r, lo)[lo]) | (rng.random(n) < 0.3)
        sub_mask, sub_k, sub_thr = _exceedance_mask(r[keep], q, n=n)
        assert np.float64(sub_thr).tobytes() == thr.tobytes()
        assert sub_k == k and np.array_equal(sub_mask, want[keep])


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

    @pytest.mark.parametrize("X, q, mass", [
        (1.0 + np.arange(80.0).reshape(40, 2), 0.95, "fixed"),  # n < 50
        (1.0 + np.arange(80.0).reshape(40, 2), 1.5, "fixed"),  # n < 50 comes before q
        (1.0 + np.random.default_rng(0).random((60, 2)), 0.95, "fixed"),  # too few exceedances
        (np.full((200, 3), 2.0), 0.9, "fixed"),  # constant: every row a candidate, no exceedance
        (1.0 + np.random.default_rng(1).random((500, 3)), 0.9, "bogus"),  # mass, at the first pair
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
