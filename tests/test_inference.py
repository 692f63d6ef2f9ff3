import math
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from tailgraph import (
    DataError,
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    InsufficientExceedancesError,
    NumericalError,
    PairRecord,
    Partition,
    PtcTestReport,
    ResidualSample,
    TailSample,
    TailgraphError,
    ar1_matrix,
    conditional_ipm,
    confidence_interval,
    ConditioningError,
    construct,
    coverage_study,
    critical_value,
    estimate_sigma_u,
    estimate_tau2,
    estimate_tpdm,
    marginal_transform,
    ptc_test_all_pairs,
    residuals,
    sample_noise,
    size_power_study,
    softplus_inv,
    solve_b,
    t_statistic,
)
from tailgraph import inference

from conftest import assert_singular_but_testable, record, with_copied_column


@pytest.fixture(scope="module")
def ar1_sample():
    X = construct(ar1_matrix(0.7, 4), sample_noise(4, 10 ** 4, seed=99))
    return TailSample(X)


@pytest.fixture(scope="module")
def ar1_fit(ar1_sample):
    part = Partition.pair(1, 3, 4)
    sigma = estimate_tpdm(ar1_sample, 0.98, mode="global", mass="estimate")
    b = solve_b(sigma, part)
    cond = conditional_ipm(sigma, part)
    return part, b, cond


def make_residual_sample(w, n_total=None, m_trace=1.0, radii=None):
    w = np.asarray(w, dtype=float)
    r = np.ones(len(w)) if radii is None else np.asarray(radii, dtype=float)
    u = w * r[:, None]
    return ResidualSample(u=u, r=r, w=w, n_total=n_total or len(w), threshold=0.0,
                          m_trace=m_trace)


DIAG = 1 / np.sqrt(2)


class TestResiduals:
    def test_exact_fit_degenerates(self, ar1_sample):
        part = Partition.pair(0, 1, 4)
        Y = softplus_inv(ar1_sample.data)
        b = np.linalg.lstsq(Y[:, [2, 3]], Y[:, [0, 1]], rcond=None)[0]
        data = ar1_sample.data.copy()
        from tailgraph import softplus

        data[:, [0, 1]] = softplus(Y[:, [2, 3]] @ b * 0.0)  # forces U identically 0
        exact = TailSample(data)
        with pytest.raises(InsufficientExceedancesError):
            residuals(exact, part, np.zeros((2, 2)) , q_pred=0.98)

    def test_zero_weights_return_target_preimages(self, ar1_sample):
        part = Partition.pair(1, 3, 4)
        res = residuals(ar1_sample, part, np.zeros((2, 2)), q_pred=0.5)
        Y1 = softplus_inv(ar1_sample.data[:, [1, 3]])
        r_all = np.sqrt((Y1 ** 2).sum(axis=1))
        keep = r_all > np.quantile(r_all, 0.5)
        np.testing.assert_allclose(res.u, Y1[keep], atol=0)

    def test_lag2_pair_angles_centered(self, ar1_sample, ar1_fit):
        part, b, cond = ar1_fit
        res = residuals(ar1_sample, part, b, q_pred=0.98, m_trace=float(np.trace(cond)))
        prod = res.w[:, 0] * res.w[:, 1]
        assert abs(prod.mean()) < 0.05

    def test_polar_reconstructs_rows(self, ar1_sample, ar1_fit):
        part, b, cond = ar1_fit
        res = residuals(ar1_sample, part, b, q_pred=0.98)
        np.testing.assert_allclose(res.w * res.r[:, None], res.u, atol=1e-10)
        assert res.n_total == ar1_sample.n
        assert len(res) == int((1 - 0.98) * ar1_sample.n)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 1000])
    def test_radii_survive_overflowing_squares(self, overflow_sample, scale):
        """Squares of the 1e308 rows overflow (scale 1, the retained rows only);
        at 2^1000 the threshold overflows too."""
        X = overflow_sample.data if scale == 1.0 else overflow_sample.data.clip(max=100.0) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = residuals(TailSample(X), Partition.pair(1, 2, 4), np.zeros((2, 2)), q_pred=0.98)
        assert len(res) == 60 and np.all(np.isfinite(res.r))
        np.testing.assert_allclose(np.hypot(res.w[:, 0], res.w[:, 1]), 1.0, rtol=1e-15)

    def test_quantile_domain(self, ar1_sample, ar1_fit):
        part, b, _ = ar1_fit
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                residuals(ar1_sample, part, b, q_pred=bad)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (3, 2), (2, 2, 1)])
    def test_weights_must_be_complement_by_two(self, ar1_sample, shape):
        with pytest.raises(DimensionError, match=r"must be \(2, 2\)"):
            residuals(ar1_sample, Partition.pair(1, 3, 4), np.zeros(shape))


class TestEstimateSigmaU:
    def test_identical_diagonal_angles(self):
        res = make_residual_sample(np.tile([DIAG, DIAG], (40, 1)), m_trace=1.7)
        sigma, m, k = estimate_sigma_u(res, mass="trace")
        assert sigma == pytest.approx(1.7 / 2.0, abs=1e-12)
        assert m == 1.7
        assert k == 40

    def test_balanced_quadrants_cancel(self):
        w = np.tile([[DIAG, DIAG], [-DIAG, DIAG]], (20, 1))
        res = make_residual_sample(w)
        sigma, _, _ = estimate_sigma_u(res)
        assert sigma == pytest.approx(0.0, abs=1e-14)

    def test_mass_estimate_mode(self):
        w = np.tile([DIAG, DIAG], (50, 1))
        res = make_residual_sample(w, n_total=1000, radii=np.full(50, 3.0))
        sigma, m, k = estimate_sigma_u(res, mass="estimate")
        assert m == pytest.approx(9.0 / 1000.0 * 50)
        assert sigma == pytest.approx(m / 2)

    def test_q_res_rethresholds_against_full_count(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(100, 2))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        radii = np.linspace(1, 2, 100)
        res = make_residual_sample(w, n_total=1000, radii=radii)
        _, _, k_tight = estimate_sigma_u(res, q_res=0.98)
        assert k_tight == 20
        _, _, k_loose = estimate_sigma_u(res, q_res=0.9)
        assert k_loose == 100  # retained set already tighter than requested

    def test_lag2_sigma_u_within_two_se_of_zero(self):
        result = coverage_study(phi=0.7, n=10 ** 4, reps=100, q_radial=0.98, seed=5)
        frac = float(np.mean(np.abs(result.t_values) <= 2.0))
        assert frac >= 0.9

    def test_trace_mass_required(self):
        res = make_residual_sample(np.tile([DIAG, DIAG], (20, 1)), m_trace=None)
        with pytest.raises(DomainError):
            estimate_sigma_u(res, mass="trace")

    def test_unknown_mass_names_accepted_values(self):
        res = make_residual_sample(np.tile([DIAG, DIAG], (20, 1)))
        with pytest.raises(DomainError, match="'estimate', 'trace' or a positive number"):
            estimate_sigma_u(res, mass="bogus")

    @pytest.mark.parametrize("q_res", [0.0, 1.0, 1.5, np.nan])
    def test_q_res_checked_by_both_moments(self, q_res):
        res = make_residual_sample(np.tile([[DIAG, DIAG], [-DIAG, DIAG]], (20, 1)))
        with pytest.raises(DomainError, match="q_res must lie in"):
            estimate_sigma_u(res, q_res=q_res)
        with pytest.raises(DomainError, match="q_res must lie in"):
            estimate_tau2(res, 1.0, q_res=q_res)


class TestEstimateTau2:
    def test_identical_angles_degenerate(self):
        res = make_residual_sample(np.tile([DIAG, DIAG], (30, 1)))
        with pytest.raises(DegenerateVarianceError):
            estimate_tau2(res, 1.0)

    def test_axis_alternating_degenerate(self):
        w = np.tile([[1.0, 0.0], [0.0, 1.0]], (15, 1))
        res = make_residual_sample(w)
        with pytest.raises(DegenerateVarianceError):
            estimate_tau2(res, 1.0)

    def test_matches_two_pass_moment_oracle(self, ar1_sample, ar1_fit):
        part, b, cond = ar1_fit
        m_trace = float(np.trace(cond))
        res = residuals(ar1_sample, part, b, q_pred=0.98, m_trace=m_trace)
        tau2 = estimate_tau2(res, m_trace)
        k = len(res)
        prods = [res.w[i, 0] * res.w[i, 1] for i in range(k)]
        e1 = sum(prods) / (k - 1)
        e2 = sum(p * p for p in prods) / (k - 1)
        assert tau2 == pytest.approx(m_trace ** 2 * (e2 - e1 ** 2), rel=1e-12)


class TestTStatistic:
    def test_zero_estimate(self):
        assert t_statistic(0.0, 1.0, 50) == 0.0

    def test_arithmetic(self):
        assert t_statistic(0.5, 1.0, 100) == pytest.approx(5.0)

    def test_sign_follows_estimate(self):
        assert t_statistic(-0.2, 0.5, 30) < 0

    def test_scale_invariance_under_estimated_mass(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(60, 2))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        radii = 1.0 + rng.random(60)

        def tstat(scale):
            res = make_residual_sample(w, n_total=600, radii=scale * radii)
            sigma, m, k = estimate_sigma_u(res, mass="estimate")
            return t_statistic(sigma, estimate_tau2(res, m), k)

        assert tstat(1.0) == pytest.approx(tstat(7.5), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(DegenerateVarianceError):
            t_statistic(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            t_statistic(1.0, 1.0, 1)


# degrees of freedom for the checks against scipy's t quantile
DF_GRID = [2, 3, 4, 5, 7, 10, 13, 19, 30, 49, 50, 99, 100, 250, 999, 1020, 4999, 10 ** 5]
QUANTILE_ULPS = 16  # scipy's stdtrit is itself up to 8 ulp from an exact quantile on this grid


def assert_near_stdtrit(got, df, level):
    want = special.stdtrit(df, level)
    assert abs(got - want) <= QUANTILE_ULPS * math.ulp(want), (df, level, got, want)


class TestConfidenceInterval:
    def test_widths_increase_with_level(self):
        widths = []
        for level in (0.5, 0.8, 0.9, 0.95, 0.99):
            lo, hi = confidence_interval(0.3, 2.0, 40, level)
            widths.append(hi - lo)
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_large_k_limit_is_normal_quantile(self):
        lo, hi = confidence_interval(0.0, 1.0, 10 ** 7, 0.95)
        half = hi * np.sqrt(10 ** 7)
        assert half == pytest.approx(1.959964, abs=1e-4)

    def test_quantile_near_stdtrit(self):
        for df in [1, *DF_GRID, 10 ** 6]:
            for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                # tau2 = k makes the half-width the quantile itself
                lo, hi = confidence_interval(0.0, float(df + 1), df + 1, level)
                assert lo == -hi
                assert_near_stdtrit(hi, df, (1.0 + level) / 2.0)

    @pytest.mark.parametrize("df", [*DF_GRID, 10 ** 6])
    def test_level_rounding_to_zero_gives_zero_width(self, df):
        # (1 + level) / 2 rounds to 1/2, whose quantile is 0, and the computed
        # P(T > 0) may round to either side of 1/2; tau2 = k: the half-width is the quantile
        lo, hi = confidence_interval(0.0, float(df + 1), df + 1, 1e-300)
        assert lo == -hi and 0.0 <= hi <= 1e-15

    @pytest.mark.parametrize("sigma_u, tau2, k, level, error", [
        (0.1, 1.0, 25, 0.0, DomainError),
        (0.1, 1.0, 25, 1.0, DomainError),
        (0.1, 0.0, 25, 0.95, DegenerateVarianceError),
        (0.1, 1.0, 1, 0.95, DomainError),
        (0.1, 1.0, 25.5, 0.95, DomainError),
        (0.1, 1.0, 50, 1 - 2 ** -53, NumericalError),  # (1 + level) / 2 rounds to 1
    ])
    def test_invalid_inputs(self, sigma_u, tau2, k, level, error):
        with pytest.raises(error):
            confidence_interval(sigma_u, tau2, k, level)

    def test_centered_on_estimate(self):
        lo, hi = confidence_interval(0.42, 1.0, 25, 0.9)
        assert (lo + hi) / 2 == pytest.approx(0.42)

    def test_duality_with_unadjusted_test(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            sigma_u = rng.normal(scale=0.2)
            tau2 = rng.uniform(0.5, 2.0)
            k = int(rng.integers(12, 400))
            alpha = 0.05
            t = t_statistic(sigma_u, tau2, k)
            cv = critical_value("none", alpha=alpha, df=k - 1)
            lo, hi = confidence_interval(sigma_u, tau2, k, 1 - alpha)
            assert (abs(t) > cv) == not_contains_zero(lo, hi)


def not_contains_zero(lo, hi):
    return not (lo <= 0.0 <= hi)


class TestCriticalValue:
    def test_fixed_values_verbatim(self):
        assert critical_value("fixed:4.797") == 4.797
        assert critical_value("fixed:5.847") == 5.847
        assert critical_value(3.2) == 3.2

    def test_bonferroni_formula(self):
        got = critical_value("bonferroni", alpha=0.05, n_pairs=10, df=1020)
        assert got == pytest.approx(stats.t.ppf(1 - 0.05 / 20, 1020), abs=1e-12)
        assert got == pytest.approx(2.81316, abs=1e-4)

    def test_none_is_plain_quantile(self):
        got = critical_value("none", alpha=0.05, df=1020)
        assert got == pytest.approx(stats.t.ppf(0.975, 1020), abs=1e-12)

    def test_quantile_near_stdtrit(self):
        for df in [*DF_GRID, 10 ** 6]:
            for alpha in (0.001, 0.01, 0.05, 0.1, 0.5):
                assert_near_stdtrit(critical_value("none", alpha=alpha, df=df),
                                    df, 1.0 - alpha / 2.0)
                for n_pairs in (1, 6, 45, 435):
                    assert_near_stdtrit(
                        critical_value("bonferroni", alpha=alpha, n_pairs=n_pairs, df=df),
                        df, 1.0 - alpha / (2.0 * n_pairs))

    def test_invalid_level(self):
        with pytest.raises(DomainError):
            critical_value("bonferroni", alpha=1.5, n_pairs=10, df=100)

    @pytest.mark.parametrize("df", [None, 1, 24.5])
    def test_df_must_be_an_integer_of_at_least_two(self, df):
        with pytest.raises(DomainError, match="integer df"):
            critical_value("none", alpha=0.05, df=df)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            critical_value("sidak", alpha=0.05, n_pairs=10, df=100)

    @pytest.mark.parametrize("method", ["holm", "fixed:abc"])
    def test_unknown_method_named_without_df(self, method):
        with pytest.raises(DomainError, match="unknown|numeric"):
            critical_value(method)

    @pytest.mark.parametrize("method", ["fixed:nan", "fixed:inf", "fixed:-inf", "fixed:1e400",
                                        np.nan, np.inf, -np.inf])
    def test_non_finite_fixed_value(self, method):
        with pytest.raises(DomainError, match="finite"):
            critical_value(method)

    @pytest.mark.parametrize("method, n_pairs", [("bonferroni", 6), ("none", None)])
    def test_non_finite_quantile_is_numerical_error(self, method, n_pairs):
        # 1 - alpha/2 rounds to 1.0, where the t quantile is infinite
        with pytest.raises(NumericalError, match="not finite"):
            critical_value(method, alpha=1e-300, n_pairs=n_pairs, df=100)


def test_unconverged_quantile_is_numerical_error():
    """Far below the 2**-53 tail its callers pass, 100 Newton steps from t = 0 stop
    short of the quantile (about 1/sqrt(2 tail) at df = 2): an error, not a t
    that is 1e7 times too small."""
    with pytest.raises(NumericalError, match="not reached in 100 Newton steps"):
        inference._t_upper_quantile(2, 1e-50)


def test_quantile_takes_few_tail_evaluations(monkeypatch):
    """Newton from t = 0 needs at most 30 tail probabilities per quantile at every
    level the CLI can reach (alpha 1e-3...0.5 over 1...435 pairs, CI levels up to
    0.999), the heaviest tails included."""
    calls = []
    monkeypatch.setattr(inference, "_t_tail",
                        lambda *args, real=inference._t_tail: calls.append(args) or real(*args))

    def evaluations(quantile, *args, **kwargs):
        calls.clear()
        quantile(*args, **kwargs)
        return len(calls)

    dfs = [*DF_GRID, 10 ** 6]
    counts = [evaluations(confidence_interval, 0.0, 1.0, df + 1, level)
              for df in dfs for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)]
    counts += [evaluations(critical_value, "bonferroni", alpha=alpha, n_pairs=n_pairs, df=df)
               for df in dfs for alpha in (0.001, 0.01, 0.05, 0.1, 0.5)
               for n_pairs in (1, 6, 45, 435)]
    assert 0 < max(counts) <= 30, max(counts)


class TestPtcTestAllPairs:
    def test_ar1_structure_detected(self, ar1_sample):
        report = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                    tpdm_mode="global", tpdm_mass="estimate")
        assert len(report.records) == 6
        assert all(r.error is None for r in report.records)
        adjacent = [(0, 1), (1, 2), (2, 3)]
        for i, j in adjacent:
            assert record(report, i, j).reject
        for i, j in [(0, 2), (1, 3), (0, 3)]:
            assert not record(report, i, j).reject

    def test_record_lookup_is_symmetric(self, ar1_sample):
        report = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                    tpdm_mode="global", tpdm_mass="estimate")
        assert record(report, 3, 1) is record(report, 1, 3)

    def test_reject_consistent_with_t_and_cv(self, ar1_sample):
        report = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                    tpdm_mode="global", tpdm_mass="estimate")
        for rec in report.records:
            assert rec.reject == (abs(rec.t_stat) > report.critical_value)

    def test_fixed_critical_value_respected(self, ar1_sample):
        report = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                    cv_method="fixed:1e9",
                                    tpdm_mode="global", tpdm_mass="estimate")
        assert report.critical_value == 1e9
        assert report.n_rejected() == 0
        assert report.adjustment == "tukey-reference"

    def test_duplicate_column_errors_are_recorded(self):
        base = construct(ar1_matrix(0.6, 3), sample_noise(3, 4000, seed=13))
        sample = TailSample(with_copied_column(base, 2))  # near copy of X3
        assert_singular_but_testable(sample, 0.95, "global", "estimate")
        report = ptc_test_all_pairs(sample, q_radial=0.95, q_pred=0.95, tpdm_mode="global",
                                    tpdm_mass="estimate")
        assert report.ptc is None  # the TPDM failed the inversion gate
        errored = [r for r in report.records if r.error is not None]
        fine = [r for r in report.records if r.error is None]
        assert errored and fine
        # pair conditioned on the copies: ill-conditioned complement block;
        # the pair of the copies: their angles carry no spread
        assert "ConditioningError" in record(report, 0, 1).error
        assert all("ConditioningError" in r.error or "DegenerateVarianceError" in r.error
                   for r in errored)

    @pytest.mark.parametrize("mode, mass", [("global", "estimate"), ("pairwise", "fixed")])
    def test_exact_copy_fails_every_pair(self, mode, mass):
        """A target in the span of its complement is an error, not rounding noise."""
        sample = _duplicated_column_sample(jitter=0.0)
        report = ptc_test_all_pairs(sample, q_radial=0.95, tpdm_mode=mode, tpdm_mass=mass,
                                    cv_method="fixed:2")
        # both copies in the complement: singular block; one in the target: it lies in
        # the complement's span; both in the target: their angles carry no spread
        want = ["ConditioningError", "DegenerateProjectionError", "DegenerateVarianceError"]
        for r in report.records:
            assert r.error.startswith(want[len({r.i, r.j} & {2, 7})]), (r.i, r.j, r.error)
        with pytest.raises(DegenerateVarianceError, match="every pair failed"):
            ptc_test_all_pairs(sample, q_radial=0.95, tpdm_mode=mode, tpdm_mass=mass)

    def test_needs_three_variables(self):
        X = 1 + np.random.default_rng(0).random((500, 2))
        with pytest.raises(DomainError):
            ptc_test_all_pairs(TailSample(X))

    def test_report_serialization_round_trip(self, ar1_sample):
        import json

        report = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                    tpdm_mode="global", tpdm_mass="estimate")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["columns"] == ar1_sample.columns
        assert len(payload["pairs"]) == 6
        assert payload["ptc"][0][0] is None
        rows = list(report.to_csv_rows())
        assert len(rows) == 6 and len(rows[0]) == len(report.csv_header)

    @pytest.mark.parametrize("q_pred, q_res", [(1.5, None), (0.0, None), (0.98, 1.0),
                                               (0.98, -0.1)])
    def test_quantiles_validated_up_front(self, ar1_sample, q_pred, q_res):
        with pytest.raises(DomainError, match="must lie in"):
            ptc_test_all_pairs(ar1_sample, q_pred=q_pred, q_res=q_res)

    @pytest.mark.parametrize("kwargs, match", [({"cv_method": "holm"}, "unknown"),
                                               ({"cv_method": "fixed:x"}, "numeric"),
                                               ({"alpha": 1.5}, "alpha"),
                                               ({"alpha": 0.0, "cv_method": 3.0}, "alpha")])
    def test_critical_value_arguments_validated_up_front(self, ar1_sample, monkeypatch,
                                                         kwargs, match):
        def no_tpdm(*args, **kw):
            raise AssertionError("the TPDM was estimated before validation")

        monkeypatch.setattr("tailgraph.inference.estimate_tpdm", no_tpdm)
        with pytest.raises(DomainError, match=match):
            ptc_test_all_pairs(ar1_sample, **kwargs)

    def test_report_dict_round_trip(self, ar1_sample):
        report = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                    tpdm_mode="global", tpdm_mass="estimate")
        payload = report.to_dict()
        back = PtcTestReport.from_dict(payload).to_dict()
        assert back == dict(payload, ptc=None)

    @pytest.mark.parametrize("breakage", ["no_cv", "cv_text", "cv_inf", "cv_nan",
                                          "pair_index", "t_missing", "t_inf", "not_a_dict"])
    def test_malformed_report_dict_is_data_error(self, ar1_sample, breakage):
        payload = ptc_test_all_pairs(ar1_sample, q_radial=0.98, q_pred=0.98,
                                     tpdm_mode="global", tpdm_mass="estimate").to_dict()
        if breakage == "no_cv":
            del payload["critical_value"]
        elif breakage == "cv_text":
            payload["critical_value"] = "high"
        elif breakage in ("cv_inf", "cv_nan"):
            payload["critical_value"] = float(breakage[3:])
        elif breakage == "pair_index":
            payload["pairs"][0]["j"] = 9
        elif breakage == "t_missing":
            payload["pairs"][0]["t"] = None
        elif breakage == "t_inf":
            payload["pairs"][0]["t"] = -np.inf
        else:
            payload = [payload]
        with pytest.raises(DataError, match="malformed report"):
            PtcTestReport.from_dict(payload)


def _reference_records(sample, q_radial, q_pred, q_res, mode, mass):
    """All pairs through the per-pair complement solve and the public residual
    estimators, with a Bonferroni cut: ``(pair, k, t, reject, error)`` per
    pair, the critical value, and ``{pair: (C, sigma_u)}`` of the tested pairs."""
    sigma = estimate_tpdm(sample, q_radial=q_radial, mode=mode, mass=mass)
    rows, fits = [], {}
    for pair in combinations(range(sample.p), 2):
        try:
            part = Partition.pair(*pair, sample.p)
            C = conditional_ipm(sigma, part)
            res = residuals(sample, part, solve_b(sigma, part), q_pred=q_pred,
                            m_trace=float(np.trace(C)))
            sigma_u, m_tilde, k = estimate_sigma_u(res, q_res=q_res, mass="trace")
            t = t_statistic(sigma_u, estimate_tau2(res, m_tilde, q_res=q_res), k)
            rows.append((pair, k, t, None))
            fits[pair] = (C, sigma_u)
        except TailgraphError as exc:
            rows.append((pair, None, None, f"{type(exc).__name__}: {exc}"))
    df = min(k for _, k, _, err in rows if err is None) - 1
    cv = critical_value("bonferroni", n_pairs=len(rows), df=df)
    return [(pair, k, t, None if err else bool(abs(t) > cv), err)
            for pair, k, t, err in rows], cv, fits


def _duplicated_column_sample(jitter=5e-7):
    base = construct(ar1_matrix(0.6, 7), sample_noise(7, 4000, seed=13))
    return TailSample(with_copied_column(base, 2, jitter))


class TestPrecisionPathAgreement:
    """The precision-matrix runner against the per-pair complement solve."""

    @pytest.fixture(scope="class")
    def ar1_p8(self):
        X = construct(ar1_matrix(0.7, 8), sample_noise(8, 6000, seed=17))
        return TailSample(X)

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("q_res", [None, 0.98])
    @pytest.mark.parametrize("mode, mass, q_radial", [("global", "estimate", 0.98),
                                                      ("pairwise", "fixed", 0.95)])
    @pytest.mark.parametrize("which", ["ar1_p8", "duplicated"])
    def test_matches_per_pair_reference(self, ar1_p8, monkeypatch, which, mode, mass, q_radial,
                                        q_res, forced):
        """``forced`` makes ``project.invert_ipm`` fail, so every pair falls back."""
        sample = ar1_p8 if which == "ar1_p8" else _duplicated_column_sample()
        if forced:
            monkeypatch.setattr(inference.project, "invert_ipm", _singular)
        calls = []
        monkeypatch.setattr(inference, "softplus_inv",
                            lambda x, real=softplus_inv: calls.append(x) or real(x))
        report = ptc_test_all_pairs(sample, q_radial=q_radial, q_pred=0.98, q_res=q_res,
                                    tpdm_mode=mode, tpdm_mass=mass)
        assert len(calls) == 1  # one preimage per run, on either path
        want, cv, fits = _reference_records(sample, q_radial, 0.98, q_res, mode, mass)
        # the duplicated column makes the TPDM singular: the runner falls back
        fallback = which == "duplicated" or forced
        assert (report.ptc is None) == fallback
        assert report.critical_value == pytest.approx(cv, rel=1e-12)
        assert len(report.records) == len(want)
        if fallback:
            sigma = estimate_tpdm(sample, q_radial=q_radial, mode=mode, mass=mass)
            _, fit = inference._pair_pipeline(sample, sigma, 0.98, q_res)
        for rec, (pair, k, t, reject, err) in zip(report.records, want):
            assert (rec.i, rec.j) == pair
            assert (rec.k, rec.reject, rec.error) == (k, reject, err)
            if t is not None and fallback:  # same arithmetic: same bits
                C, fitted = fit(pair)
                assert C.tobytes() == fits[pair][0].tobytes()
                assert (rec.sigma_u, rec.k, rec.t_stat) == (fitted.sigma_u, fitted.k,
                                                            fitted.t_stat) == (fits[pair][1], k, t)
            elif t is not None:
                assert abs(rec.t_stat - t) <= 1e-12 * max(1.0, abs(t))
        if which == "duplicated":
            assert_singular_but_testable(sample, q_radial, mode, mass)
            assert any(r.error is None for r in report.records)

    def test_overflowed_column_takes_the_reference_path(self, overflow_sample, monkeypatch):
        """Cells near the float64 maximum overflow ``Z = Y Theta`` in the first column:
        its pairs take the complement solve, which tests them, and the others keep
        the precision path."""
        solved = []
        monkeypatch.setattr(inference.project, "_schur",
                            lambda gamma, part, real=inference.project._schur:
                            solved.append(part.target) or real(gamma, part))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ptc_test_all_pairs(overflow_sample, tpdm_mode="global",
                                        tpdm_mass="estimate")
        assert [r.error for r in report.records] == [None] * 6
        assert report.ptc is not None
        assert solved == [(0, 1), (0, 2), (0, 3)]

        def singular(gamma):
            raise ConditioningError(np.inf)

        monkeypatch.setattr(inference.project, "invert_ipm", singular)
        forced = ptc_test_all_pairs(overflow_sample, tpdm_mode="global", tpdm_mass="estimate")
        for rec, ref in zip(report.records, forced.records):
            if rec.i == 0:  # the same path: the same bits
                assert (rec.sigma_u, rec.tau2, rec.k, rec.t_stat) == \
                    (ref.sigma_u, ref.tau2, ref.k, ref.t_stat)
            else:
                assert rec.k == ref.k
                assert abs(rec.t_stat - ref.t_stat) <= 1e-12 * max(1.0, abs(ref.t_stat))

    @pytest.mark.parametrize("mode, mass, q_radial", [("global", "estimate", 0.98),
                                                      ("pairwise", "fixed", 0.95)])
    def test_complement_block_factored_once_per_pair(self, ar1_p8, monkeypatch, mode, mass,
                                                     q_radial):
        """On the fallback one factorization gives a pair's weights and C: the near
        copy's 28 pairs follow its failed inversion, and a forced fallback makes 28."""
        contexts = []
        monkeypatch.setattr(inference.project, "_spd_factor",
                            lambda G, context, real=inference.project._spd_factor:
                            contexts.append(context) or real(G, context))
        ptc_test_all_pairs(_duplicated_column_sample(), q_radial=q_radial, q_pred=0.98,
                           tpdm_mode=mode, tpdm_mass=mass)
        assert contexts == ["inner product matrix"] + ["complement block"] * 28
        contexts.clear()
        monkeypatch.setattr(inference.project, "invert_ipm", _singular)
        report = ptc_test_all_pairs(ar1_p8, q_radial=q_radial, q_pred=0.98, tpdm_mode=mode,
                                    tpdm_mass=mass)
        assert all(r.error is None for r in report.records)
        assert contexts == ["complement block"] * 28

    def test_estimator_exceedances_found_once_per_pair(self, monkeypatch):
        X = construct(ar1_matrix(0.7, 6), sample_noise(6, 6000, seed=3))
        calls = []
        real = inference._angular_moment
        monkeypatch.setattr(inference, "_angular_moment",
                            lambda prod, r, n, mass, q_res=None:
                            calls.append(q_res) or real(prod, r, n, mass, q_res))
        report = ptc_test_all_pairs(TailSample(X), q_radial=0.98, q_pred=0.98,
                                    q_res=0.99, tpdm_mode="global", tpdm_mass="estimate")
        assert all(r.error is None for r in report.records)
        assert calls == [0.99] * len(report.records) == [0.99] * 15


def _singular(gamma):
    raise ConditioningError(np.inf)


def _no_sample(*args, **kwargs):
    raise AssertionError("a sample was drawn before the arguments were checked")


class TestCoverageStudy:
    def test_deterministic_given_seed(self):
        a = coverage_study(phi=0.7, n=2000, reps=50, q_radial=0.95, seed=21)
        b = coverage_study(phi=0.7, n=2000, reps=50, q_radial=0.95, seed=21)
        assert a.coverage == b.coverage
        np.testing.assert_array_equal(a.residual_estimates, b.residual_estimates)

    def test_true_value_is_zero_for_default_pair(self):
        res = coverage_study(phi=0.7, n=2000, reps=10, q_radial=0.95, seed=3)
        assert res.true_value == pytest.approx(0.0, abs=1e-12)

    def test_half_level_gives_half_coverage(self):
        res = coverage_study(phi=0.7, n=10 ** 4, reps=500, q_radial=0.98,
                             level=0.5, seed=42)
        assert res.coverage == pytest.approx(0.5, abs=0.05)

    def test_rejects_zero_reps(self):
        with pytest.raises(DomainError):
            coverage_study(reps=0)

    def test_every_replication_failing_raises(self):
        with pytest.raises(NumericalError, match="every replication failed"):
            coverage_study(n=5, reps=3, seed=0)

    @pytest.mark.parametrize("level, error", [(1.5, DomainError), (0.0, DomainError),
                                              (0.9999999999999999, NumericalError)])
    def test_level_checked_before_any_sample(self, monkeypatch, level, error):
        """(1 + level) / 2 rounds to 1 at the last level: its t quantile is infinite."""
        monkeypatch.setattr(inference, "construct", _no_sample)
        with pytest.raises(error, match="level"):
            coverage_study(level=level)

    @pytest.mark.parametrize("q_radial", [1.5, 0.0, float("nan")])
    def test_radial_quantile_checked_before_any_sample(self, monkeypatch, q_radial):
        monkeypatch.setattr(inference, "construct", _no_sample)
        with pytest.raises(DomainError, match="q_radial must lie"):
            coverage_study(n=1000, reps=3, q_radial=q_radial)


class TestSizePowerStudy:
    def test_counts_match_reference_loop(self):
        A = ar1_matrix(0.7, 4)
        want = dict.fromkeys(combinations(range(4), 2), 0)
        for s in range(10):
            X = construct(A, sample_noise(4, 10 ** 4, seed=123000 + s))
            report = ptc_test_all_pairs(TailSample(X), q_radial=0.98,
                                        q_pred=0.98, cv_method="bonferroni", alpha=0.05,
                                        tpdm_mode="global", tpdm_mass="estimate")
            for rec in report.records:
                want[rec.i, rec.j] += bool(rec.reject)
        rejections, errors, failures = size_power_study(
            phi=0.7, n=10 ** 4, reps=10, p=4, q_radial=0.98, q_pred=0.98,
            cv_method="bonferroni", alpha=0.05, seed=123000)
        assert rejections == want
        assert errors == {} and failures == {}

    def test_failures_and_pair_errors_are_tallied(self, monkeypatch):
        real, calls = inference.ptc_test_all_pairs, []

        def flaky(sample, **kwargs):
            calls.append(sample)
            if len(calls) % 3 == 0:
                raise ConditioningError(1e13)
            report = real(sample, **kwargs)
            rec = record(report, 0, 3)
            rec.error, rec.reject = "DegenerateVarianceError", None
            return report

        monkeypatch.setattr(inference, "ptc_test_all_pairs", flaky)
        rejections, errors, failures = size_power_study(n=3000, reps=6, q_radial=0.95,
                                                        q_pred=0.95, seed=8)
        assert failures == {"ConditioningError": 2}
        assert errors == {(0, 3): 4}
        assert rejections[0, 3] == 0 and rejections[0, 1] == 4

    def test_every_replication_failing_raises(self):
        with pytest.raises(NumericalError, match="every replication failed.*InsufficientExceed"):
            size_power_study(n=20, reps=3, seed=0)

    @pytest.mark.parametrize("kwargs", [{"p": 2}, {"reps": 0}])
    def test_arguments_validated_up_front(self, kwargs):
        with pytest.raises(DomainError, match="integer (p >= 3|reps >= 1)"):
            size_power_study(**kwargs)

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"alpha": 2.0}, DomainError, "alpha must lie"),
        ({"alpha": 0.0, "cv_method": "none"}, DomainError, "alpha must lie"),
        ({"cv_method": "holm"}, DomainError, "unknown"),
        ({"cv_method": "fixed:x"}, DomainError, "numeric"),
        ({"alpha": 1e-300}, NumericalError, "alpha=1e-300 is too small"),
    ])
    def test_critical_value_checked_before_any_sample(self, monkeypatch, kwargs, error, match):
        monkeypatch.setattr(inference, "construct", _no_sample)
        with pytest.raises(error, match=match):
            size_power_study(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"q_pred": 1.5}, "q_pred must lie"),
        ({"q_radial": 1.5}, "q_radial must lie"),
        ({"q_radial": float("nan")}, "q_radial must lie"),
        # a fixed critical value needs no alpha, but every replication's test checks it
        ({"alpha": 2.0, "cv_method": 3.0}, "alpha must lie"),
    ])
    def test_quantiles_checked_before_any_sample(self, monkeypatch, kwargs, match):
        monkeypatch.setattr(inference, "construct", _no_sample)
        with pytest.raises(DomainError, match=match):
            size_power_study(n=1000, reps=3, **kwargs)


@st.composite
def _ar_draws(draw):
    """A small autoregressive sample, with the TPDM mode and mass to test it by."""
    p, n = draw(st.integers(3, 6)), draw(st.sampled_from([1500, 3000]))
    X = construct(ar1_matrix(draw(st.floats(0.3, 0.9)), p),
                  sample_noise(p, n, seed=draw(st.integers(0, 2 ** 16))))
    return X, draw(st.sampled_from([("global", "estimate"), ("pairwise", "fixed")]))


def _assert_same_outcome(got, want):
    """Same k and error class; t to the golden gate's 1e-12 relative."""
    assert got.k == want.k
    assert (got.error or "").split(":")[0] == (want.error or "").split(":")[0]
    if want.t_stat is not None:
        assert abs(got.t_stat - want.t_stat) <= 1e-12 * max(1.0, abs(want.t_stat))


class TestRunnerInvariance:
    """Whole-runner identities: the test of a pair does not depend on how the
    sample's columns or rows are ordered, on its marginal scale, on the order of
    its two targets, nor on whether the pair is read off the precision matrix or
    fitted by the complement solve."""

    @settings(max_examples=25)
    @given(draw=_ar_draws(), data=st.data())
    def test_column_permutation_permutes_the_records(self, draw, data):
        (X, (mode, mass)) = draw
        perm = data.draw(st.permutations(range(X.shape[1])))
        want = ptc_test_all_pairs(TailSample(X), tpdm_mode=mode, tpdm_mass=mass)
        got = ptc_test_all_pairs(TailSample(X[:, perm]), tpdm_mode=mode, tpdm_mass=mass)
        assert got.critical_value == want.critical_value
        for rec in got.records:
            _assert_same_outcome(rec, record(want, perm[rec.i], perm[rec.j]))

    @settings(max_examples=25)
    @given(draw=_ar_draws(), data=st.data())
    def test_row_permutation_keeps_the_records(self, draw, data):
        (X, (mode, mass)) = draw
        rows = np.random.default_rng(data.draw(st.integers(0, 2 ** 16))).permutation(X.shape[0])
        want = ptc_test_all_pairs(TailSample(X), tpdm_mode=mode, tpdm_mass=mass)
        got = ptc_test_all_pairs(TailSample(X[rows]), tpdm_mode=mode, tpdm_mass=mass)
        assert got.critical_value == want.critical_value
        for rec, ref in zip(got.records, want.records):
            _assert_same_outcome(rec, ref)

    @settings(max_examples=40)
    @given(draw=_ar_draws(), transform=st.sampled_from([np.log, np.sqrt, lambda x: x ** 3,
                                                         lambda x: -1.0 / x,
                                                         lambda x: 2.0 * x - 7.0]))
    def test_increasing_map_leaves_the_preprocessed_sample_unchanged(self, draw, transform):
        X = draw[0]
        Y = transform(X)
        # strictly increasing in floating point too: no two cells of a column merge
        assume(all(np.unique(X[:, j]).size == np.unique(Y[:, j]).size for j in range(X.shape[1])))
        assert marginal_transform(Y).data.tobytes() == marginal_transform(X).data.tobytes()

    @settings(max_examples=25)
    @given(draw=_ar_draws(), forced=st.booleans())
    def test_target_order_swaps_the_pair(self, draw, forced):
        """``fit((j, i))`` is ``fit((i, j))`` with the pair swapped, on the precision
        path and on a forced fallback.  Its radii add the same two squares and its
        estimator multiplies the same two angles, but the product that forms the
        residuals may round in the other order (an FMA), so t is held to 1e-12."""
        (X, (mode, mass)) = draw
        sample = TailSample(X)
        with mock.patch.object(inference.project, "invert_ipm",
                               _singular if forced else inference.project.invert_ipm):
            report = ptc_test_all_pairs(sample, tpdm_mode=mode, tpdm_mass=mass)
            sigma = estimate_tpdm(sample, q_radial=0.95, mode=mode, mass=mass)
            theta, fit = inference._pair_pipeline(sample, sigma, q_pred=0.98, q_res=None)
        assert (theta is None) == forced
        for rec in report.records:
            try:
                _, swapped = fit((rec.j, rec.i))
            except TailgraphError as exc:
                swapped = PairRecord(i=rec.j, j=rec.i, error=f"{type(exc).__name__}: {exc}")
            else:
                assert (swapped.i, swapped.j) == (rec.j, rec.i)
                swapped.reject = bool(abs(swapped.t_stat) > report.critical_value)
            _assert_same_outcome(swapped, rec)
            assert swapped.reject == rec.reject

    @settings(max_examples=25)
    @given(draw=_ar_draws())
    def test_complement_path_agrees_with_precision_path(self, draw):
        (X, (mode, mass)) = draw
        sample = TailSample(X)
        want = ptc_test_all_pairs(sample, tpdm_mode=mode, tpdm_mass=mass)
        with mock.patch.object(inference.project, "invert_ipm", _singular):
            got = ptc_test_all_pairs(sample, tpdm_mode=mode, tpdm_mass=mass)
        assert want.ptc is not None and got.ptc is None
        assert got.critical_value == want.critical_value
        for rec, ref in zip(got.records, want.records):
            _assert_same_outcome(rec, ref)
            assert rec.reject == ref.reject


def _records_or_error(X, mode, mass, cv_method="bonferroni"):
    """Each record's (k, t, reject, error class), or the class of the run's error."""
    try:
        report = ptc_test_all_pairs(TailSample(X), tpdm_mode=mode, tpdm_mass=mass,
                                    cv_method=cv_method)
    except TailgraphError as exc:
        return type(exc).__name__
    return [(r.k, r.t_stat, r.reject, r.error and r.error.split(":")[0]) for r in report.records]


class TestScaleContract:
    """Any positive finite sample gives records or one documented error, never a
    stray exception or a numpy warning.  With an estimated mass, Gamma scales as
    c^2, det(Theta_TT) as c^-4 and tau2 as c^4: past about c = 1e77 a pair's
    tau2 or its 2 x 2 inverse leaves the float64 range."""

    @pytest.mark.parametrize("mode", ["global", "pairwise"])
    @pytest.mark.parametrize("scale", [1e78, 1e100])
    def test_far_scaled_pairs_fail_as_numerical_errors(self, mode, scale):
        """At 1e78 m~^2 overflowed in tau2, at 1e100 the 2 x 2 inverse divided by
        an underflowed det.  Both are per-pair errors now."""
        X = construct(ar1_matrix(0.7, 5), sample_noise(5, 4000, seed=3)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ptc_test_all_pairs(TailSample(X), tpdm_mode=mode, tpdm_mass="estimate",
                                        cv_method="fixed:3.0")
            with pytest.raises(DegenerateVarianceError, match="every pair failed"):
                ptc_test_all_pairs(TailSample(X), tpdm_mode=mode, tpdm_mass="estimate")
        assert {r.error.split(":")[0] for r in report.records} == {"NumericalError"}

    @pytest.mark.parametrize("mode", ["global", "pairwise"])
    def test_inverse_past_the_float_range_is_numerical_error(self, mode):
        """At 1e-160 the TPDM is subnormal and its inverse overflows; this was a
        symmetry DomainError after an overflow warning in the triangular solve."""
        X = construct(ar1_matrix(0.7, 5), sample_noise(5, 4000, seed=3)) * 1e-160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="inverse of the inner product matrix"):
                ptc_test_all_pairs(TailSample(X), tpdm_mode=mode, tpdm_mass="estimate")

    def test_tau2_past_the_float_range_only_when_it_is(self):
        """m~^2 overflows but m~^2 times the spread does not: tau2 is still taken."""
        w = np.column_stack([np.cos(np.linspace(0.1, 1.4, 40)), np.sin(np.linspace(0.1, 1.4, 40))])
        res = make_residual_sample(w)
        base = estimate_tau2(res, 1.0)
        assert 0.0 < base < 2.0 ** -2
        m = 2.0 ** 513  # m^2 = 2^1026 overflows, m^2 * base does not
        assert estimate_tau2(res, m) == math.ldexp(base, 1026)
        with pytest.raises(NumericalError, match="float64 range"):
            estimate_tau2(res, 2.0 ** 540)

    @settings(max_examples=30)
    @given(draw=_ar_draws(), e=st.integers(-1074, 1023),
           mass=st.sampled_from(["estimate", "fixed"]))
    def test_power_of_two_scales_raise_only_tailgraph_errors(self, draw, e, mass):
        (X, (mode, _)) = draw
        with np.errstate(under="ignore", over="ignore"):  # 0 or inf cells: a DataError
            X = np.ldexp(X, e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _records_or_error(X, mode, mass)

    @settings(max_examples=20)
    @given(draw=_ar_draws(), e=st.integers(0, 240))
    # r_(k) ** 2 through libm's pow moved one t of this sample by 19 ulp
    @example(draw=(construct(ar1_matrix(0.7, 5), sample_noise(5, 3000, seed=116)),
                   ("global", "estimate")), e=5)
    def test_power_of_two_scale_keeps_finite_records(self, draw, e):
        """Scaled by 2^20 the preimages are the data, and a further power-of-two
        scale is exact: up to 2^200 every record keeps its k, t, rejection and
        error bit for bit.  Past that, det(Theta_TT), which scales as c^-4, nears
        the subnormal range and loses bits, so a pair that still has finite
        statistics keeps its k, rejection and error, and t to 4 ulp.  A fixed
        critical value keeps the run going when every pair has left the range."""
        X = np.ldexp(draw[0], 20)
        want = _records_or_error(X, "global", "estimate", "fixed:3.0")
        got = _records_or_error(np.ldexp(X, e), "global", "estimate", "fixed:3.0")
        if e <= 200 or isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        for g, w in zip(got, want):
            if g[3] != "NumericalError":
                assert (g[0], g[2], g[3]) == (w[0], w[2], w[3])
                assert g[1] == w[1] or abs(g[1] - w[1]) <= 4 * np.spacing(abs(w[1]))
