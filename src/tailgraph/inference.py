"""Residual-based inference for zero partial tail correlation.

For a pair of variables and prediction weights b fitted on the remaining
ones, the preimage residuals ``U = t^-1(X_pair) - b' t^-1(X_rest)`` are
regularly varying on all of R^2.  Their thresholded second angular moment
estimates the off-diagonal conditional inner product, its variance follows
from the iid angular products, and

    t = sigma_u_hat / sqrt(tau2_hat / k)

is referred to a t distribution with k - 1 degrees of freedom under the null
of zero partial tail correlation.

The all-pairs test reads every pair off one precision matrix: with
``Theta = Gamma^-1`` and ``Z = t^-1(X) Theta`` computed once, the pair T has
conditional inner product matrix ``C = (Theta_TT)^-1`` and residuals
``U = Z[:, T] C``, which equal the complement-solve residuals above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import special

from . import project
from .errors import (
    ConditioningError,
    DataError,
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    NumericalError,
    TailgraphError,
)
# ptc_matrix stays importable from this module for existing callers.
from .project import (Partition, conditional_ipm, ptc_matrix,  # noqa: F401
                      ptc_matrix_from_inverse, solve_b)
from .rvsim import RvNoiseSpec, ar1_matrix, construct, sample_noise, theoretical_ipm
from .tpdm import (TailSample, _exceedance_mask, _resolve_mass, _strict_exceedances,
                   estimate_tpdm)
from .xlinear import softplus_inv


@dataclass
class ResidualSample:
    """Retained preimage residuals for one pair, with polar decomposition."""

    u: np.ndarray                 # (k, 2) residual rows above the radius threshold
    r: np.ndarray                 # (k,) radii
    w: np.ndarray                 # (k, 2) unit angles
    n_total: int                  # residual rows before thresholding
    threshold: float
    m_trace: float | None = None  # trace of the estimated conditional IPM

    def __len__(self) -> int:
        return self.u.shape[0]


def residuals(sample, part: Partition, b, q_pred: float = 0.98,
              m_trace: float | None = None) -> ResidualSample:
    """Compute preimage residuals and retain radius exceedances.

    Residuals are computed for every observation; rows whose residual radius
    exceeds the empirical ``q_pred`` quantile are retained.
    """
    data = sample.data if isinstance(sample, TailSample) else np.asarray(sample, dtype=float)
    if len(part.target) != 2:
        raise DomainError("residual inference needs exactly two target variables")
    if not 0.0 < q_pred < 1.0:
        raise DomainError("q_pred must lie in (0, 1)")
    B = np.asarray(b, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape != (len(part.complement), 2):
        raise DimensionError(f"weights must be ({len(part.complement)}, 2), got {B.shape}")
    Y = softplus_inv(data)
    U = Y[:, list(part.target)] - Y[:, list(part.complement)] @ B
    return _retain_exceedances(U, q_pred, m_trace)


def _retain_exceedances(U, q_pred: float, m_trace) -> ResidualSample:
    """Keep the residual rows whose radius exceeds the empirical ``q_pred`` quantile."""
    r = np.sqrt(np.sum(U ** 2, axis=1))
    mask, _, thr = _exceedance_mask(r, q_pred, "residual radii")
    u, r_exc = U[mask], r[mask]
    return ResidualSample(u=u, r=r_exc, w=u / r_exc[:, None], n_total=r.size, threshold=thr,
                          m_trace=m_trace)


def _estimator_mask(res: ResidualSample, q_res: float | None):
    """Exceedance set for the angular-moment estimator.

    ``q_res=None`` treats every retained row as an exceedance.  Otherwise the
    target count is ``floor((1 - q_res) * n_total)`` relative to the rows the
    residuals were computed from; if the retained set is already at or below
    that count it is used whole, else it is re-thresholded at the matching
    upper order statistic (strict, ties dropped).
    """
    if q_res is not None and not 0.0 < q_res < 1.0:
        raise DomainError("q_res must lie in (0, 1)")
    k = len(res)
    k_target = k if q_res is None else int(np.floor((1.0 - q_res) * res.n_total + 1e-9))
    if k_target >= k:
        return np.ones(k, dtype=bool), k, float(res.r.min())
    # threshold at the (k+1)-th upper order statistic so the strict
    # exceedance count equals k (absent ties, which are dropped)
    cut = res.r.size - k_target - 1
    mask, k = _strict_exceedances(res.r, np.partition(res.r, cut)[cut], "residual estimator")
    return mask, k, float(res.r[mask].min())


def estimate_sigma_u(res: ResidualSample, q_res: float | None = None, mass="trace"):
    """Thresholded angular-moment estimate of the conditional off-diagonal.

    Returns ``(sigma_u_hat, m_tilde, k)``.  ``mass`` is "trace" (total mass
    taken as the trace of the estimated conditional IPM), "estimate"
    (``(R_(k)^2/n) k`` on the residual radii) or a positive number.
    """
    mask, k, r_k = _estimator_mask(res, q_res)
    m = _resolve_mass(mass, r_k, k, res.n_total, "trace", res.m_trace)
    prod = res.w[mask, 0] * res.w[mask, 1]
    return m / k * float(prod.sum()), m, k


def estimate_tau2(res: ResidualSample, m_tilde: float, q_res: float | None = None) -> float:
    """Variance scale ``m~^2 (E[W1^2 W2^2] - E[W1 W2]^2)`` of the estimator.

    Sample moments over the exceedance angles use 1/(k-1) normalization.
    Raises :class:`DegenerateVarianceError` when the result is not positive,
    which happens when the angular products carry no spread.
    """
    mask, k, _ = _estimator_mask(res, q_res)
    prod = res.w[mask, 0] * res.w[mask, 1]
    e1 = prod.sum() / (k - 1)
    e2 = (prod ** 2).sum() / (k - 1)
    tau2 = float(m_tilde) ** 2 * (e2 - e1 ** 2)
    if not np.isfinite(tau2) or tau2 <= 0.0:
        raise DegenerateVarianceError(
            f"angular products have no usable spread (tau2={tau2:.3e})")
    return tau2


def t_statistic(sigma_u_hat: float, tau2_hat: float, k: int) -> float:
    """Studentized statistic ``sigma_u_hat / sqrt(tau2_hat / k)``."""
    if tau2_hat <= 0.0:
        raise DegenerateVarianceError("tau2 must be positive")
    if k < 2:
        raise DomainError("need k >= 2")
    return float(sigma_u_hat / np.sqrt(tau2_hat / k))


def confidence_interval(sigma_u_hat: float, tau2_hat: float, k: int, level: float = 0.95):
    """Two-sided t interval ``sigma_u_hat +- t_{(1+level)/2, k-1} sqrt(tau2/k)``."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    if tau2_hat <= 0.0:
        raise DegenerateVarianceError("tau2 must be positive")
    if k < 2:
        raise DomainError("need k >= 2")
    half = special.stdtrit(k - 1, (1.0 + level) / 2.0) * np.sqrt(tau2_hat / k)
    return float(sigma_u_hat - half), float(sigma_u_hat + half)


_ADJUSTED = ("bonferroni", "none")  # critical values computed from the pairs' df


def critical_value(method, alpha: float = 0.05, n_pairs: int | None = None,
                   df: int | None = None) -> float:
    """Global critical value for the all-pairs test.

    ``method`` is "bonferroni" (two-sided t quantile at alpha/(2 n_pairs)),
    "none" (unadjusted two-sided t quantile), a number, or "fixed:<c>" for a
    value used verbatim (e.g. externally computed studentized-range values).
    A non-finite fixed value is a :class:`DomainError`; a computed quantile
    that is not finite (alpha so small that its level rounds to 1) is a
    :class:`NumericalError`.
    """
    if isinstance(method, str) and method.startswith("fixed:"):
        try:
            method = float(method.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"fixed critical value must be numeric, got {method!r}") from None
    if isinstance(method, (int, float)):
        cv = float(method)
        if not np.isfinite(cv):
            raise DomainError(f"critical value must be finite, got {cv!r}")
        return cv
    if method not in _ADJUSTED:
        raise DomainError(f"unknown critical value method {method!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if df is None or df < 2:
        raise DomainError("need df >= 2")
    if method == "bonferroni":
        if not n_pairs or n_pairs < 1:
            raise DomainError("bonferroni needs the number of pairs")
        level = 1.0 - alpha / (2.0 * n_pairs)
    else:
        level = 1.0 - alpha / 2.0
    cv = float(special.stdtrit(df, level))
    if not np.isfinite(cv):
        raise NumericalError(f"t quantile at level {level!r} (df={df}) is not finite; "
                             f"alpha={alpha!r} is too small")
    return cv


@dataclass
class PairRecord:
    """Per-pair test outcome; ``error`` is set when the pipeline failed."""

    i: int
    j: int
    names: tuple[str, str]
    sigma_u: float | None = None
    tau2: float | None = None
    k: int | None = None
    t_stat: float | None = None
    reject: bool | None = None
    error: str | None = None


@dataclass
class PtcTestReport:
    """All-pairs test report with one global critical value."""

    records: list[PairRecord]
    critical_value: float
    adjustment: str
    alpha: float
    columns: list[str]
    quantiles: dict = field(default_factory=dict)
    ptc: np.ndarray | None = None

    def record(self, i: int, j: int) -> PairRecord:
        a, b = min(i, j), max(i, j)
        for rec in self.records:
            if (rec.i, rec.j) == (a, b):
                return rec
        raise KeyError((i, j))

    def n_rejected(self) -> int:
        return sum(1 for r in self.records if r.reject)

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "alpha": self.alpha,
            "critical_value": self.critical_value,
            "adjustment": self.adjustment,
            "quantiles": dict(self.quantiles),
            "ptc": None if self.ptc is None else [
                [None if np.isnan(v) else float(v) for v in row] for row in self.ptc],
            "pairs": [
                {
                    "i": r.i, "j": r.j, "names": list(r.names),
                    "sigma_u": r.sigma_u, "tau2": r.tau2, "k": r.k,
                    "t": r.t_stat, "reject": r.reject, "error": r.error,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, payload) -> PtcTestReport:
        """Rebuild a report from :meth:`to_dict` output (``ptc`` is not read back).

        Raises :class:`DataError` when a key is missing or a value is unusable.
        """
        try:
            columns = list(payload["columns"])
            records = []
            for d in payload["pairs"]:
                rec = PairRecord(i=int(d["i"]), j=int(d["j"]), names=tuple(d["names"]),
                                 sigma_u=d["sigma_u"], tau2=d["tau2"], k=d["k"],
                                 t_stat=None if d["t"] is None else float(d["t"]),
                                 reject=d["reject"], error=d["error"])
                if not (0 <= rec.i < rec.j < len(columns)
                        and (rec.t_stat is None) != (rec.error is None)
                        and (rec.t_stat is None or np.isfinite(rec.t_stat))):
                    raise ValueError(f"inconsistent pair record {d}")
                records.append(rec)
            cv = critical_value(float(payload["critical_value"]))  # finite, or a DomainError
            return cls(records=records, critical_value=cv,
                       adjustment=payload["adjustment"], alpha=payload["alpha"],
                       columns=columns, quantiles=dict(payload["quantiles"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed report: {type(exc).__name__}: {exc}") from None

    csv_header = ("i", "j", "name_i", "name_j", "sigma_u", "tau2", "k", "t", "reject", "error")

    def to_csv_rows(self):
        for r in self.records:
            yield (r.i, r.j, r.names[0], r.names[1],
                   "" if r.sigma_u is None else repr(r.sigma_u),
                   "" if r.tau2 is None else repr(r.tau2),
                   "" if r.k is None else r.k,
                   "" if r.t_stat is None else repr(r.t_stat),
                   "" if r.reject is None else int(r.reject),
                   r.error or "")


def _studentize(res: ResidualSample, q_res):
    """``(sigma_u, tau2, k, t)`` from retained residuals, with trace mass."""
    sigma_u, m_tilde, k = estimate_sigma_u(res, q_res=q_res, mass="trace")
    tau2 = estimate_tau2(res, m_tilde, q_res=q_res)
    return sigma_u, tau2, k, t_statistic(sigma_u, tau2, k)


def _pair_stats(sample: TailSample, sigma_hat, pair, q_pred, q_res):
    """Reference path for one pair: complement factorization, weights, residuals.

    Returns ``(C, sigma_u, tau2, k, t)`` with C the 2 x 2 conditional IPM.
    """
    part = Partition.pair(*pair, sample.p)
    b = solve_b(sigma_hat, part)
    cond = conditional_ipm(sigma_hat, part)
    res = residuals(sample, part, b, q_pred=q_pred, m_trace=cond.trace)
    return (cond.matrix, *_studentize(res, q_res))


def _precision_pair_stats(theta, Z, pair, q_pred, q_res):
    """One pair read off ``Theta = Gamma^-1`` and ``Z = t^-1(X) Theta``: O(n) work.

    ``C = (Theta_TT)^-1`` is the Schur complement of the complement block and
    the residuals are ``U = Z[:, T] C``.
    """
    T = list(pair)
    a, c, d = theta[T[0], T[0]], theta[T[0], T[1]], theta[T[1], T[1]]
    C = np.array([[d, -c], [-c, a]]) / (a * d - c * c)
    res = _retain_exceedances(Z[:, T] @ C, q_pred, float(np.trace(C)))
    return (C, *_studentize(res, q_res))


def _pair_pipeline(sample: TailSample, sigma_hat, q_pred, q_res):
    """``(Theta, fit)`` where ``fit(pair)`` returns ``(C, sigma_u, tau2, k, t)``.

    Theta and Z are computed once.  Interlacing bounds every complement
    block's condition number by Gamma's, so no pair can fail the complement
    gate on this path.  When Gamma itself fails the inversion gate, Theta is
    None and each pair takes the reference path, which still tests the pairs
    whose complement block is well conditioned.
    """
    try:
        # looked up on the module, so a wrapper installed on project.invert_ipm sees it
        theta = project.invert_ipm(sigma_hat).entries
    except ConditioningError:
        return None, lambda pair: _pair_stats(sample, sigma_hat, pair, q_pred, q_res)
    Z = softplus_inv(sample.data) @ theta
    return theta, lambda pair: _precision_pair_stats(theta, Z, pair, q_pred, q_res)


def ptc_test_all_pairs(sample: TailSample, q_radial: float = 0.95, q_pred: float = 0.98,
                       q_res: float | None = None, cv_method="bonferroni",
                       alpha: float = 0.05, tpdm_mode: str = "pairwise",
                       tpdm_mass="fixed") -> PtcTestReport:
    """Test every pair for zero partial tail correlation.

    Estimates the TPDM once, then per pair: the conditional IPM and preimage
    residuals from the precision matrix (see :func:`_pair_pipeline`),
    thresholded at ``q_pred``, the angular-moment estimate and its variance,
    and the t statistic.  One global critical value is applied; per-pair
    failures are recorded in the report instead of aborting the run.
    """
    if sample.p < 3:
        raise DomainError("need at least 3 variables (a pair plus one conditioning variable)")
    if not 0.0 < q_pred < 1.0:
        raise DomainError("q_pred must lie in (0, 1)")
    if q_res is not None and not 0.0 < q_res < 1.0:
        raise DomainError("q_res must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    adjusted = isinstance(cv_method, str) and cv_method in _ADJUSTED
    # an unknown method fails here, before any pair is fitted; a fixed value (e.g.
    # a studentized-range critical value computed elsewhere) is used verbatim
    cv = None if adjusted else critical_value(cv_method)
    sigma_hat = estimate_tpdm(sample, q_radial=q_radial, mode=tpdm_mode, mass=tpdm_mass)
    theta, fit = _pair_pipeline(sample, sigma_hat, q_pred, q_res)
    records = []
    for i, j in combinations(range(sample.p), 2):
        rec = PairRecord(i=i, j=j, names=(sample.columns[i], sample.columns[j]))
        try:
            _, rec.sigma_u, rec.tau2, rec.k, rec.t_stat = fit((i, j))
        except TailgraphError as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    ok = [r for r in records if r.error is None]
    if adjusted:
        if not ok:
            raise DegenerateVarianceError("every pair failed; no critical value available")
        df = min(r.k for r in ok) - 1
        cv = critical_value(cv_method, alpha=alpha, n_pairs=len(records), df=df)
    for r in ok:
        r.reject = bool(abs(r.t_stat) > cv)

    return PtcTestReport(records=records, critical_value=cv,
                         adjustment=cv_method if adjusted else "tukey-reference",
                         alpha=alpha, columns=list(sample.columns),
                         quantiles={"radial": q_radial, "pred": q_pred, "res": q_res},
                         ptc=None if theta is None else ptc_matrix_from_inverse(theta))


@dataclass
class CoverageResult:
    """Monte Carlo summary of confidence-interval coverage for one pair."""

    coverage: float
    level: float
    reps: int
    n: int
    phi: float
    true_value: float
    covered: np.ndarray
    partition_estimates: np.ndarray
    residual_estimates: np.ndarray
    k_values: np.ndarray
    t_values: np.ndarray
    failed: int = 0

    def to_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "level": self.level,
            "reps": self.reps,
            "n": self.n,
            "phi": self.phi,
            "true_value": self.true_value,
            "failed": self.failed,
            "mean_k": float(np.mean(self.k_values)) if self.k_values.size else None,
            "partition_estimates": self.partition_estimates.tolist(),
            "residual_estimates": self.residual_estimates.tolist(),
        }


def coverage_study(phi: float = 0.7, n: int = 10_000, reps: int = 500,
                   q_radial: float = 0.98, level: float = 0.95, seed=0,
                   noise: RvNoiseSpec | None = None, target=(1, 3),
                   p: int = 4) -> CoverageResult:
    """Confidence-interval coverage for one conditional off-diagonal entry.

    Simulates the autoregressive model, estimates the TPDM from the largest
    (1 - q_radial) fraction of full-vector radii, fits prediction weights for
    the target pair, and builds a per-replication t interval for the
    conditional off-diagonal from the residual estimator.  Both the
    partition-based and the residual-based estimates are returned per
    replication.  The default pair (second and fourth variable given the
    others) has true value 0.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    A = ar1_matrix(phi, p)
    part = Partition(target=tuple(target),
                     complement=tuple(k for k in range(p) if k not in target))
    true_c = conditional_ipm(theoretical_ipm(A), part).matrix[0, 1]
    seeds = np.random.SeedSequence(seed).spawn(reps)
    spec = noise or RvNoiseSpec()

    def run_rep(rep):
        X = construct(A, sample_noise(p, n, spec, seeds[rep]))
        sample = TailSample(X, margin="raw")
        sigma_hat = estimate_tpdm(sample, q_radial=q_radial, mode="global", mass="estimate")
        _, fit = _pair_pipeline(sample, sigma_hat, q_pred=q_radial, q_res=None)
        C, sigma_u, tau2, k, t_val = fit(part.target)
        lo, hi = confidence_interval(sigma_u, tau2, k, level)
        return (lo <= true_c <= hi, C[0, 1], sigma_u, k, t_val)

    rows = []
    for rep in range(reps):
        try:
            rows.append(run_rep(rep))
        except TailgraphError as exc:
            last_error = exc
    if not rows:
        raise NumericalError(f"every replication failed; no coverage estimate (last: "
                             f"{type(last_error).__name__}: {last_error})")
    covered, part_est, res_est, ks, ts = (np.asarray(col) for col in zip(*rows))
    return CoverageResult(coverage=float(covered.mean()), level=level, reps=reps, n=n, phi=phi,
                          true_value=float(true_c), covered=covered,
                          partition_estimates=part_est, residual_estimates=res_est,
                          k_values=ks, t_values=ts, failed=reps - len(rows))
