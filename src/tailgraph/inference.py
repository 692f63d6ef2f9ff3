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
``U = Z[:, T] C``, which equal the complement-solve residuals above.  A pair
then costs a few O(n) passes over two columns (see :func:`_pair_pipeline`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import project
from .errors import (
    ConditioningError,
    DegenerateVarianceError,
    DimensionError,
    DomainError,
    NumericalError,
    TailgraphError,
    check_array_size,
    check_integer,
    check_positive,
    check_type,
    check_unit_interval,
    float_array,
    float_scalar,
)
# perfbench/tracing.py wraps ptc_matrix, solve_b and conditional_ipm here: keep them importable
from .project import (Partition, conditional_ipm, ptc_matrix,  # noqa: F401
                      ptc_matrix_from_inverse, solve_b)
from .report import _ADJUSTED, PairRecord, PtcTestReport, fixed_critical_value
from .rvsim import ar1_matrix, construct, sample_noise, theoretical_ipm
from .tpdm import (_TINY, TailSample, _angular_moment, _radial_exceedances, _read_mass, _squares,
                   as_matrix, as_sample, estimate_tpdm)
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
    exceeds the empirical ``q_pred`` quantile are retained.  ``sample`` is a
    TailSample or an array held to its rule, and ``part`` splits its columns.
    """
    data = as_sample(sample).data
    check_type(part, Partition, "residuals")
    if len(part.target) != 2:
        raise DomainError("residual inference needs exactly two target variables")
    if len(part.target) + len(part.complement) != data.shape[1]:  # as in project._schur
        raise DomainError("partition must cover all indices exactly once")
    q_pred, = check_unit_interval(q_pred=q_pred)
    B = float_array(b, "weights")
    if B.shape != (len(part.complement), 2):
        raise DimensionError(f"weights must be ({len(part.complement)}, 2), got {B.shape}")
    return _retain_exceedances(_preimage_residuals(softplus_inv(data).T, part, B), q_pred, m_trace)


def _preimage_residuals(Yt, part: Partition, B):
    """``Yt[T] - B^T Yt[R]``, the residuals as two C-ordered rows, for the
    preimages Y held as the rows of ``Yt = Y^T``, target T and complement R.
    A residual past the float64 range is a :class:`NumericalError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        U = Yt[list(part.target)] - B.T @ Yt[list(part.complement)]
    if not np.isfinite(U).all():
        raise NumericalError("preimage residuals lie past the float64 range")
    return U


def _retain_exceedances(U, q_pred: float, m_trace) -> ResidualSample:
    """The residuals, the two rows of U, whose radius exceeds its ``q_pred`` quantile."""
    with np.errstate(over="ignore"):
        s = _squares(U[0], U[1])
    idx, r, _, thr = _radial_exceedances(s, q_pred, U, "residual radii")
    u = U.take(idx, axis=1).T
    return ResidualSample(u=u, r=r, w=u / r[:, None], n_total=U.shape[1], threshold=thr,
                          m_trace=m_trace)


def estimate_sigma_u(res: ResidualSample, q_res: float | None = None, mass="trace"):
    """Thresholded angular-moment estimate of the conditional off-diagonal.

    Returns ``(sigma_u_hat, m_tilde, k)``.  ``mass`` is "trace" (total mass
    taken as the trace of the estimated conditional IPM), "estimate"
    (``(R_(k)^2/n) k`` on the residual radii) or a positive number.  ``q_res``
    thresholds the retained rows again (``tpdm._angular_moment``).
    """
    check_type(res, ResidualSample, "estimate_sigma_u")
    if q_res is not None:
        q_res, = check_unit_interval(q_res=q_res)
    m = _read_mass(mass, "trace", res.m_trace)
    return _angular_moment(res.w[:, 0] * res.w[:, 1], res.r, res.n_total, m, q_res)[:3]


def estimate_tau2(res: ResidualSample, m_tilde: float, q_res: float | None = None) -> float:
    """Variance scale ``m~^2 (E[W1^2 W2^2] - E[W1 W2]^2)`` of the estimator.

    Sample moments over the exceedance angles use 1/(k-1) normalization.
    Raises :class:`DegenerateVarianceError` when the result is not positive,
    which happens when the angular products carry no spread, and
    :class:`NumericalError` when it lies past the float64 range.
    """
    check_type(res, ResidualSample, "estimate_tau2")
    if q_res is not None:
        q_res, = check_unit_interval(q_res=q_res)
    m_tilde = float_scalar(m_tilde, "m_tilde")
    _, _, _, prod = _angular_moment(res.w[:, 0] * res.w[:, 1], res.r, res.n_total, m_tilde, q_res)
    return _tau2(prod, m_tilde)


def _tau2(prod, m_tilde: float) -> float:
    """``tau2`` from the products :func:`tpdm._angular_moment` kept."""
    k = prod.size
    if k < 2:
        raise DegenerateVarianceError(f"need at least 2 exceedances for tau2, got {k}")
    e1 = float(prod.sum()) / (k - 1)
    spread = float((prod ** 2).sum()) / (k - 1) - e1 * e1
    # m~ = f 2^e: m~^2 is never formed, so it cannot overflow where m~^2 spread does not
    f, e = math.frexp(m_tilde)
    try:
        tau2 = math.ldexp(f * f * spread, 2 * e)
    except OverflowError:
        raise NumericalError(f"tau2 lies past the float64 range (m~ = {m_tilde!r})") from None
    if not math.isfinite(tau2) or tau2 <= 0.0:
        raise DegenerateVarianceError(
            f"angular products have no usable spread (tau2={tau2:.3e})")
    return tau2


def _check_t_args(sigma_u_hat: float, tau2_hat: float, k: int):
    """The arguments of a t statistic or interval as ``(sigma_u, tau2, k)``, two
    floats and an int: a finite ``sigma_u_hat``, a positive finite ``tau2_hat``
    (else a :class:`DegenerateVarianceError`) and an integer ``k >= 2``."""
    sigma_u = float_scalar(sigma_u_hat, "sigma_u")
    if not math.isfinite(sigma_u):
        raise DomainError(f"sigma_u must be finite, got {sigma_u!r}")
    return sigma_u, check_positive(tau2_hat, "tau2", DegenerateVarianceError), check_integer(2, k=k)[0]


def t_statistic(sigma_u_hat: float, tau2_hat: float, k: int) -> float:
    """Studentized statistic ``sigma_u_hat / sqrt(tau2_hat / k)``; one past the
    float64 range is a :class:`NumericalError`."""
    sigma_u, tau2, k = _check_t_args(sigma_u_hat, tau2_hat, k)
    se = math.sqrt(tau2 / k)
    t = sigma_u / se if se > 0.0 else math.inf
    if not math.isfinite(t):
        raise NumericalError(f"t statistic lies past the float64 range (se = {se!r})")
    return t


def _large_a_coefficients(count: int) -> list[float]:
    """``c_n`` with ``(sinh(v/2) / (v/2))^(-1/2) = sum_n c_n v^(2n)``.

    J. C. P. Miller's rule for the power of a series in ``w = (v/2)^2``, whose
    base has coefficients ``1 / (2k + 1)!``.
    """
    base = [1.0 / math.factorial(2 * k + 1) for k in range(count)]
    g = [1.0]
    for n in range(1, count):
        g.append(sum((0.5 * k - n) * base[k] * g[n - k] for k in range(1, n + 1)) / n)
    return [gn / 4.0 ** n for n, gn in enumerate(g)]


_LARGE_A_COEFFS = _large_a_coefficients(24)
_LARGE_A_DF = 16  # e^(-2 pi (df/2 - 1/4)) < 1e-21: the expansion reaches double precision
_EXACT_BETA_DF = 100
_EPS = 2.0 ** -52


def _beta_half(df: int) -> float:
    """``B(df/2, 1/2)``.

    Exact rationals (times pi for odd df) up to 100 degrees of freedom; above,
    ``sqrt(pi/a) exp(s(a))`` with ``a = df/2`` and ``s`` the asymptotic series
    of ``ln(sqrt(a) Gamma(a) / Gamma(a + 1/2))``, whose first omitted term is
    below 1e-21 there.  An ``lgamma`` difference would lose about
    ``eps * a ln a`` absolutely, 1e-9 relative at df = 1e6.
    """
    m, odd = divmod(df, 2)
    if df <= _EXACT_BETA_DF:
        c = math.comb(2 * m, m)
        return math.pi * (c / 4 ** m) if odd else 4 ** m / (m * c)
    a = df / 2.0
    r = 1.0 / (a * a)
    s = (1 / 8 - (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * r) * r) * r) * r) / a
    return math.sqrt(math.pi / a) * math.exp(s)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction ``r`` with ``I_x(a, b) = x^a y^b r / B(a, b)``, ``y = 1 - x``.

    The contracted form of DiDonato and Morris (1992, ACM TOMS 708, BFRAC),
    with ``lambda = a - (a + b) x`` taken as ``a y - b x`` so that neither x
    near 1 nor y near 1 cancels.
    """
    c = 1.0 + (a * y - b * x)
    c0, c1 = b / a, 1.0 + 1.0 / a
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 1000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * (1.0 + y))
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 0.5 * _EPS * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _t_tail(t: float, df: int, beta: float) -> float:
    """``P(T > t) = I_x(df/2, 1/2) / 2``, ``x = df / (df + t^2)``, for ``t >= 0``.

    ``beta`` is ``B(df/2, 1/2)``.  From 16 degrees of freedom on and for
    ``t^2 < (e - 1) df``, the expansion for large ``a = df/2``: with
    ``T = a - 1/4`` and ``X = T ln(1 + t^2/df)``,
    ``I_x(a, 1/2) = sum_n c_n Gamma(1/2 + 2n, X) / (T^(1/2 + 2n) B(a, 1/2))``,
    the incomplete gammas by upward recursion from ``sqrt(pi) erfc(sqrt X)``.
    Elsewhere the continued fraction, on ``I_x(a, 1/2)`` for ``t >= 1`` and
    on its complement ``I_y(1/2, a)``, ``y = 1 - x``, below.
    """
    a = df / 2.0
    t2 = t * t
    z = math.log1p(t2 / df)  # -ln x
    if df >= _LARGE_A_DF and z < 1.0:
        big_t = a - 0.25
        X = big_t * z
        g = math.erfc(math.sqrt(X))  # Gamma(s, X) / sqrt(pi), s = 1/2
        e = math.sqrt(X / math.pi) * math.exp(-X)  # X^s e^-X / sqrt(pi)
        s, total, scale = 0.5, g, 1.0
        for c in _LARGE_A_COEFFS[1:]:
            for _ in range(2):
                g, e, s = s * g + e, e * X, s + 1.0
            scale /= big_t * big_t
            term = c * g * scale
            total += term
            if abs(term) <= 0.5 * _EPS * total:
                break
        return 0.5 * math.sqrt(math.pi / big_t) / beta * total
    x, y = df / (df + t2), t2 / (df + t2)
    front = math.exp(-a * z) * math.sqrt(y) / beta  # x^a y^(1/2) / B(a, 1/2)
    if t < 1.0:
        return 0.5 - 0.5 * front * _beta_fraction(0.5, a, y, x)
    return 0.5 * front * _beta_fraction(a, 0.5, x, y)


def _t_upper_quantile(df: int, tail: float) -> float:
    """The t with ``P(T > t) = tail`` for Student's t with integer ``df >= 1``.

    ``tail`` lies in [0, 1/2); callers pass ``1 - level``, which is exact for
    ``level >= 1/2``.  A tail of 0 (a level that rounds to 1) gives inf.  df = 1
    is the Cauchy closed form; otherwise plain Newton steps on :func:`_t_tail`
    from t = 0.  They need no bracket: ``P(T > t)`` is decreasing and convex for
    t >= 0, so a tangent taken below the root meets ``tail`` at or below the
    root, and the iterates increase to it.  Within a few ulp of the exact
    quantile for tails up to 1/4; nearer 1/2, where t tends to 0, to about
    1e-16 absolutely.  :func:`critical_value` and :func:`confidence_interval`
    pass a tail of 0 or at least 2**-53, which takes at most 50 steps (at df = 2,
    the slowest); a tail that 100 steps do not reach (``_t_upper_quantile(2, 1e-50)``
    would stop at 5.3e17, against 7.1e24) is a :class:`NumericalError`.
    """
    if tail <= 0.0:
        return math.inf
    if df == 1:
        return 1.0 / math.tan(math.pi * tail)
    beta = _beta_half(df)
    t = 0.0
    for _ in range(100):
        density = math.exp(-(df + 1.0) / 2.0 * math.log1p(t * t / df)) / (math.sqrt(df) * beta)
        step = (_t_tail(t, df, beta) - tail) / density
        # the error after this step is O(step^2); a step below 0 is rounding at the root
        if step <= 1e-10 * t:
            return max(t + step, 0.0)
        t += step
    raise NumericalError(f"t quantile (df={df}, tail={tail!r}) not reached in 100 Newton steps")


def confidence_interval(sigma_u_hat: float, tau2_hat: float, k: int, level: float = 0.95):
    """Two-sided t interval ``sigma_u_hat +- t_{(1+level)/2, k-1} sqrt(tau2/k)``.

    A level so near 1 that ``(1 + level) / 2`` rounds to 1, where the quantile
    is infinite, is a :class:`NumericalError`.
    """
    level, = check_unit_interval(level=level)
    sigma_u, tau2, k = _check_t_args(sigma_u_hat, tau2_hat, k)
    quantile = _t_upper_quantile(k - 1, 1.0 - (1.0 + level) / 2.0)
    if not math.isfinite(quantile):
        raise NumericalError(f"t quantile at level {level!r} (k={k}) is not finite")
    half = quantile * math.sqrt(tau2 / k)
    return sigma_u - half, sigma_u + half


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
    if not (isinstance(method, str) and method in _ADJUSTED):
        return fixed_critical_value(method)
    alpha, = check_unit_interval(alpha=alpha)
    df, = check_integer(2, df=df)
    if method == "bonferroni":
        n_pairs, = check_integer(1, n_pairs=n_pairs)
        level = 1.0 - alpha / (2.0 * n_pairs)
    else:
        level = 1.0 - alpha / 2.0
    cv = _t_upper_quantile(df, 1.0 - level)
    if not np.isfinite(cv):
        raise NumericalError(f"t quantile at level {level!r} (df={df}) is not finite; "
                             f"alpha={alpha!r} is too small")
    return cv


def _pair_pipeline(sample: TailSample, sigma_hat, q_pred, q_res):
    """``(inverse, fit)``: ``Theta`` as the :class:`~tailgraph.tpdm.IPMatrix`
    :func:`~tailgraph.project.invert_ipm` returns, or None, and ``fit(pair)``,
    which returns the pair's C and its :class:`PairRecord`.

    ``Y = t^-1(X)``, ``Theta = Gamma^-1`` and ``Zt = Theta Y^T``, the columns
    of ``Z = Y Theta`` as rows, are computed once.  The pair T then has
    ``C = (Theta_TT)^-1``, taken on Python floats, and residuals
    ``U = Z[:, T] C``, the two rows of one (2, 2) by (2, n) product on a
    strided view of ``Zt[T]``.  Interlacing bounds every complement block's
    condition number by Gamma's, so no pair fails the complement gate here;
    one whose ``det(Theta_TT)`` leaves the normal float64 range, on a sample
    scaled far from unit size, is a :class:`NumericalError`.

    A pair takes the reference path, where one complement factorization gives
    its weights b and C and its residuals are the rows ``Y^T[T] - b^T Y^T[R]``,
    when Gamma fails the inversion gate (the inverse is then None) or when a
    column of Z it needs is not finite: cells near the float64 maximum can
    overflow ``Y Theta`` where the complement solve does not.  There a pair whose
    target lies in the span of its complement is a
    :class:`DegenerateProjectionError`; the precision path needs no such gate
    (see ``project._check_projection``).  The callers check every argument.
    """
    Y = softplus_inv(sample.data)
    gamma_max = np.abs(as_matrix(sigma_hat)).max()
    try:
        # looked up on the module, so a wrapper installed on project.invert_ipm sees it
        inverse = project.invert_ipm(sigma_hat)
    except ConditioningError:
        inverse = None
        fast = [False] * sample.p
        Yt = np.ascontiguousarray(Y.T)  # every pair gathers rows of it
    else:
        theta, Yt = inverse.entries, Y.T
        with np.errstate(over="ignore", invalid="ignore"):
            Zt = theta @ Yt
        fast = np.isfinite(Zt).all(axis=1).tolist()  # per column: can a pair read it off Z
        th = theta.tolist()

    def fit(pair):
        i, j = pair
        if fast[i] and fast[j]:
            a, c, d = th[i][i], th[i][j], th[j][j]
            det = a * d - c * c
            if not _TINY <= det < math.inf:
                raise NumericalError(f"det(Theta_TT) = {det!r} is outside the normal float range")
            c00, c01, c11 = d / det, -c / det, a / det
            C = np.array([[c00, c01], [c01, c11]])
            U = C @ Zt[i::j - i][:2]  # rows i and j of Zt as a strided view: nothing is copied
            m_trace = c00 + c11
        else:
            part = Partition.pair(i, j, sample.p)
            b, C = project._schur(sigma_hat, part)
            project._check_projection(C.diagonal().min(), gamma_max)
            U = _preimage_residuals(Yt, part, b)
            m_trace = float(C[0, 0] + C[1, 1])
        res = _retain_exceedances(U, q_pred, m_trace)  # the total mass is the trace of C
        sigma_u, _, k, prod = _angular_moment(res.w[:, 0] * res.w[:, 1], res.r, res.n_total,
                                              m_trace, q_res)
        tau2 = _tau2(prod, m_trace)  # positive, with k >= 2
        return C, PairRecord(i, j, sigma_u, tau2, k, t_statistic(sigma_u, tau2, k))

    return inverse, fit


def ptc_test_all_pairs(sample, q_radial: float = 0.95, q_pred: float = 0.98,
                       q_res: float | None = None, cv_method="bonferroni",
                       alpha: float = 0.05, tpdm_mode: str = "pairwise",
                       tpdm_mass="fixed") -> PtcTestReport:
    """Test every pair for zero partial tail correlation.

    Estimates the TPDM once, then per pair: the conditional IPM and preimage
    residuals from the precision matrix (see :func:`_pair_pipeline`),
    thresholded at ``q_pred``, the angular-moment estimate and its variance,
    and the t statistic.  One global critical value is applied; per-pair
    failures are recorded in the report instead of aborting the run.
    ``sample`` is a TailSample or an array held to its rule.
    """
    sample = as_sample(sample)
    if sample.p < 3:
        raise DomainError("need at least 3 variables (a pair plus one conditioning variable)")
    q_radial, q_pred, alpha = check_unit_interval(q_radial=q_radial, q_pred=q_pred, alpha=alpha)
    if q_res is not None:
        q_res, = check_unit_interval(q_res=q_res)
    adjusted = isinstance(cv_method, str) and cv_method in _ADJUSTED
    # an unknown method fails here, before any pair is fitted; a fixed value (e.g.
    # a studentized-range critical value computed elsewhere) is used verbatim
    cv = None if adjusted else critical_value(cv_method)
    sigma_hat = estimate_tpdm(sample, q_radial=q_radial, mode=tpdm_mode, mass=tpdm_mass)
    inverse, fit = _pair_pipeline(sample, sigma_hat, q_pred, q_res)
    records = []
    for i, j in combinations(range(sample.p), 2):
        try:
            _, rec = fit((i, j))
        except TailgraphError as exc:
            rec = PairRecord(i, j, error=f"{type(exc).__name__}: {exc}")
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
                         ptc=None if inverse is None else ptc_matrix_from_inverse(inverse))


def _replicate(A, n, seeds, run_rep):
    """Apply ``run_rep`` to a sample of n rows of ``A (*) Z`` per noise seed.  Returns the
    rows of the replications that succeeded and a Counter of the failed ones by class."""
    rows, failures, last = [], Counter(), None
    for seed in seeds:
        try:
            X = construct(A, sample_noise(A.shape[1], n, seed=seed))
            rows.append(run_rep(TailSample(X)))
        except TailgraphError as exc:
            failures[type(exc).__name__] += 1
            last = exc
    if not rows:
        raise NumericalError(f"every replication failed {dict(failures)}; last: {last}")
    return rows, failures


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
    failures: dict = field(default_factory=dict)  # exception class -> failed replications

    def to_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "level": self.level,
            "reps": self.reps,
            "n": self.n,
            "phi": self.phi,
            "true_value": self.true_value,
            "failed": self.failed,
            "failures": dict(self.failures),
            "mean_k": float(np.mean(self.k_values)) if self.k_values.size else None,
            "partition_estimates": self.partition_estimates.tolist(),
            "residual_estimates": self.residual_estimates.tolist(),
        }


def coverage_study(phi: float = 0.7, n: int = 10_000, reps: int = 500,
                   q_radial: float = 0.98, level: float = 0.95, seed=0) -> CoverageResult:
    """Confidence-interval coverage for the second and fourth variable of the
    four-variable autoregressive model given the others (true value 0).

    Simulates the model, estimates the TPDM from the largest (1 - q_radial)
    fraction of full-vector radii, fits prediction weights for the pair, and
    builds a per-replication t interval for the conditional off-diagonal from
    the residual estimator.  Both the partition-based and the residual-based
    estimates are returned per replication.
    """
    reps, n = check_integer(1, reps=reps, n=n)
    check_array_size(n, 4)  # here, not as "every replication failed"
    seed, = check_integer(0, seed=seed)
    # these fail here, not in every replication: whether the level's quantile
    # is finite does not depend on k
    q_radial, level, phi = check_unit_interval(q_radial=q_radial, level=level, phi=phi)
    confidence_interval(0.0, 1.0, 2, level)
    A = ar1_matrix(phi, 4)
    part = Partition.pair(1, 3, 4)
    true_c = conditional_ipm(theoretical_ipm(A), part)[0, 1]

    def run_rep(sample):
        sigma_hat = estimate_tpdm(sample, q_radial=q_radial, mode="global", mass="estimate")
        _, fit = _pair_pipeline(sample, sigma_hat, q_pred=q_radial, q_res=None)
        C, rec = fit(part.target)
        lo, hi = confidence_interval(rec.sigma_u, rec.tau2, rec.k, level)
        return (lo <= true_c <= hi, C[0, 1], rec.sigma_u, rec.k, rec.t_stat)

    rows, failures = _replicate(A, n, np.random.SeedSequence(seed).spawn(reps), run_rep)
    covered, part_est, res_est, ks, ts = (np.asarray(col) for col in zip(*rows))
    return CoverageResult(coverage=float(covered.mean()), level=level, reps=reps, n=n, phi=phi,
                          true_value=float(true_c), covered=covered,
                          partition_estimates=part_est, residual_estimates=res_est,
                          k_values=ks, t_values=ts, failed=reps - len(rows), failures=failures)


def size_power_study(phi: float = 0.7, n: int = 10_000, reps: int = 200, p: int = 4,
                     q_radial: float = 0.98, q_pred: float = 0.98, cv_method="bonferroni",
                     alpha: float = 0.05, seed: int = 0):
    """Size and power of the all-pairs test on the autoregressive model.

    Replication r tests a fresh sample drawn with seed ``seed + r``, using the
    global TPDM with estimated mass.  The model is a chain: adjacent pairs
    carry partial tail correlation, so their rejection rates estimate power;
    pairs at lag two or more carry none, so theirs estimate size.  Returns
    ``(rejections, errors, failures)``: per pair ``(i, j)`` the replications
    that rejected it (every pair) and those in which it errored (the pairs
    that did), and the replications that failed whole, by exception class.
    """
    reps, n = check_integer(1, reps=reps, n=n)
    p, = check_integer(3, p=p)  # a pair plus one conditioning variable
    check_array_size(max(n, p), p)  # the sample and the coefficient matrix, not in a replication
    seed, = check_integer(0, seed=seed)
    # these fail here, not in every replication: whether the critical value is
    # finite does not depend on df
    q_radial, q_pred, alpha = check_unit_interval(q_radial=q_radial, q_pred=q_pred, alpha=alpha)
    critical_value(cv_method, alpha=alpha, n_pairs=p * (p - 1) // 2, df=2)

    def run_rep(sample):
        return ptc_test_all_pairs(sample, q_radial=q_radial, q_pred=q_pred, cv_method=cv_method,
                                  alpha=alpha, tpdm_mode="global", tpdm_mass="estimate").records

    rows, failures = _replicate(ar1_matrix(phi, p), n, range(seed, seed + reps), run_rep)
    rejections, errors = dict.fromkeys(combinations(range(p), 2), 0), Counter()
    for rec in chain.from_iterable(rows):
        rejections[rec.i, rec.j] += bool(rec.reject)
        errors[rec.i, rec.j] += rec.error is not None
    return rejections, +errors, failures
