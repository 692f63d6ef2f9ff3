"""Marginal preprocessing and tail pairwise dependence matrix estimation.

Data are brought to common shifted-Pareto margins with the rank transform
``x = 1/sqrt(1 - rank/(n+1)) - delta`` where the shift ``delta`` centers the
transformed preimages, ``E[t^-1(X)] = 0``.  Pairwise dependence in the tail
is summarized by second angular moments of threshold exceedances:

    sigma_ij = (m/k) * sum_l w_{l,i} w_{l,j} 1[r_l > r_(k)]

with polar coordinates (r, w) per observation, r_(k) the k-th upper order
statistic and m the total angular mass (2 per pair after preprocessing,
``(r_(k)^2/n) k`` when estimated from raw-scale radii).

The pairwise TPDM reads only tail candidates.  Entries are positive, so
the pair's radius at rank ``lo = floor((n-1) q)`` is at least
``max(a_i, a_j)``, the columns' own order statistics at that rank, while a
row with both coordinates below ``0.7 a`` has a radius below
``0.7 sqrt(2) max(a_i, a_j)``: it can neither set the quantile nor exceed
it.  Each pair works on the union of its columns' candidates, in row order,
and gives the bits of the full computation in O(np + sum of candidates).

A radius is ``sqrt(sum x^2)``; a row whose sum of squares underflowed or
overflowed (lies outside ``[tiny, inf)``) takes ``m ||x / m||``, m its
largest magnitude.  Every tail set, the TPDM's and the residuals', is one
call of :func:`_radial_exceedances` on the squared radii.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateMarginError,
    DimensionError,
    DomainError,
    InsufficientExceedancesError,
    NumericalError,
    check_integer,
    check_names,
    check_positive,
    check_unit_interval,
    float_array,
    float_scalar,
)

MIN_EXCEEDANCES = 10
# A little below 1/sqrt(2), so that rounding in the radius or in the product
# cannot drop a row that reaches a pair's threshold (see the module docstring).
CANDIDATE_FACTOR = 0.7
_TINY = np.finfo(float).tiny  # below it a square has lost bits to underflow


@dataclass
class TailSample:
    """n x p matrix of positive observations on a common marginal scale."""

    data: np.ndarray
    columns: list[str] | None = None

    def __post_init__(self):
        self.data = _observations(self.data, "sample", finite=False)  # checked below, with > 0
        if not np.all(np.isfinite(self.data)) or np.any(self.data <= 0.0):
            raise DataError("sample entries must be finite and strictly positive")
        self.columns = ([f"X{i + 1}" for i in range(self.p)] if self.columns is None
                        else check_names(self.columns, self.p))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass
class IPMatrix:
    """Symmetric p x p matrix of inner products / TPDM entries."""

    entries: np.ndarray
    k_used: np.ndarray | None = None  # per-pair exceedance counts (estimated only)

    def __post_init__(self):
        U, e = _unit_scale(square_matrix(self.entries))
        if not np.allclose(U, U.T, atol=1e-12):
            raise DomainError("inner product matrix must be symmetric")
        self.entries = np.ldexp((U + U.T) / 2.0, e)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


def _observations(value, what: str, finite: bool = True) -> np.ndarray:
    """``value`` as an (observations x variables) float array, a 1-D one as one
    column, under :func:`~tailgraph.errors.float_array`'s rule."""
    arr = float_array(value, what, finite)
    arr = arr[:, None] if arr.ndim == 1 else arr
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be a 2-D array (observations x variables)")
    return arr


def square_matrix(matrix, what: str = "inner product matrix", finite: bool = True) -> np.ndarray:
    """``matrix`` as a float array: 2-D and square, and with ``finite`` finite."""
    M = float_array(matrix, what, finite)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {M.shape}")
    return M


def _unit_scale(M: np.ndarray) -> tuple[np.ndarray, int]:
    """``(U, e)`` with ``M = U 2^e``, e even and max|U| in [1/4, 1) (e = 0 for a zero M).

    The inner-product layer's one range rule: it works on U, where no sum,
    product or solve of a well-conditioned positive semi-definite matrix
    leaves the float64 range, and scales its results back by a power of two.
    A power of four is exact and passes exactly through Cholesky's square
    roots, so results keep the bits of the same computation on M, except in
    cells more than about 2^1020 below max|M|, or scaled back into the
    subnormal range.
    """
    e = math.frexp(float(np.abs(M).max(initial=0.0)))[1]
    e += e % 2  # even: max|U| = max|M| 2^-e lies in [1/4, 1)
    return np.ldexp(M, -e), e


def as_matrix(gamma) -> np.ndarray:
    """The entries of ``gamma``, an IPMatrix or an array-like held to its rule."""
    return (gamma if isinstance(gamma, IPMatrix) else IPMatrix(gamma)).entries


def as_sample(sample) -> TailSample:
    """``sample``, a TailSample or an array-like held to its rule."""
    return sample if isinstance(sample, TailSample) else TailSample(sample)


# A cached function, not a module constant: perfbench calls cache_clear() on it.
@functools.lru_cache(maxsize=1)
def solve_delta() -> float:
    """Shift making the preimage mean of the shifted Pareto zero.

    The root of ``E[t^-1(1/sqrt(1-U) - delta)] = 0`` for U uniform, a constant
    of the transform; ``tests/test_tpdm.py::TestSolveDelta`` re-derives it by
    quadrature and bracketed root finding.
    """
    return 0.9352083872762512


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a 1-D array, tied values sharing the mean of their ranks.

    Equal, bit for bit, to scipy's ``rankdata(x, method="average")``.
    """
    order = np.argsort(x)
    s = x[order]
    first = np.concatenate(([True], s[1:] != s[:-1]))
    dense = np.cumsum(first)  # tie group of each sorted value, from 1
    count = np.concatenate((np.flatnonzero(first), [x.size]))  # count[g]: values in groups 1..g
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def marginal_transform(raw, columns=None) -> TailSample:
    """Rank-transform every column to the common shifted-Pareto scale.

    Ranks use the average convention for ties and are scaled by 1/(n+1) so the
    empirical CDF never reaches 1.  A constant column raises
    :class:`DegenerateMarginError`.
    """
    arr = _observations(raw, "raw data")
    n, p = arr.shape
    if n < 2:
        raise DataError("need at least 2 observations per column")
    delta = solve_delta()
    out = np.empty_like(arr)
    for j in range(p):
        col = arr[:, j]
        if col.min() == col.max():  # not np.ptp: max - min can overflow
            raise DegenerateMarginError(f"column {j} is constant")
        fhat = _average_ranks(col) / (n + 1)
        out[:, j] = 1.0 / np.sqrt(1.0 - fhat) - delta
    return TailSample(out, columns=columns)


def polar2(xi, xj):
    """Polar decomposition of paired observations.

    Returns ``(r, w)`` with r the L2 radius (see :func:`_radii`) and w the
    n x 2 unit angles.  Rows with zero radius are dropped with a warning.
    """
    a, b, _, r = _pair_radii(xi, xj)
    return r, np.column_stack((a / r, b / r))


def _pair_radii(xi, xj):
    """``(a, b, s, r)``: paired coordinates, their squared radii and radii,
    zero-radius rows dropped."""
    a, b = float_array(xi, "paired observations"), float_array(xj, "paired observations")
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("polar2 expects two equal-length 1-D sequences")
    with np.errstate(over="ignore"):
        s = _squares(a, b)
    r = _radii(s, (a, b))
    keep = r > 0.0
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} zero observations before polar transform",
                      stacklevel=3)
        a, b, s, r = a[keep], b[keep], s[keep], r[keep]
    return a, b, s, r


def _squares(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x^2 + y^2``, the squared radii of the rows ``(x, y)``: inf where they
    overflow (the caller decides on the warning).  ``np.square`` has the bits
    of ``x * x`` and is faster."""
    s = np.square(x)
    s += np.square(y)
    return s


def _strict_exceedances(r: np.ndarray, thr, context: str = "") -> np.ndarray:
    """Indices of the radii strictly above ``thr`` (ties at it drop); fewer than
    MIN_EXCEEDANCES is an :class:`InsufficientExceedancesError`."""
    keep = (r > thr).nonzero()[0]
    if keep.size < MIN_EXCEEDANCES:
        raise InsufficientExceedancesError(keep.size, MIN_EXCEEDANCES, context)
    return keep


def _order_statistics(v: np.ndarray, q: float, n: int):
    """``(a, b, g)`` of numpy's ``linear`` q-quantile of n values: the
    ``floor((n-1) q)``-th smallest a, the next b and the fraction g between; callers check q.

    ``v`` holds, in any order, every value at or above a (by default all n of
    them), each a square, a sum of squares or a root of one: +0, positive,
    +inf or NaN.  For these the unsigned order of the bit patterns is numpy's
    order of the values, every NaN of either sign last.  So one integer
    partition at a, shifted by the ``n - v.size`` values left out, puts
    every larger value after it, and b is the integer minimum of those.
    """
    if not v.size:
        return 0.0, 0.0, 0.0
    h = (n - 1) * q  # numpy's virtual index; a rewritten form changes the last bit
    lo = math.floor(h)
    kth = lo - (n - v.size)  # the values left out all lie below the lo-th smallest
    bits = np.partition(v.view(np.uint64), kth)
    part = bits.view(np.float64)
    a = float(part[kth])
    b = float(part[kth + 1 + bits[kth + 1:].argmin()]) if kth + 1 < v.size else a
    return a, b, h - lo


def _radial_exceedances(s: np.ndarray, q: float, cols, context: str = "", n: int | None = None):
    """Rows whose L2 radius strictly exceeds the empirical q-quantile of n
    radii: ``(idx, radii, k, threshold)``, ``idx`` indexing ``s``.

    ``s`` holds the squared radii ``sum x^2`` of every row at or above the
    ``floor((n-1) q)``-th smallest radius, in any order (by default all n),
    and ``cols`` their columns (``c[i]`` for c in cols is row i), read only
    to mend a radius (see :func:`_radii`).  The threshold is numpy's
    ``linear`` quantile of the radii, bit for bit: ``sqrt`` is monotone and
    correctly rounded, so the roots of the order statistics of ``s``, blended
    as numpy's ``_lerp`` does, give it, and only the rows above the lower
    one take a root.  When an order statistic lies outside ``[tiny, inf)``
    every radius is mended and the threshold taken again on them.

    Raises :class:`InsufficientExceedancesError` when k < MIN_EXCEEDANCES.
    """
    n = s.size if n is None else n
    a, b, g = _order_statistics(s, q, n)
    if a >= _TINY and b < np.inf:
        rows = (s > a).nonzero()[0]
        above = s.take(rows)  # at least tiny: only an overflowed square needs mending
        r = _radii(above, cols, rows) if rows.size and above.max() == np.inf else np.sqrt(above)
        a, b = math.sqrt(a), math.sqrt(b)
    else:  # also NaN, which leaves no exceedance
        rows = None
        r = _radii(s, cols)
        a, b, g = _order_statistics(r, q, n)
    thr = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g  # numpy's _lerp
    keep = _strict_exceedances(r, thr, context)
    return keep if rows is None else rows.take(keep), r.take(keep), keep.size, thr


def _radii(s: np.ndarray, cols, rows=None) -> np.ndarray:
    """The L2 radii ``sqrt(s)`` of rows whose squared radii are ``s``.

    Row i has the coordinates ``c[rows[i]]`` for c in ``cols`` (``c[i]`` when
    rows is None).  Where ``s[i]`` lies outside ``[tiny, inf)`` the radius
    is taken again as ``m ||x / m||``, m the row's largest magnitude.  A zero
    row keeps radius 0, and one whose norm is past the float64 range inf.
    """
    r = np.sqrt(s)
    bad = ((s < _TINY) | (s == np.inf)).nonzero()[0]
    if bad.size:
        at = bad if rows is None else rows.take(bad)
        x = np.stack([c.take(at) for c in cols], axis=1)
        m = np.max(np.abs(x), axis=1)
        ok = (m > 0.0) & (m < np.inf)
        with np.errstate(over="ignore"):
            r[bad[ok]] = m[ok] * np.sqrt(np.sum((x[ok] / m[ok, None]) ** 2, axis=1))
    return r


def estimate_mass(r, k: int, n: int) -> float:
    """Total-mass estimate ``(r_(k)^2 / n) * k`` from raw-scale radii."""
    radii = float_array(r, "radii")
    if radii.ndim != 1 or (radii < 0.0).any():
        raise DataError("radii must be a 1-D array of non-negative values")
    k, n = check_integer(1, k=k, n=n)
    if k > n or k > radii.size:
        raise DomainError("need 1 <= k <= n")
    return _estimated_mass(float(np.partition(radii, radii.size - k)[radii.size - k]), k, n)


def _estimated_mass(r_k: float, k: int, n: int) -> float:
    """``(r_(k)^2 / n) k``, the total mass from r_k, the k-th largest of n radii."""
    m = r_k * r_k / n * k  # not r_k ** 2: libm's pow is not correctly rounded
    if m == math.inf:
        raise NumericalError(f"estimated mass overflows: threshold radius {r_k!r}")
    return m


def _angular_moment(prod, r, n: int, mass: float | None, q_res: float | None = None):
    """``(sigma, m, k, prod)``, ``sigma = (m/k) sum prod`` over k exceedances (radii
    ``r``, angular products ``prod``) of n radii; m is ``mass`` (None:
    :func:`_estimated_mass`).  ``q_res`` (checked by the callers) cuts more than
    ``floor((1 - q_res) n)`` rows to that many at the matching upper order
    statistic (strict, ties dropped).  An empty set is an InsufficientExceedancesError."""
    k = r.size
    k_target = k if q_res is None else math.floor((1.0 - q_res) * n + 1e-9)
    if k_target < k:
        cut = k - k_target - 1  # the (k_target + 1)-th largest
        keep = _strict_exceedances(r, np.partition(r, cut)[cut], "residual estimator")
        prod, r, k = prod.take(keep), r.take(keep), keep.size
    if not k:
        raise InsufficientExceedancesError(0, 1, "residual estimator")
    m = _estimated_mass(float(r.min()), k, n) if mass is None else mass
    return m / k * float(prod.sum()), m, k, prod


def _read_mass(mass, name: str, value) -> float | None:
    """The total angular mass m of the estimator ``(m/k) sum w_1 w_2``, read once.

    ``mass`` is "estimate" (None: :func:`_estimated_mass` of the exceedances),
    the caller's ``name`` for its own ``value`` (the fixed mass of the TPDM,
    the conditional-IPM trace of the residual test), or a positive number
    used verbatim.
    """
    if isinstance(mass, str) and mass in ("estimate", name):
        if mass == "estimate":
            return None
        if value is None:
            raise DomainError(f"mass={name!r} needs a value for this sample")
        return float_scalar(value, f"the {name} mass")
    return check_positive(float_scalar(mass, "mass", f"'estimate', {name!r} or a positive number"),
                          "fixed mass")


def _pair_moment(a, b, s, n: int, q_radial: float, mass: float | None):
    """``(sigma, k, wa, wb)`` of one TPDM entry from the coordinates (a, b) and
    squared radii s of rows holding every exceedance of the pair's n radii
    (see :func:`_radial_exceedances`); ``(wa, wb)`` are the exceedances' unit
    angles, the only ones formed.  ``mass`` is read by :func:`_read_mass`."""
    idx, rk, _, _ = _radial_exceedances(s, q_radial, (a, b), "pair estimate", n)
    wa, wb = a.take(idx) / rk, b.take(idx) / rk
    sigma, _, k, _ = _angular_moment(wa * wb, rk, n, mass)
    return sigma, k, wa, wb


def estimate_sigma_pair(xi, xj, q_radial: float = 0.95, mass="fixed"):
    """Pairwise angular-moment estimate of one TPDM entry.

    ``mass`` is "fixed" (total mass 2, unit-scale margins), "estimate"
    (``(r_(k)^2/n) k`` from the pair radii), or a positive number used
    verbatim.  Returns ``(sigma_hat, k, angles)`` where ``angles`` are the
    retained unit vectors, kept for variance estimation.  Zero rows are
    dropped as in :func:`polar2`.
    """
    a, b, s, _ = _pair_radii(xi, xj)
    q_radial, m = _check_estimate_args(q_radial, mass, 2.0, a.size)
    sigma, k, wa, wb = _pair_moment(a, b, s, a.size, q_radial, m)
    return sigma, k, np.column_stack((wa, wb))


def _check_estimate_args(q_radial: float, mass, fixed: float, n_pair: int | None = None):
    """An estimate's argument errors in order: q, the mass, too few rows for a
    pair.  Returns ``(q_radial, m)``: q as a float and the mass read by
    :func:`_read_mass`, ``fixed`` for "fixed"."""
    q_radial, = check_unit_interval(q_radial=q_radial)
    m = _read_mass(mass, "fixed", fixed)
    if n_pair is not None and n_pair < 50:
        raise DataError("need at least 50 paired observations")
    return q_radial, m


def _tail_candidates(cols: np.ndarray, q_radial: float) -> np.ndarray:
    """``(p, n)`` mask of the tail candidates of each row of ``cols``: its entries
    at or above ``CANDIDATE_FACTOR`` times its ``floor((n-1) q)``-th smallest."""
    lo = math.floor((cols.shape[1] - 1) * q_radial)
    a = np.array([np.partition(c, lo)[lo] for c in cols])  # by row: no copy of the whole
    return cols >= CANDIDATE_FACTOR * a[:, None]


def estimate_tpdm(sample, q_radial: float = 0.95, mode: str = "pairwise",
                  mass="fixed") -> IPMatrix:
    """Estimate the TPDM of a sample from threshold exceedances.

    ``mode="pairwise"`` thresholds each pair on its own bivariate radius (the
    convention for preprocessed data); ``mode="global"`` thresholds once on
    the full p-vector radius (the convention for simulation studies).  With
    ``mass="fixed"`` the total mass is 2 per pair, or p for the global radius,
    which presumes unit-scale margins.  Each pair reads only its tail
    candidates and gives the bits of :func:`estimate_sigma_pair`.  ``sample``
    is a TailSample or an array held to its rule (:func:`as_sample`).
    """
    X = as_sample(sample).data
    n, p = X.shape
    if not (isinstance(mode, str) and mode in ("pairwise", "global")):
        raise DomainError(f"unknown mode {mode!r}")
    q_radial, m = _check_estimate_args(q_radial, mass, p if mode == "global" else 2.0,
                                       n if mode == "pairwise" else None)
    if mode == "global":
        with np.errstate(over="ignore"):
            s = np.sum(X ** 2, axis=1)
        idx, radii, k, _ = _radial_exceedances(s, q_radial, X.T, "global TPDM")
        m = _estimated_mass(float(radii.min()), k, n) if m is None else m
        W = X.take(idx, axis=0) / radii[:, None]
        S = (m / k) * (W.T @ W)
        return IPMatrix(S, k_used=np.full((p, p), k))
    S = np.zeros((p, p))
    K = np.zeros((p, p), dtype=int)
    if p:
        cols = np.ascontiguousarray(X.T)  # a pair's gathers read two contiguous rows
        cand = _tail_candidates(cols, q_radial)
    with np.errstate(over="ignore"):
        for i in range(p):
            for j in range(i, p):
                rows = (cand[i] | cand[j]).nonzero()[0]
                a, b = cols[i].take(rows), cols[j].take(rows)
                sigma, k, _, _ = _pair_moment(a, b, _squares(a, b), n, q_radial, m)
                S[i, j] = S[j, i] = sigma
                K[i, j] = K[j, i] = k
    return IPMatrix(S, k_used=K)
