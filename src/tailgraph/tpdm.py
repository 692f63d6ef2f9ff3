"""Marginal preprocessing and tail pairwise dependence matrix estimation.

Data are brought to common shifted-Pareto margins with the rank transform
``x = 1/sqrt(1 - rank/(n+1)) - delta`` where the shift ``delta`` centers the
transformed preimages, ``E[t^-1(X)] = 0``.  Pairwise dependence in the tail
is summarized by second angular moments of threshold exceedances:

    sigma_ij = (m/k) * sum_l w_{l,i} w_{l,j} 1[r_l > r_(k)]

with polar coordinates (r, w) per observation, r_(k) the k-th upper order
statistic and m the total angular mass (2 per pair after preprocessing,
``(r_(k)^2/n) k`` when estimated from raw-scale radii).

The pairwise TPDM reads only tail candidates.  Entries are positive, so a
pair radius is at least each coordinate and the pair's radius at rank
``lo = floor((n-1) q)`` is at least ``max(a_i, a_j)``, the columns' own
order statistics at that rank.  A row with every coordinate below
``0.7 a`` has a radius below ``0.7 sqrt(2) max(a_i, a_j)``, so it can neither
set the quantile nor exceed it.  One partition of the sample finds ``a``;
each pair then works on the union of its two columns' candidates, in row
order, and gives the bits of the full computation.  The arithmetic costs
O(np + sum of candidates) instead of O(np^2); what stays linear in n per
pair is the union of two byte masks.
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
)

MIN_EXCEEDANCES = 10
# A little below 1/sqrt(2), so that rounding in hypot or in the product cannot
# drop a row that reaches a pair's threshold (see the module docstring).
CANDIDATE_FACTOR = 0.7


@dataclass
class TailSample:
    """n x p matrix of positive observations on a common marginal scale."""

    data: np.ndarray
    margin: str = "raw"  # "raw" or "shifted-pareto"
    delta: float | None = None
    columns: list[str] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim == 1:
            self.data = self.data[:, None]
        if self.data.ndim != 2:
            raise DimensionError("sample must be a 2-D array (observations x variables)")
        if not np.all(np.isfinite(self.data)) or np.any(self.data <= 0.0):
            raise DataError("sample entries must be finite and strictly positive")
        if self.columns is None:
            self.columns = [f"X{i + 1}" for i in range(self.data.shape[1])]
        elif len(self.columns) != self.data.shape[1]:
            raise DimensionError("column label count does not match data width")

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
    kind: str = "theoretical"  # "theoretical" or "estimated"
    k_used: np.ndarray | None = None  # per-pair exceedance counts (estimated only)
    mass: float | str | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise DimensionError("inner product matrix must be square")
        if not np.allclose(self.entries, self.entries.T, atol=1e-12):
            raise DomainError("inner product matrix must be symmetric")

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


def as_matrix(gamma) -> np.ndarray:
    """Extract a plain array from an IPMatrix or array-like."""
    if isinstance(gamma, IPMatrix):
        return gamma.entries
    return np.asarray(gamma, dtype=float)


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
    order = np.argsort(x, kind="stable")
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
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionError("raw data must be a 2-D array")
    if not np.all(np.isfinite(arr)):
        raise DataError("raw data contains non-finite values")
    n, p = arr.shape
    if n < 2:
        raise DataError("need at least 2 observations per column")
    delta = solve_delta()
    out = np.empty_like(arr)
    for j in range(p):
        col = arr[:, j]
        if np.ptp(col) == 0.0:
            raise DegenerateMarginError(f"column {j} is constant")
        fhat = _average_ranks(col) / (n + 1)
        out[:, j] = 1.0 / np.sqrt(1.0 - fhat) - delta
    return TailSample(out, margin="shifted-pareto", delta=delta, columns=columns)


def polar2(xi, xj):
    """Polar decomposition of paired observations.

    Returns ``(r, w)`` with r the L2 radius and w the n x 2 unit angles.
    Rows with zero radius are dropped with a warning.
    """
    a, b, r = _pair_radii(xi, xj)
    return r, np.column_stack((a / r, b / r))


def _pair_radii(xi, xj):
    """``(a, b, r)``: paired coordinates and their L2 radii, zero-radius rows dropped."""
    a = np.asarray(xi, dtype=float)
    b = np.asarray(xj, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("polar2 expects two equal-length 1-D sequences")
    r = np.hypot(a, b)
    keep = r > 0.0
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} zero observations before polar transform",
                      stacklevel=3)
        a, b, r = a[keep], b[keep], r[keep]
    return a, b, r


def _strict_exceedances(r: np.ndarray, thr, context: str = ""):
    """``(mask, k)`` of the radii strictly above ``thr``; ties at it are excluded.

    Raises :class:`InsufficientExceedancesError` when k < MIN_EXCEEDANCES.
    """
    mask = r > thr
    k = int(np.count_nonzero(mask))
    if k < MIN_EXCEEDANCES:
        raise InsufficientExceedancesError(k, MIN_EXCEEDANCES, context)
    return mask, k


def _exceedance_mask(r: np.ndarray, q: float, context: str = "", n: int | None = None):
    """Strict exceedances of the empirical q-quantile of n radii: (mask, k, threshold).

    ``r`` holds, in any order, every radius at or above the ``floor((n-1) q)``-th
    smallest of the n (by default ``r`` is all n of them), and no NaN.
    """
    thr = _quantile_threshold(r, q, n)
    return (*_strict_exceedances(r, thr, context), thr)


def _quantile_threshold(r: np.ndarray, q: float, n: int | None = None) -> float:
    """The empirical q-quantile of n radii, of which ``r`` holds those that
    :func:`_exceedance_mask` needs.

    The threshold is numpy's ``linear`` quantile, bit for bit.  One partition
    at the lower order statistic, shifted by the ``n - r.size`` radii left
    out, puts every larger radius after it; the upper order statistic is the
    smallest of those.  The two are blended as numpy's ``_lerp`` does.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("radial quantile must lie in (0, 1)")
    if not r.size:
        return 0.0
    n = r.size if n is None else n
    v = (n - 1) * q  # numpy's virtual index; a rewritten form changes the last bit
    lo = math.floor(v)
    g = v - lo
    kth = lo - (n - r.size)  # the radii left out all lie below the lo-th smallest
    part = np.partition(r, kth)
    a = float(part[kth])
    # fmin skips NaN, which a partition sorts last: a NaN is the upper
    # statistic only when nothing else lies above the lower one
    b = float(np.fmin.reduce(part[kth + 1:])) if kth + 1 < r.size else a
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g  # numpy's _lerp


def _radial_exceedances(X: np.ndarray, q: float, context: str = ""):
    """Rows of X whose L2 radius strictly exceeds the empirical q-quantile of
    the n radii: ``(rows, radii, k, threshold)``.

    X is ``(n, d)`` in any memory layout.  The radius is ``sqrt(sum x^2)``.
    For two columns it is ``sqrt(x0^2 + x1^2)``, the bits of numpy's row sum
    at a fraction of its cost, read off the two rows of ``X.T``: when X is the
    transpose of a C-ordered ``(2, n)`` array, as the all-pairs runner passes
    its residuals, those rows are contiguous and the exceedances are one
    gather along them; the reference path passes a C-ordered ``(n, 2)``
    array.  A wider X keeps the row sum, whose pairwise order a column loop
    would not reproduce.  Where the squares overflow the radius is inf, and
    the row's radius is taken again by :func:`_fix_overflowed_radii`; every
    other radius keeps the bits of the plain formula.  An overflowed radius
    ranks above every finite one, so only the retained rows are inspected,
    unless the threshold itself reaches an overflowed radius.
    """
    with np.errstate(over="ignore"):
        if X.shape[1] == 2:
            x0, x1 = X.T
            r = np.sqrt(x0 ** 2 + x1 ** 2)
        else:
            r = np.sqrt(np.sum(X ** 2, axis=1))
    thr = _quantile_threshold(r, q)
    if not thr < np.inf:  # inf or NaN: mend every radius and threshold again
        _fix_overflowed_radii(X, r)
        thr = _quantile_threshold(r, q)
    mask, k = _strict_exceedances(r, thr, context)
    idx = mask.nonzero()[0]
    # take gathers from a C-ordered copy of its input: gather along the axis
    # whose rows are contiguous, and nothing is copied whole
    rows = X.take(idx, axis=0) if X.flags.c_contiguous else X.T.take(idx, axis=1).T
    radii = r[idx]
    _fix_overflowed_radii(rows, radii)
    return rows, radii, k, thr


def _fix_overflowed_radii(x: np.ndarray, r: np.ndarray):
    """Replace, in place, each infinite radius ``r[i]`` of a finite row ``x[i]``
    by ``s * ||x[i] / s||`` with s the row's largest magnitude."""
    idx = np.flatnonzero(np.isinf(r))
    if idx.size:
        s = np.max(np.abs(x[idx]), axis=1)
        idx, s = idx[np.isfinite(s)], s[np.isfinite(s)]
        with np.errstate(over="ignore"):  # a norm past the float64 range stays inf
            r[idx] = s * np.sqrt(np.sum((x[idx] / s[:, None]) ** 2, axis=1))


def estimate_mass(r, k: int, n: int) -> float:
    """Total-mass estimate ``(r_(k)^2 / n) * k`` from raw-scale radii."""
    radii = np.asarray(r, dtype=float)
    if not 1 <= k <= n or k > radii.size:
        raise DomainError("need 1 <= k <= n")
    r_k = float(np.partition(radii, radii.size - k)[radii.size - k])
    return _resolve_mass("estimate", r_k, k, n)


def _resolve_mass(mass, r_k: float, k: int, n: int, name: str = "fixed", value=None) -> float:
    """Total angular mass m of the estimator ``(m/k) sum w_1 w_2``.

    ``mass`` is "estimate" (``(r_(k)^2/n) k`` from the k-th largest of n
    radii), the caller's ``name`` for its own ``value`` (the fixed mass of
    the TPDM, the conditional-IPM trace of the residual test), or a positive
    number used verbatim.
    """
    if mass == "estimate":
        try:
            return r_k ** 2 / n * k
        except OverflowError:  # r_k past the square root of the float64 range
            raise NumericalError(f"estimated mass overflows: threshold radius {r_k!r}") from None
    if mass == name:
        if value is None:
            raise DomainError(f"mass={name!r} needs a value for this sample")
        return float(value)
    try:
        m = float(mass)
    except (TypeError, ValueError):
        raise DomainError(f"mass must be 'estimate', {name!r} or a positive number, "
                          f"got {mass!r}") from None
    if m <= 0:
        raise DomainError("fixed mass must be positive")
    return m


def _pair_moment(a, b, r, n: int, q_radial: float, mass):
    """``(sigma, k, wa, wb)`` of one TPDM entry from the coordinates (a, b) and
    radii r of rows holding every exceedance of the pair's n radii (see
    :func:`_exceedance_mask`); ``(wa, wb)`` are the exceedances' unit angles,
    the only ones formed."""
    mask, k, _ = _exceedance_mask(r, q_radial, "pair estimate", n)
    idx = mask.nonzero()[0]
    rk = r[idx]
    m = _resolve_mass(mass, float(rk.min()), k, n, "fixed", 2.0)
    wa, wb = a[idx] / rk, b[idx] / rk
    return m / k * float(np.sum(wa * wb)), k, wa, wb


def estimate_sigma_pair(xi, xj, q_radial: float = 0.95, mass="fixed"):
    """Pairwise angular-moment estimate of one TPDM entry.

    ``mass`` is "fixed" (total mass 2, unit-scale margins), "estimate"
    (``(r_(k)^2/n) k`` from the pair radii), or a positive number used
    verbatim.  Returns ``(sigma_hat, k, angles)`` where ``angles`` are the
    retained unit vectors, kept for variance estimation.  Zero rows are
    dropped as in :func:`polar2`.
    """
    a, b, r = _pair_radii(xi, xj)
    _check_pair_sample(r.size, q_radial)
    sigma, k, wa, wb = _pair_moment(a, b, r, r.size, q_radial, mass)
    return sigma, k, np.column_stack((wa, wb))


def _check_pair_sample(n: int, q_radial: float):
    """The pair estimate's argument errors, in its order: too few rows, then q."""
    if n < 50:
        raise DataError("need at least 50 paired observations")
    if not 0.0 < q_radial < 1.0:
        raise DomainError("radial quantile must lie in (0, 1)")


def _tail_candidates(X: np.ndarray, q_radial: float) -> np.ndarray:
    """``(p, n)`` mask of each column's tail candidates: its rows at or above
    ``CANDIDATE_FACTOR`` times its ``floor((n-1) q)``-th smallest value."""
    lo = math.floor((X.shape[0] - 1) * q_radial)
    a = np.partition(X, lo, axis=0)[lo]
    return np.ascontiguousarray((X >= CANDIDATE_FACTOR * a).T)


def estimate_tpdm(sample: TailSample, q_radial: float = 0.95, mode: str = "pairwise",
                  mass="fixed") -> IPMatrix:
    """Estimate the TPDM of a sample from threshold exceedances.

    ``mode="pairwise"`` thresholds each pair on its own bivariate radius (the
    convention for preprocessed data); ``mode="global"`` thresholds once on
    the full p-vector radius (the convention for simulation studies).  With
    ``mass="fixed"`` the total mass is 2 per pair, or p for the global radius,
    which presumes unit-scale margins.  Each pair reads only its tail
    candidates and gives the bits of :func:`estimate_sigma_pair` on the
    whole columns.
    """
    X = sample.data
    n, p = X.shape
    if mode == "global":
        rows, radii, k, _ = _radial_exceedances(X, q_radial, "global TPDM")
        m = _resolve_mass(mass, float(radii.min()), k, n, "fixed", p)
        W = rows / radii[:, None]
        S = (m / k) * (W.T @ W)
        return IPMatrix(S, kind="estimated", k_used=np.full((p, p), k), mass=m)
    if mode != "pairwise":
        raise DomainError(f"unknown mode {mode!r}")
    S = np.zeros((p, p))
    K = np.zeros((p, p), dtype=int)
    if p:
        _check_pair_sample(n, q_radial)
        cand = _tail_candidates(X, q_radial)
        cols = np.ascontiguousarray(X.T)  # a pair's gathers read two contiguous rows
    for i in range(p):
        for j in range(i, p):
            rows = (cand[i] | cand[j]).nonzero()[0]
            a, b = cols[i].take(rows), cols[j].take(rows)
            sigma, k, _, _ = _pair_moment(a, b, np.hypot(a, b), n, q_radial, mass)
            S[i, j] = S[j, i] = sigma
            K[i, j] = K[j, i] = k
    return IPMatrix(S, kind="estimated", k_used=K, mass=mass)
