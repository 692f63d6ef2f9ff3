"""Transformed-linear vector algebra on the positive orthant.

The transform ``t(y) = log(exp(y) + 1)`` (softplus) maps the reals onto
(0, inf).  Conjugating ordinary linear algebra through ``t`` yields vector
addition ``x1 (+) x2 = t(t^-1(x1) + t^-1(x2))``, scalar multiplication
``a (*) x = t(a t^-1(x))`` and matrix application ``A (*) x = t(A t^-1(x))``,
all of which keep results strictly positive.  The additive identity of the
space is ``t(0) = log 2``.

Both transforms take one path for scalars and arrays of any shape and
layout: masked ufuncs (``where=``) evaluate the closed form in place on the
cells at or below the branch point, into a new array of the input's shape.
The cells above it are few (about 0.1 % of a preprocessed sample), so the
asymptotic branch gathers and scatters only those cells, and only when
there are some.  A 0-d input gives a float.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError

LOG2 = math.log(2.0)

# Branch point for the asymptotic softplus approximations; beyond it the
# correction term exp(-|y|) is below one ulp of y.
_BRANCH = 30.0


def softplus(y):
    """Softplus transform ``t(y) = log(exp(y) + 1)``, stable for all magnitudes.

    Accepts scalars or arrays; raises :class:`DomainError` on non-finite input.
    """
    arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("softplus requires finite input")
    hi = arr > _BRANCH
    out = np.exp(arr, out=np.empty_like(arr), where=~hi)
    np.log1p(out, out=out, where=~hi & (arr >= -_BRANCH))  # below -_BRANCH, exp(y) is t(y)
    if hi.any():
        out[hi] = arr[hi] + np.exp(-arr[hi])
    return float(out) if out.ndim == 0 else out


def softplus_inv(x):
    """Inverse transform ``t^-1(x) = log(exp(x) - 1)`` for x > 0.

    Stable for all positive magnitudes, including preimages of near-zero
    observations: expm1 keeps full precision down to denormal x, where
    log(expm1(x)) = log(x) + x/2 + O(x^2).  Raises :class:`DomainError` for x <= 0.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("softplus_inv requires finite input > 0")
    hi = arr > _BRANCH
    out = np.expm1(arr, out=np.empty_like(arr), where=~hi)
    np.log(out, out=out, where=~hi)
    if hi.any():
        out[hi] = arr[hi] + np.log1p(-np.exp(-arr[hi]))
    return float(out) if out.ndim == 0 else out


def _positive_vector(x, name="x"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be strictly positive and finite")
    return arr


def tadd(x1, x2):
    """Vector addition in the transformed space, componentwise."""
    a1 = _positive_vector(x1, "x1")
    a2 = _positive_vector(x2, "x2")
    if a1.shape != a2.shape:
        raise DimensionError(f"shape mismatch {a1.shape} vs {a2.shape}")
    return softplus(softplus_inv(a1) + softplus_inv(a2))


def tscale(a, x):
    """Scalar multiplication ``a (*) x`` in the transformed space."""
    if not np.isfinite(a):
        raise DomainError("scalar must be finite")
    return softplus(float(a) * softplus_inv(_positive_vector(x)))


def tmatmul(A, x):
    """Matrix application ``A (*) x = t(A t^-1(x))``.

    ``x`` has length q (the column count of A); the result has length p.
    Composes like ordinary matrix multiplication: ``B (*) (A (*) x)`` equals
    ``(BA) (*) x`` up to transform round trips.
    """
    M = np.asarray(A, dtype=float)
    v = _positive_vector(x)
    if M.ndim != 2 or v.ndim != 1 or M.shape[1] != v.shape[0]:
        raise DimensionError(f"cannot apply {M.shape} matrix to length-{v.shape[0] if v.ndim == 1 else v.shape} vector")
    return softplus(M @ softplus_inv(v))


def zero_clip(A):
    """Componentwise max(entry, 0)."""
    return np.maximum(np.asarray(A, dtype=float), 0.0)


def tail_ratio(a):
    """Sum of squared positive parts of a coefficient vector.

    Negative coefficients do not contribute to the upper tail, so the tail
    ratio of a combination with coefficients ``a`` is sum(max(a_j, 0)^2).
    """
    arr = np.asarray(a, dtype=float)
    return float(np.sum(zero_clip(arr) ** 2))
