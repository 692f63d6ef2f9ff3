"""Transformed-linear vector algebra on the positive orthant.

The transform ``t(y) = log(exp(y) + 1)`` (softplus) maps the reals onto
(0, inf).  Conjugating ordinary linear algebra through ``t`` yields vector
addition ``x1 (+) x2 = t(t^-1(x1) + t^-1(x2))``, scalar multiplication
``a (*) x = t(a t^-1(x))`` and matrix application ``A (*) x = t(A t^-1(x))``.
The additive identity of the space is ``t(0) = log 2``.

All three are one map ``t(f(t^-1(x), ...))``, f linear, computed in one place
under three rules.  Positivity: each x is finite and > 0, the domain of
:func:`softplus_inv` (:class:`DomainError`).  Finite coefficients, checked by
:func:`tmatmul` and :func:`zero_clip` (:class:`DataError`).  Range: an overflow
is a :class:`NumericalError`, not a warning; an underflow to 0 gives 5e-324.
The coefficient inner products ``A A'`` (:func:`_gram`) keep the last two rules.

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

from .errors import DimensionError, DomainError, NumericalError, float_array

LOG2 = math.log(2.0)

# Branch point for the asymptotic softplus approximations; beyond it the
# correction term exp(-|y|) is below one ulp of y.
_BRANCH = 30.0


def softplus(y):
    """Softplus transform ``t(y) = log(exp(y) + 1)``, stable for all magnitudes.

    Accepts scalars or arrays; raises :class:`DomainError` on non-finite input.
    """
    arr = float_array(y, "softplus input", finite=False)  # checked below, as a DomainError
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
    arr = float_array(x, "softplus_inv input", finite=False)  # checked below, with > 0
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("softplus_inv requires finite input > 0")
    hi = arr > _BRANCH
    out = np.expm1(arr, out=np.empty_like(arr), where=~hi)
    np.log(out, out=out, where=~hi)
    if hi.any():
        out[hi] = arr[hi] + np.log1p(-np.exp(-arr[hi]))
    return float(out) if out.ndim == 0 else out


def _transformed_linear(f, *xs):
    """``t(f(t^-1(x), ...))``: the one transformed-linear map and its range rule."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = f(*map(softplus_inv, xs))
    if not np.isfinite(y).all():
        raise NumericalError("transformed-linear result lies past the float64 range")
    out = softplus(y)  # exp(y) is 0 below y = -745: the least double > 0 stays in the orthant
    return np.maximum(out, 5e-324, out=out) if np.ndim(out) else max(out, 5e-324)


def _coefficients(A, ndim=None) -> np.ndarray:
    """``A`` as a float array under the finite-coefficient rule, with ``ndim`` axes if given."""
    M = float_array(A, "coefficient matrix")
    if ndim is not None and M.ndim != ndim:
        raise DimensionError(f"coefficient matrix must have {ndim} axes, got shape {M.shape}")
    return M


def _gram(A) -> np.ndarray:
    """``A A'`` of a finite coefficient matrix; past the float64 range, a NumericalError."""
    M = _coefficients(A, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        G = M @ M.T
    if not np.isfinite(G).all():
        raise NumericalError("coefficient inner products lie past the float64 range")
    return G


def tadd(x1, x2):
    """Vector addition in the transformed space, componentwise."""
    a1, a2 = (float_array(x, "transformed-linear operand", finite=False) for x in (x1, x2))
    if a1.shape != a2.shape:
        raise DimensionError(f"shape mismatch {a1.shape} vs {a2.shape}")
    return _transformed_linear(np.add, a1, a2)


def tscale(a, x):
    """Scalar multiplication ``a (*) x`` in the transformed space."""
    if not np.isfinite(a):
        raise DomainError("scalar must be finite")
    return _transformed_linear(lambda y: float(a) * y, x)


def tmatmul(A, x):
    """Matrix application ``A (*) x = t(A t^-1(x))``.

    ``x`` is one vector of length q (the column count of A), giving a length-p
    result, or rows (n, q), each mapped alike into an (n, p) result.
    Composes like ordinary matrix multiplication: ``B (*) (A (*) x)`` equals
    ``(BA) (*) x`` up to transform round trips.
    """
    M, v = _coefficients(A), float_array(x, "transformed-linear operand", finite=False)
    if M.ndim != 2 or v.ndim not in (1, 2) or v.shape[-1] != M.shape[1]:
        raise DimensionError(f"matrix {M.shape} does not conform with input {v.shape}")
    return _transformed_linear(lambda y: y @ M.T, v)


def zero_clip(A):
    """Componentwise max(entry, 0) of a finite coefficient array."""
    return np.maximum(_coefficients(A), 0.0)


def tail_ratio(a):
    """Sum of squared positive parts of a coefficient vector.

    Negative coefficients do not contribute to the upper tail, so the tail
    ratio of a combination with coefficients ``a`` is sum(max(a_j, 0)^2).
    """
    return float(_gram(zero_clip(a).reshape(1, -1))[0, 0])
