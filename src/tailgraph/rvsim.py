"""Construction and sampling of regularly varying vectors ``X = A (*) Z``.

``Z`` holds independent unit-scale noise with tail index 2; applying a
coefficient matrix through the transformed-linear algebra gives a regularly
varying vector whose angular measure is discrete, with one point mass per
column of A at the normalized clipped column, of mass equal to the squared
clipped column norm.  The theoretical TPDM is ``A0 A0'`` with A0 the
clipped matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, DimensionError, DomainError, NumericalError, check_integer,
                     check_unit_interval)
from .tpdm import IPMatrix, solve_delta
from .xlinear import softplus, softplus_inv, zero_clip

_DISTRIBUTIONS = ("shifted-pareto", "frechet")


@dataclass(frozen=True)
class AngularPointMass:
    """One atom of a discrete angular measure on the positive unit sphere."""

    direction: np.ndarray
    mass: float
    column: int


def sample_noise(q: int, n: int, distribution: str = "shifted-pareto", seed=0) -> np.ndarray:
    """Draw an n x q matrix of iid noise with tail index 2, deterministic given the seed.

    ``shifted-pareto`` draws ``1/sqrt(1-U) - delta`` with the centering shift
    :func:`~tailgraph.tpdm.solve_delta`, which keeps moment estimators on
    transformed combinations nearly unbiased.  ``frechet`` draws
    ``(-log U)^(-1/2)``.  Each column uses its own substream spawned from the
    root seed, so streams stay fixed when q or n change.
    """
    if q < 1 or n < 1:
        raise DomainError("q and n must be >= 1")
    if distribution not in _DISTRIBUTIONS:
        raise DomainError(f"distribution must be one of {_DISTRIBUTIONS}")
    shift = solve_delta() if distribution == "shifted-pareto" else 0.0
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    cols = []
    for child in root.spawn(q):
        u = np.random.default_rng(child).random(n)
        if distribution == "shifted-pareto":
            cols.append(1.0 / np.sqrt(1.0 - u) - shift)
        else:
            cols.append((-np.log(np.maximum(u, 2.0 ** -53))) ** -0.5)
    return np.column_stack(cols)


def _check_columns(A: np.ndarray):
    bad = np.flatnonzero(A.max(axis=0) <= 0.0)
    if bad.size:
        warnings.warn(f"columns {bad.tolist()} have no positive entry and carry no tail mass",
                      stacklevel=3)


def construct(A, Z) -> np.ndarray:
    """Row-wise transformed-linear map: each row of Z becomes ``A (*) z``."""
    M = np.asarray(A, dtype=float)
    noise = np.asarray(Z, dtype=float)
    if noise.ndim == 1:
        noise = noise[None, :]
    if M.ndim != 2 or noise.shape[1] != M.shape[1]:
        raise DimensionError(f"matrix {M.shape} does not conform with noise {noise.shape}")
    if not np.isfinite(M).all():
        raise DataError("coefficient matrix must be finite")
    if np.any(noise <= 0.0):
        raise DomainError("noise must be strictly positive")
    _check_columns(M)
    with np.errstate(over="ignore", invalid="ignore"):
        Y = softplus_inv(noise) @ M.T
    if not np.isfinite(Y).all():
        raise NumericalError("transformed-linear product lies past the float64 range")
    return softplus(Y)


def ar1_matrix(phi: float, p: int) -> np.ndarray:
    """Lower-triangular coefficient matrix of the autoregressive model.

    Entry (i, j) is ``phi^(i-j)`` for i >= j, realizing the recursion
    ``X_i = phi (*) X_{i-1} (+) Z_i`` started from zero.
    """
    check_unit_interval(phi=phi)
    check_integer(1, p=p)
    if 8 * int(p) ** 2 > np.iinfo(np.intp).max:  # a numpy integer would wrap
        raise DomainError(f"a {p} x {p} matrix exceeds the largest array size")
    lag = np.arange(p)[:, None] - np.arange(p)[None, :]
    return np.where(lag >= 0, float(phi) ** np.maximum(lag, 0), 0.0)


def theoretical_ipm(A) -> IPMatrix:
    """Inner product matrix ``A A'`` of the constructed vector."""
    M = np.asarray(A, dtype=float)
    G = M @ M.T
    return IPMatrix((G + G.T) / 2.0)


def theoretical_tpdm(A) -> IPMatrix:
    """TPDM ``A0 A0'`` with A0 the clipped matrix; equals the IPM when A >= 0."""
    return theoretical_ipm(zero_clip(A))


def angular_points(A) -> list[AngularPointMass]:
    """Discrete angular measure: one point per column with positive clipped norm.

    Masses sum to the trace of the theoretical TPDM.  Columns whose clipped
    norm is zero carry no mass and are skipped with a warning.
    """
    M = zero_clip(A)
    points = []
    skipped = []
    for j in range(M.shape[1]):
        col = M[:, j]
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            skipped.append(j)
            continue
        points.append(AngularPointMass(direction=col / norm, mass=norm ** 2, column=j))
    if skipped:
        warnings.warn(f"columns {skipped} have zero clipped norm and contribute no angular mass",
                      stacklevel=2)
    return points
