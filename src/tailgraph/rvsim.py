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

from .errors import DomainError, check_array_size, check_integer, check_unit_interval
from .tpdm import IPMatrix, solve_delta
# perfbench/tracing.py wraps softplus and softplus_inv here: keep them importable
from .xlinear import _coefficients, _gram, softplus, softplus_inv, tail_ratio, tmatmul, zero_clip  # noqa: F401

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
    root seed, so streams stay fixed when q or n change.  ``seed`` is an
    integer >= 0 or a :class:`numpy.random.SeedSequence`.
    """
    q, n = check_integer(1, q=q, n=n)
    check_array_size(n, q)
    if not (isinstance(distribution, str) and distribution in _DISTRIBUTIONS):
        raise DomainError(f"distribution must be one of {_DISTRIBUTIONS}")
    shift = solve_delta() if distribution == "shifted-pareto" else 0.0
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(check_integer(0, seed=seed)[0])
    cols = []
    for child in seed.spawn(q):
        u = np.random.default_rng(child).random(n)
        if distribution == "shifted-pareto":
            cols.append(1.0 / np.sqrt(1.0 - u) - shift)
        else:
            cols.append((-np.log(np.maximum(u, 2.0 ** -53))) ** -0.5)
    return np.column_stack(cols)


def construct(A, Z) -> np.ndarray:
    """Row-wise transformed-linear map: each row of Z becomes ``A (*) z``."""
    X = tmatmul(A, np.atleast_2d(Z))  # which holds A to the coefficient rule
    bad = np.flatnonzero(~(np.asarray(A, dtype=float) > 0.0).any(axis=0))
    if bad.size:
        warnings.warn(f"columns {bad.tolist()} have no positive entry and carry no tail mass",
                      stacklevel=2)
    return X


def ar1_matrix(phi: float, p: int) -> np.ndarray:
    """Lower-triangular coefficient matrix of the autoregressive model.

    Entry (i, j) is ``phi^(i-j)`` for i >= j, realizing the recursion
    ``X_i = phi (*) X_{i-1} (+) Z_i`` started from zero.
    """
    phi, = check_unit_interval(phi=phi)
    p, = check_integer(1, p=p)
    check_array_size(p, p)
    lag = np.arange(p)[:, None] - np.arange(p)[None, :]
    return np.where(lag >= 0, phi ** np.maximum(lag, 0), 0.0)


def theoretical_ipm(A) -> IPMatrix:
    """Inner product matrix ``A A'`` of the constructed vector."""
    return IPMatrix(_gram(A))


def theoretical_tpdm(A) -> IPMatrix:
    """TPDM ``A0 A0'`` with A0 the clipped matrix; equals the IPM when A >= 0."""
    return theoretical_ipm(zero_clip(A))


def angular_points(A) -> list[AngularPointMass]:
    """Discrete angular measure: one point per column with positive clipped norm.

    Masses sum to the trace of the theoretical TPDM.  Columns whose clipped
    norm is zero carry no mass and are skipped with a warning.
    """
    points = []
    skipped = []
    for j, col in enumerate(zero_clip(_coefficients(A, 2)).T):
        mass = tail_ratio(col)
        if mass == 0.0:
            skipped.append(j)
            continue
        points.append(AngularPointMass(direction=col / np.sqrt(mass), mass=mass, column=j))
    if skipped:
        warnings.warn(f"columns {skipped} have zero clipped norm and contribute no angular mass",
                      stacklevel=2)
    return points
