"""Projection, best transformed-linear prediction and partial tail correlation.

All computations live at the coefficient level: random variables built as
transformed-linear combinations are identified by their coefficient vectors,
with inner product matrix ``Gamma = A A'``.  Projecting a pair onto the span
of the remaining variables leaves prediction errors whose 2 x 2 inner product
matrix is the Schur complement ``Gamma_11 - Gamma_12 Gamma_22^-1 Gamma_21``;
the partial tail correlation is its normalized off-diagonal entry, equal to
``-G_ij / sqrt(G_ii G_jj)`` for the full inverse G of Gamma.

Each of these runs on Gamma at unit scale (``tpdm._unit_scale``), where it
needs no overflow guard, and scales its result back by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    DegenerateProjectionError,
    DimensionError,
    DomainError,
    NumericalError,
    as_index,
    check_array_size,
    check_integer,
    check_sequence,
    check_type,
    float_array,
)
from .tpdm import IPMatrix, _unit_scale, as_matrix
from .xlinear import _coefficients, _gram, tmatmul

COND_LIMIT = 1e12


@dataclass(frozen=True)
class Partition:
    """Split of {0..p-1} into target indices and the ordered complement.

    The one partition rule: both fields are sequences
    (:func:`~tailgraph.errors.check_sequence`, else a :class:`DataError`)
    whose entries, each read by :func:`~tailgraph.errors.as_index` against
    p = len(target) + len(complement), list each of 0..p-1 once; anything
    else is a :class:`DomainError`.  Both are stored as tuples of ints.
    """

    target: tuple[int, ...]
    complement: tuple[int, ...]

    def __post_init__(self):
        target = check_sequence(self.target, "partition target")
        entries = target + check_sequence(self.complement, "partition complement")
        index = [as_index(v, len(entries)) for v in entries]
        if None in index or len(set(index)) < len(index):
            raise DomainError("target and complement must be disjoint and duplicate-free integers "
                              f"in [0, {len(entries)}), got {self.target!r} and {self.complement!r}")
        object.__setattr__(self, "target", tuple(index[:len(target)]))  # frozen: set once here
        object.__setattr__(self, "complement", tuple(index[len(target):]))

    @classmethod
    def pair(cls, i: int, j: int, p: int) -> "Partition":
        p, = check_integer(0, p=p)
        check_array_size(p, p)  # the p x p inner product matrix the partition splits
        i, j = as_index(i, p), as_index(j, p)  # integers in [0, p), else None
        if i is None or j is None or i == j:
            raise DomainError("need two distinct indices inside the vector")
        return cls(target=(i, j), complement=tuple(k for k in range(p) if k not in (i, j)))

    @classmethod
    def single(cls, i: int, p: int) -> "Partition":
        p, = check_integer(0, p=p)
        check_array_size(p, p)
        i = as_index(i, p)
        if i is None:
            raise DomainError("index out of range")
        return cls(target=(i,), complement=tuple(k for k in range(p) if k != i))


def _spd_factor(G: np.ndarray, context: str):
    """Lower Cholesky factor of a symmetric G, with an explicit conditioning gate."""
    if G.shape[0] == 0:
        raise DimensionError(f"empty {context}")
    eig = np.linalg.eigvalsh(G)
    lo, hi = float(eig[0]), float(eig[-1])
    cond = hi / lo if lo > 0.0 else np.inf  # Python floats: a ratio past 1.8e308 is inf, unwarned
    if cond > COND_LIMIT:
        raise ConditioningError(
            f"{context}: condition number estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return np.linalg.cholesky(G)


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``X`` with ``L L' X = rhs`` for a factor from :func:`_spd_factor`.

    Forward substitution with ``L``, then back substitution with ``L'``, as
    LAPACK's potrs does (numpy has no triangular solve).  Both are backward
    stable, so the residual stays near eps |G| |X| however ill-conditioned G
    is; an explicit ``L^-1`` would leave one near eps cond(G) |rhs|.
    """
    x = np.array(rhs, dtype=float)
    for i in range(L.shape[0]):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    for i in reversed(range(L.shape[0])):
        x[i] = (x[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def _schur(gamma, part: Partition):
    """``(b, C)`` from one factorization of the complement block: the weights
    ``b = Gamma_22^-1 Gamma_21`` (complement x targets) and the symmetrized
    ``C = Gamma_11 - Gamma_12 b``, both formed on Gamma at unit scale
    (:func:`tpdm._unit_scale`): b is scale-free and C is scaled back.  A
    singular block, a condition number above 1e12 or a solve residual above
    1e-10 |rhs| is a :class:`ConditioningError`; weights or a C past the
    float64 range (an indefinite Gamma only) a :class:`NumericalError`.
    """
    G, e = _unit_scale(as_matrix(gamma))
    if len(part.target) + len(part.complement) != G.shape[0]:  # it splits {0..size-1}
        raise DomainError("partition must cover all indices exactly once")
    t, c = list(part.target), list(part.complement)
    G11, G12, G22 = G[np.ix_(t, t)], G[np.ix_(t, c)], G[np.ix_(c, c)]
    b = np.zeros((0, len(t)))  # an empty complement: C is Gamma_11
    with np.errstate(over="ignore", invalid="ignore"):  # the range is checked below
        if c:
            rhs = G12.T  # Gamma_21, complement x targets
            b = _cho_solve(_spd_factor(G22, "complement block"), rhs)
            resid = np.abs(G22 @ b - rhs).max()
            # the floor: a target column below 1e-300 max|G| solves with subnormal rounding,
            # about 5e-324 however well-conditioned the block, which 1e-10 |rhs| misses
            bound = 1e-10 * max(np.abs(rhs).max(), 1e-300)
            if resid > bound:  # a NaN residual passes: its weights fail the range check
                raise ConditioningError(
                    f"solve residual too large: {resid:.3e} exceeds 1e-10 |rhs| = {bound:.3e}")
        C = G11 - G12 @ b
    if not np.isfinite(C).all():  # so is C wherever a weight is not: G11 and G12 are finite
        raise NumericalError("prediction weights lie past the float64 range")
    return b, np.ldexp((C + C.T) / 2.0, e)


def solve_b(gamma, part: Partition) -> np.ndarray:
    """Optimal prediction weights ``b = Gamma_22^-1 Gamma_21``.

    Solved through the Cholesky factor of the complement block, never an
    explicit inverse of the block.  Shape is (complement, targets); a single
    target yields a 1-D vector.  Raises :class:`ConditioningError` when the
    complement block is singular or has condition number above 1e12.
    """
    check_type(part, Partition, "solve_b")
    b, _ = _schur(gamma, part)
    return b[:, 0] if len(part.target) == 1 else b


def predict(b, x2) -> np.ndarray:
    """Realized best predictor ``b' (*) x2`` for observed complement values."""
    w = _coefficients(b)
    if w.ndim == 1:
        w = w[:, None]
    return tmatmul(w.T, x2)


def conditional_ipm(gamma, part: Partition) -> np.ndarray:
    """Symmetrized Schur complement ``Gamma_11 - Gamma_12 Gamma_22^-1 Gamma_21``.

    May carry negative off-diagonal entries; no nonnegativity is assumed or
    enforced; raises :class:`ConditioningError` where :func:`solve_b` does.
    """
    check_type(part, Partition, "conditional_ipm")
    return _schur(gamma, part)[1]


def ptc(gamma, i: int, j: int) -> float:
    """Partial tail correlation of variables i and j given all others.

    Cosine of the angle between the two prediction errors after projecting
    onto the span of the remaining variables.  Scale-free, so taken on Gamma
    at unit scale (:func:`tpdm._unit_scale`): no C lands in the subnormal range.
    """
    G, _ = _unit_scale(as_matrix(gamma))
    C = conditional_ipm(G, Partition.pair(i, j, G.shape[0]))
    _check_projection(C.diagonal().min(), np.abs(G).max())
    return float(-ptc_matrix_from_inverse(C)[0, 1])  # C_01 / sqrt(C_00 C_11), scaled


def _check_projection(low: float, gamma_max: float) -> None:
    """Gate a conditional IPM C against targets in the span of the conditioning
    variables: a least diagonal entry ``low`` <= 0 or below ``1e-14 gamma_max``
    (Gamma's largest absolute entry) is a :class:`DegenerateProjectionError`.
    The runner's precision path needs no gate: its ``C = (Theta_TT)^-1``, off an
    inverse that passed :func:`invert_ipm`, has ``C_ii >= lambda_min(Gamma) >= 1e-12 gamma_max``.
    """
    if low <= 0.0 or low < 1e-14 * gamma_max:
        raise DegenerateProjectionError(
            "a target lies in the span of the conditioning variables")


def ptc_from_inverse(gamma_inv, i: int, j: int) -> float:
    """Partial tail correlation read off the full inverse inner product matrix."""
    G = as_matrix(gamma_inv)
    t = Partition.pair(i, j, G.shape[0]).target
    return float(ptc_matrix_from_inverse(G[np.ix_(t, t)])[0, 1])


def invert_ipm(gamma) -> IPMatrix:
    """Symmetric inverse via factorization, verified to ``|G G^-1 - I| < 1e-8``.

    Factored, solved, symmetrized and verified on Gamma at unit scale
    (:func:`tpdm._unit_scale`), then scaled back; an inverse past the float64
    range is a :class:`NumericalError`.
    """
    G, e = _unit_scale(as_matrix(gamma))
    inv = _cho_solve(_spd_factor(G, "inner product matrix"), np.eye(len(G)))
    inv = (inv + inv.T) / 2.0
    error = np.abs(G @ inv - np.eye(len(G))).max()
    if error >= 1e-8:
        raise ConditioningError(
            f"inverse verification failed: |G G^-1 - I| reaches {error:.3e}, limit 1e-08")
    if np.frexp(np.abs(inv).max())[1] - e > 1024:  # max |inv 2^-e| >= 2^1024
        raise NumericalError("inverse of the inner product matrix lies past the float64 range")
    return IPMatrix(np.ldexp(inv, -e))


def ptc_matrix_from_inverse(gamma_inv) -> np.ndarray:
    """All-pairs ``-G_ij / sqrt(G_ii G_jj)`` for an inverse G; diagonal entries are NaN.

    A diagonal entry that is not positive is a :class:`DegenerateProjectionError`.
    """
    G, _ = _unit_scale(as_matrix(gamma_inv))  # exact; each d_i d_j stays in the float64 range
    d = np.diag(G)
    if not (d > 0.0).all():
        raise DegenerateProjectionError("inverse has a nonpositive diagonal entry")
    out = -G / np.sqrt(np.outer(d, d))
    np.fill_diagonal(out, np.nan)
    return out


def ptc_matrix(gamma) -> np.ndarray:
    """All-pairs partial tail correlations; diagonal entries are NaN.

    Scale-free, so taken on Gamma at unit scale (:func:`tpdm._unit_scale`):
    no inverse lands in the subnormal range or past the float64 range.
    """
    return ptc_matrix_from_inverse(invert_ipm(_unit_scale(as_matrix(gamma))[0]))


def project_onto_span(x_coefs, A2):
    """Project a coefficient vector onto the row span of A2.

    Returns ``(projection, residual)`` with ``x = projection + residual``
    exactly and the residual orthogonal to every row of A2.  A2 must have
    full row rank.  The weights are :func:`solve_b` of x on the rows of A2,
    in the inner product matrix of x stacked on A2: the projection theorem.
    """
    x, M = float_array(x_coefs, "coefficient vector"), float_array(A2, "generator matrix")
    if M.ndim != 2 or x.ndim != 1 or M.shape[1] != x.shape[0] or not M.shape[0]:
        raise DimensionError("generator matrix must be non-empty; "
                             "its columns must match the coefficient length")
    projection = solve_b(_gram(np.vstack([x, M])), Partition.single(0, M.shape[0] + 1)) @ M
    return projection, x - projection
