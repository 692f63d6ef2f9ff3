"""Exception hierarchy and the argument rules shared across the package."""

import contextlib

import numpy as np


class TailgraphError(Exception):
    """Base class for all package errors."""


class DomainError(TailgraphError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DimensionError(TailgraphError, ValueError):
    """Shapes of the operands do not conform."""


class DataError(TailgraphError, ValueError):
    """Malformed or unusable input data."""


class DegenerateMarginError(DataError):
    """A data column carries no rank information (e.g. constant)."""


class InsufficientExceedancesError(TailgraphError):
    """Too few threshold exceedances to estimate reliably."""

    def __init__(self, k, minimum=10, context=""):
        self.k = int(k)
        self.minimum = int(minimum)
        msg = f"only {k} exceedances (need >= {minimum})"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class NumericalError(TailgraphError):
    """A numerical routine failed to reach its accuracy target."""


class ConditioningError(NumericalError):
    """Matrix is singular or too ill-conditioned for a reliable solve."""


class DegenerateProjectionError(NumericalError):
    """A projection target lies in the span of the conditioning set."""


class DegenerateVarianceError(NumericalError):
    """Estimated variance is zero or negative; no valid test statistic."""


def float_array(value, what: str, finite: bool = True) -> np.ndarray:
    """``value`` as a float array, with ``finite`` finite.  One that numpy cannot
    read as numbers (a string, a dict, a ragged list), or a NaN or infinity
    where it must be finite, is a :class:`DataError` naming ``what``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{what} must be numeric, got a {type(value).__name__}") from None
    if finite and not np.isfinite(arr).all():
        raise DataError(f"{what} must be finite")
    return arr


def check_unit_interval(**values):
    """Raise :class:`DomainError` naming the first value not in (0, 1); None is unset."""
    for name, v in values.items():
        with contextlib.suppress(TypeError, ValueError):  # a string, an array of several values
            if v is None or 0.0 < v < 1.0:
                continue
        raise DomainError(f"{name} must lie in (0, 1)")


def check_integer(minimum: int, **values) -> list:
    """The values as ints, in order.  Raise :class:`DomainError` naming the first
    value that is not an integer at least ``minimum``; None is not one."""
    for name, v in values.items():
        with contextlib.suppress(TypeError, ValueError):  # a string or another non-number
            if v is not None and float(v).is_integer() and v >= minimum:
                continue
        raise DomainError(f"need an integer {name} >= {minimum}, got {v!r}")
    return [int(v) for v in values.values()]


def check_names(names, count: int) -> list:
    """``names`` as a list of ``count`` labels, distinct and non-empty once stripped.

    A wrong count is a :class:`DimensionError`; a blank or repeated label a
    :class:`DataError`.
    """
    names = list(names)
    if len(names) != count:
        raise DimensionError(f"{len(names)} column names for {count} columns")
    seen = set()
    for name in names:
        key = str(name).strip()
        if not key or key in seen:
            raise DataError(f"column name {name!r} is {'repeated' if key else 'blank'}")
        seen.add(key)
    return names
