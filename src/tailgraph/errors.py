"""Exception hierarchy and the argument rules shared across the package."""

from collections.abc import Mapping, Set

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


def _real(value) -> float | None:
    """``value`` as a Python float if it is one real number inside the float64
    range (a Python or numpy int or float, or a 0-d array of one), else None.
    The one place a scalar argument is read: an array of several values is
    refused before ``float``, which numpy deprecates there."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (int, float, np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError:  # an int past the float64 range
            pass
    return None


def float_scalar(value, what: str, expected: str = "a real number") -> float:
    """``value`` as a Python float, the scalar counterpart of :func:`float_array`:
    NaN and the infinities are read, for the caller's range test.  Anything
    but one real number (:func:`_real`) is a :class:`DomainError` naming
    ``what`` and what was ``expected`` of it."""
    x = _real(value)
    if x is None:
        raise DomainError(f"{what} must be {expected}, got {_shown(value)}")
    return x


def as_real(value) -> float | None:
    """None as None, one real number (:func:`_real`) as its float, and anything
    else as NaN, which no range test accepts: how a record field is read."""
    if value is None:
        return None
    x = _real(value)
    return np.nan if x is None else x


def check_positive(value, what: str, error=DomainError) -> float:
    """``value`` as a Python float, positive and finite.  What is not a real
    number is :func:`float_scalar`'s :class:`DomainError`; a number outside
    (0, inf) is an ``error`` naming ``what``."""
    x = float_scalar(value, what)
    if not 0.0 < x < np.inf:
        raise error(f"{what} must be positive and finite, got {x!r}")
    return x


def _shown(value) -> str:
    """How a refusal names a value that is not one real number."""
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, int):  # any other int is a real number
        return "an int past the float64 range"
    return f"a {type(value).__name__}"


def check_unit_interval(**values) -> list:
    """The values as floats, in order.  Raise :class:`DomainError` naming the
    first value that is not a real number in (0, 1)."""
    out = [_real(v) for v in values.values()]
    for name, x in zip(values, out):
        if x is None or not 0.0 < x < 1.0:
            raise DomainError(f"{name} must lie in (0, 1)")
    return out


def check_integer(minimum: int, **values) -> list:
    """The values as ints, in order.  Raise :class:`DomainError` naming the first
    value that is not an integer at least ``minimum``."""
    for name, v in values.items():
        x = _real(v)
        if x is None or not (x.is_integer() and x >= minimum):
            raise DomainError(f"need an integer {name} >= {minimum}, "
                              f"got {_shown(v) if x is None else repr(v)}")
    return [int(v) for v in values.values()]


def check_array_size(rows: int, cols: int) -> None:
    """Raise :class:`DomainError` if a float64 array of rows x cols (Python ints,
    as :func:`check_integer` returns them, so the product cannot wrap) would
    exceed the largest array size, ``np.iinfo(np.intp).max`` bytes."""
    if 8 * rows * cols > np.iinfo(np.intp).max:
        raise DomainError(f"a {rows} x {cols} float64 array exceeds the largest array size")


def check_type(value, cls, caller: str) -> None:
    """Raise :class:`DataError` "<caller> needs a <cls>, got a <type>" unless
    ``value`` is a ``cls``: the one refusal of a record argument."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DataError(f"{caller} needs {article} {cls.__name__}, got a {type(value).__name__}")


def as_index(value, p: int) -> int | None:
    """``value`` as an int in [0, p), or None if it is not one."""
    x = _real(value)
    return int(x) if x is not None and x.is_integer() and 0 <= x < p else None


def check_sequence(value, what: str) -> list:
    """The entries of ``value`` as a list, if it has a length and is not a str
    or bytes (entries are characters), a mapping or a set (entries in key or
    hash order) or a 0-d array.  Anything else is a :class:`DataError`
    "<what> <value!r> is not a sequence".  The one reader of a list a caller
    hands in: names, records, graph entries and partition fields."""
    if (not hasattr(value, "__len__") or isinstance(value, (str, bytes, Mapping, Set))
            or isinstance(value, np.ndarray) and value.ndim == 0):
        raise DataError(f"{what} {value!r} is not a sequence")
    return list(value)


def check_names(names, count: int) -> list:
    """``names`` as a list of ``count`` labels, distinct and non-empty once stripped.

    A wrong count is a :class:`DimensionError`; a blank or repeated label, or
    names that are not a sequence (:func:`check_sequence`), a :class:`DataError`.
    """
    names = check_sequence(names, "column names")
    if len(names) != count:
        raise DimensionError(f"{len(names)} column names for {count} columns")
    seen = set()
    for name in names:
        key = str(name).strip()
        if not key or key in seen:
            raise DataError(f"column name {name!r} is {'repeated' if key else 'blank'}")
        seen.add(key)
    return names
