"""All-pairs test reports and fixed critical values.

The report types are read back by ``tailgraph graph --report`` and drawn by
:mod:`tailgraph.graphx`.  :func:`tailgraph.inference.critical_value` parses
fixed values here and computes the adjusted ones itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DomainError, as_index, as_real, check_names, check_sequence,
                     check_type, check_unit_interval, float_scalar)


_ADJUSTED = ("bonferroni", "none")  # critical values computed from the pairs' df


def fixed_critical_value(method) -> float:
    """A number, or "fixed:<c>", as a finite non-negative float used verbatim.

    A negative or non-finite value, anything but a real number
    (:func:`~tailgraph.errors.float_scalar`), or any other method, is a
    :class:`DomainError`.
    """
    if isinstance(method, str):
        if not method.startswith("fixed:"):
            raise DomainError(f"unknown critical value method {method!r}")
        try:
            method = float(method.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"fixed critical value must be numeric, got {method!r}") from None
    cv = float_scalar(method, "critical value")
    if not 0.0 <= cv < np.inf:
        raise DomainError(f"critical value must be finite and non-negative, got {cv!r}")
    return cv


@dataclass
class PairRecord:
    """Per-pair test outcome; ``error`` is set when the pipeline failed."""

    i: int
    j: int
    sigma_u: float | None = None
    tau2: float | None = None
    k: int | None = None
    t_stat: float | None = None
    reject: bool | None = None
    error: str | None = None


def check_pair(i, j, p: int, what: str) -> tuple[int, int]:
    """``(i, j)`` as ints with 0 <= i < j < p (:func:`~tailgraph.errors.as_index`),
    else a :class:`DataError` naming ``what``: the one pair rule of report
    records and of a graph's edges and skipped pairs."""
    a, b = as_index(i, p), as_index(j, p)
    if a is None or b is None or a >= b:
        raise DataError(f"{what} ({i!r}, {j!r}) is not a pair i < j of {p} columns")
    return a, b


def _read_record(r, p: int, caller: str) -> PairRecord:
    """One record held to :func:`check_records`' rule and returned as read."""
    check_type(r, PairRecord, caller)
    i, j = check_pair(r.i, r.j, p, f"{caller}: record")
    sigma_u, tau2, k, t = map(as_real, (r.sigma_u, r.tau2, r.k, r.t_stat))
    if not ((sigma_u is None or abs(sigma_u) < np.inf) and (tau2 is None or abs(tau2) < np.inf)
            and (k is None or k >= 2 and k.is_integer())
            and (t is not None and abs(t) < np.inf if r.error is None
                 else t is None and isinstance(r.error, str) and r.error != "")):
        raise DataError(f"{caller}: record ({i}, {j}) breaks the record rule: {r}")
    return PairRecord(i, j, sigma_u, tau2, None if k is None else int(k), t, r.reject, r.error)


def check_records(records, p: int, caller: str) -> list[PairRecord]:
    """The one reader of pair records, kept by :meth:`PtcTestReport.from_dict`
    and by :func:`~tailgraph.graphx.build_graph`: the records are a sequence
    (:func:`~tailgraph.errors.check_sequence`); each record is a
    :class:`PairRecord`; each of the p(p-1)/2 pairs of p columns appears once
    (:func:`check_pair`); k is an integer >= 2 or None; σ̂_u and τ̂² are finite
    or None; and each record is tested (no error, a finite t) or errored (a
    non-empty error message, no t).  Returns the records as read, in order: i,
    j and k as ints, σ̂_u, τ̂² and t as floats.  A record that breaks the rule is
    a :class:`DataError` naming ``caller``."""
    out = [_read_record(r, p, caller) for r in check_sequence(records, f"{caller}: records")]
    pairs = {(r.i, r.j) for r in out}
    if len(out) != p * (p - 1) // 2 or len(pairs) != len(out):
        raise DataError(f"{caller}: {len(pairs)} distinct pairs in {len(out)} records "
                        f"for {p} columns")
    return out


@dataclass
class PtcTestReport:
    """All-pairs test report with one global critical value."""

    records: list[PairRecord]
    critical_value: float
    adjustment: str
    alpha: float
    columns: list[str]
    quantiles: dict = field(default_factory=dict)
    ptc: np.ndarray | None = None

    def n_rejected(self) -> int:
        return sum(1 for r in self.records if r.reject)

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "alpha": self.alpha,
            "critical_value": self.critical_value,
            "adjustment": self.adjustment,
            "quantiles": dict(self.quantiles),
            "ptc": None if self.ptc is None else [
                [None if np.isnan(v) else float(v) for v in row] for row in self.ptc],
            "pairs": [
                {
                    "i": r.i, "j": r.j, "names": [self.columns[r.i], self.columns[r.j]],
                    "sigma_u": r.sigma_u, "tau2": r.tau2, "k": r.k,
                    "t": r.t_stat, "reject": r.reject, "error": r.error,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, payload) -> PtcTestReport:
        """Rebuild a report from :meth:`to_dict` output (``ptc`` is not read back).

        The writer's rules hold or the report is a :class:`DataError`: distinct
        column names, a finite non-negative critical value, ``alpha`` in (0, 1),
        a non-empty ``adjustment``, ``quantiles`` a mapping of names to null or
        a number in (0, 1), records that keep :func:`check_records`' rule, each
        with the names of columns i and j (both read by
        :func:`~tailgraph.errors.check_names`), and ``reject`` equal to ``|t| > c``
        on a tested pair and None on an errored one.  A missing key or an
        unusable value is one too.
        """
        try:
            columns = check_names(payload["columns"], len(payload["columns"]))
            cv = fixed_critical_value(float_scalar(payload["critical_value"], "critical value"))
            alpha = check_unit_interval(alpha=payload["alpha"])[0]
            adjustment, quantiles = payload["adjustment"], payload["quantiles"]
            if not (isinstance(adjustment, str) and adjustment and isinstance(quantiles, dict)):
                raise ValueError(f"adjustment {adjustment!r} or quantiles {quantiles!r} unusable")
            quantiles = {n: None if q is None else check_unit_interval(**{f"q_{n}": q})[0]
                         for n, q in quantiles.items()}
            pairs = check_sequence(payload["pairs"], "pairs")
            records = check_records([PairRecord(d["i"], d["j"], d["sigma_u"], d["tau2"], d["k"],
                                                d["t"], d["reject"], d["error"])
                                     for d in pairs], len(columns), "from_dict")
            for d, rec in zip(pairs, records):
                if (check_names(d["names"], 2) != [columns[rec.i], columns[rec.j]]
                        or rec.reject != (None if rec.t_stat is None else abs(rec.t_stat) > cv)):
                    raise ValueError(f"inconsistent pair record {d}")
            return cls(records=records, critical_value=cv, adjustment=adjustment, alpha=alpha,
                       columns=columns, quantiles=quantiles)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed report: {type(exc).__name__}: {exc}") from None

    csv_header = ("i", "j", "name_i", "name_j", "sigma_u", "tau2", "k", "t", "reject", "error")

    def to_csv_rows(self):
        for r in self.records:
            yield (r.i, r.j, self.columns[r.i], self.columns[r.j],
                   "" if r.sigma_u is None else repr(r.sigma_u),
                   "" if r.tau2 is None else repr(r.tau2),
                   "" if r.k is None else r.k,
                   "" if r.t_stat is None else repr(r.t_stat),
                   "" if r.reject is None else int(r.reject),
                   r.error or "")
