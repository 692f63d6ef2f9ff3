"""All-pairs test reports and fixed critical values.

The report types are read back by ``tailgraph graph --report`` and drawn by
:mod:`tailgraph.graphx`.  :func:`tailgraph.inference.critical_value` parses
fixed values here and computes the adjusted ones itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, check_names


_ADJUSTED = ("bonferroni", "none")  # critical values computed from the pairs' df


def fixed_critical_value(method) -> float:
    """A number, or "fixed:<c>", as a finite non-negative float used verbatim.

    A negative, non-finite or non-numeric value, or any other method, is a
    :class:`DomainError`.
    """
    if isinstance(method, str) and method.startswith("fixed:"):
        try:
            method = float(method.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"fixed critical value must be numeric, got {method!r}") from None
    if not isinstance(method, (int, float)):
        raise DomainError(f"unknown critical value method {method!r}")
    cv = float(method)
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
        column names, a finite non-negative critical value, every pair i < j
        exactly once with the names of columns i and j, and each record either
        tested (a finite t, ``reject`` equal to ``|t| > c``) or errored (no t,
        ``reject`` None).  A missing key or an unusable value is one too.
        """
        try:
            columns = list(payload["columns"])
            check_names(columns, len(columns))
            cv = fixed_critical_value(float(payload["critical_value"]))
            records, seen = [], set()
            for d in payload["pairs"]:
                rec = PairRecord(i=int(d["i"]), j=int(d["j"]), sigma_u=d["sigma_u"],
                                 tau2=d["tau2"], k=d["k"],
                                 t_stat=None if d["t"] is None else float(d["t"]),
                                 reject=d["reject"], error=d["error"])
                tested = rec.error is None
                if not (0 <= rec.i < rec.j < len(columns) and (rec.i, rec.j) not in seen
                        and d["names"] == [columns[rec.i], columns[rec.j]]
                        and (rec.t_stat is not None) == tested
                        and (np.isfinite(rec.t_stat) and rec.reject == (abs(rec.t_stat) > cv)
                             if tested else rec.reject is None)):
                    raise ValueError(f"inconsistent pair record {d}")
                seen.add((rec.i, rec.j))
                records.append(rec)
            p = len(columns)
            if len(seen) != p * (p - 1) // 2:
                raise ValueError(f"{len(seen)} pair records for {p} columns")
            return cls(records=records, critical_value=cv,
                       adjustment=payload["adjustment"], alpha=payload["alpha"],
                       columns=columns, quantiles=dict(payload["quantiles"]))
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
