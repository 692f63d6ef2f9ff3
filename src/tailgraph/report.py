"""All-pairs test reports and fixed critical values.

The report types are read back by ``tailgraph graph --report`` and drawn by
:mod:`tailgraph.graphx`; neither needs the t distribution, so this module
imports numpy alone.  :func:`tailgraph.inference.critical_value` parses
fixed values here and computes the adjusted ones itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError


def fixed_critical_value(method) -> float:
    """A number, or "fixed:<c>", as a finite float used verbatim.

    A non-finite or non-numeric value, or any other method, is a
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
    if not np.isfinite(cv):
        raise DomainError(f"critical value must be finite, got {cv!r}")
    return cv


@dataclass
class PairRecord:
    """Per-pair test outcome; ``error`` is set when the pipeline failed."""

    i: int
    j: int
    names: tuple[str, str]
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

    def record(self, i: int, j: int) -> PairRecord:
        a, b = min(i, j), max(i, j)
        for rec in self.records:
            if (rec.i, rec.j) == (a, b):
                return rec
        raise KeyError((i, j))

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
                    "i": r.i, "j": r.j, "names": list(r.names),
                    "sigma_u": r.sigma_u, "tau2": r.tau2, "k": r.k,
                    "t": r.t_stat, "reject": r.reject, "error": r.error,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, payload) -> PtcTestReport:
        """Rebuild a report from :meth:`to_dict` output (``ptc`` is not read back).

        Raises :class:`DataError` when a key is missing or a value is unusable.
        """
        try:
            columns = list(payload["columns"])
            records = []
            for d in payload["pairs"]:
                rec = PairRecord(i=int(d["i"]), j=int(d["j"]), names=tuple(d["names"]),
                                 sigma_u=d["sigma_u"], tau2=d["tau2"], k=d["k"],
                                 t_stat=None if d["t"] is None else float(d["t"]),
                                 reject=d["reject"], error=d["error"])
                if not (0 <= rec.i < rec.j < len(columns)
                        and (rec.t_stat is None) != (rec.error is None)
                        and (rec.t_stat is None or np.isfinite(rec.t_stat))):
                    raise ValueError(f"inconsistent pair record {d}")
                records.append(rec)
            cv = fixed_critical_value(float(payload["critical_value"]))  # finite, or a DomainError
            return cls(records=records, critical_value=cv,
                       adjustment=payload["adjustment"], alpha=payload["alpha"],
                       columns=columns, quantiles=dict(payload["quantiles"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed report: {type(exc).__name__}: {exc}") from None

    csv_header = ("i", "j", "name_i", "name_j", "sigma_u", "tau2", "k", "t", "reject", "error")

    def to_csv_rows(self):
        for r in self.records:
            yield (r.i, r.j, r.names[0], r.names[1],
                   "" if r.sigma_u is None else repr(r.sigma_u),
                   "" if r.tau2 is None else repr(r.tau2),
                   "" if r.k is None else r.k,
                   "" if r.t_stat is None else repr(r.t_stat),
                   "" if r.reject is None else int(r.reject),
                   r.error or "")
