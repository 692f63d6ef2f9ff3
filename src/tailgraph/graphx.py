"""Extremal graph construction and DOT/JSON emission.

A pair test report becomes an undirected graph: one node per variable, one
edge per rejected pair, weighted by the absolute test statistic.  DOT output
is deterministic, with edge thickness proportional to the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, DomainError, check_names, float_scalar
from .report import PtcTestReport, fixed_critical_value
from .tpdm import square_matrix


@dataclass
class ExtremalGraph:
    """Undirected graph with |t|-weighted edges above a critical value."""

    nodes: list[str]
    edges: list[tuple[int, int, float]]  # (i, j, weight) with i < j
    critical_value: float
    skipped: list[tuple[int, int, str]] = field(default_factory=list)


def build_graph(report: PtcTestReport) -> ExtremalGraph:
    """Edges are the pairs whose |t| exceeds the report's critical value.

    Pairs that errored during testing yield no edge and are listed in
    ``skipped``.  Anything but a :class:`PtcTestReport` is a :class:`DataError`.
    """
    if not isinstance(report, PtcTestReport):
        raise DataError(f"build_graph needs a PtcTestReport, got a {type(report).__name__}")
    T = np.full((len(report.columns),) * 2, np.nan)  # an errored pair stays NaN: no edge
    skipped = []
    for rec in report.records:
        i, j = min(rec.i, rec.j), max(rec.i, rec.j)
        if rec.error is None:
            T[i, j] = T[j, i] = rec.t_stat
        else:
            skipped.append((i, j, rec.error))
    return replace(graph_from_stats(T, report.columns, report.critical_value),
                   skipped=sorted(skipped))


def graph_from_stats(stats_matrix, names, critical: float) -> ExtremalGraph:
    """Edges are the pairs whose |t| is finite and exceeds ``critical``.

    ``names`` label the rows, one distinct name each (by default 1..p); a NaN
    cell is a pair without a statistic.  A matrix unequal to its transpose (NaN
    matching NaN) is a :class:`DataError`.  ``critical`` is a finite non-negative
    number or "fixed:<c>" (:func:`~tailgraph.report.fixed_critical_value`).
    """
    T = square_matrix(stats_matrix, "test statistic matrix", finite=False)
    if not np.array_equal(T, T.T, equal_nan=True):
        raise DataError("test statistic matrix must be symmetric")
    critical = fixed_critical_value(critical)
    p = T.shape[0]
    names = check_names(names, p) if names is not None else [str(i + 1) for i in range(p)]
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            w = abs(T[i, j])
            if np.isfinite(w) and w > critical:
                edges.append((i, j, float(w)))
    return ExtremalGraph(nodes=names, edges=edges, critical_value=critical)


def _check_graph(graph, caller: str) -> None:
    if not isinstance(graph, ExtremalGraph):
        raise DataError(f"{caller} needs an ExtremalGraph, got a {type(graph).__name__}")


def _quote(name: str) -> str:
    return '"' + str(name).replace('"', '\\"') + '"'


def emit_dot(graph: ExtremalGraph, width_scale: float = 4.0) -> str:
    """Render as DOT text with penwidth proportional to |t| / max |t|.

    Output is byte-identical across runs for identical input: nodes in order,
    edges sorted by index pair, errored pairs listed in a comment header.
    Anything but an :class:`ExtremalGraph` is a :class:`DataError`.
    """
    _check_graph(graph, "emit_dot")
    width_scale = float_scalar(width_scale, "width_scale")
    if not 0.0 < width_scale < np.inf:
        raise DomainError(f"width_scale must be positive and finite, got {width_scale!r}")
    lines = ["graph extremal {"]
    lines.append(f"  // critical value: {graph.critical_value:g}")
    for i, j, why in graph.skipped:
        lines.append(f"  // skipped pair ({graph.nodes[i]}, {graph.nodes[j]}): {why}")
    lines.append("  node [shape=circle];")
    for name in graph.nodes:
        lines.append(f"  {_quote(name)};")
    max_w = max((w for _, _, w in graph.edges), default=0.0)
    for i, j, w in sorted(graph.edges):
        pen = width_scale * (w / max_w) if max_w > 0 else width_scale  # at most width_scale
        lines.append(f"  {_quote(graph.nodes[i])} -- {_quote(graph.nodes[j])}"
                     f" [penwidth={pen:.4f}, label=\"{w:.2f}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_adjacency(graph: ExtremalGraph) -> dict:
    """JSON-ready adjacency: node list plus [i, j, weight] edge triples; anything
    but an :class:`ExtremalGraph` is a :class:`DataError`."""
    _check_graph(graph, "to_adjacency")
    return {
        "nodes": list(graph.nodes),
        "critical_value": graph.critical_value,
        "edges": [[i, j, w] for i, j, w in sorted(graph.edges)],
        "skipped_pairs": [[i, j, why] for i, j, why in graph.skipped],
    }

