"""Extremal graph construction and DOT/JSON emission.

A pair test report becomes an undirected graph: one node per variable, one
edge per rejected pair, weighted by the absolute test statistic.  DOT output
is deterministic, with edge thickness proportional to the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DomainError, check_names, check_positive, check_sequence,
                     check_type, float_scalar)
from .report import PtcTestReport, check_pair, check_records, fixed_critical_value
from .tpdm import square_matrix


@dataclass
class ExtremalGraph:
    """Undirected graph with |t|-weighted edges above a critical value."""

    nodes: list[str]
    edges: list[tuple[int, int, float]]  # (i, j, weight) with i < j
    critical_value: float
    skipped: list[tuple[int, int, str]] = field(default_factory=list)


def build_graph(report: PtcTestReport) -> ExtremalGraph:
    """Edges are the pairs whose |t| exceeds the report's critical value
    (:func:`_edges`).

    Pairs that errored during testing yield no edge and are listed in
    ``skipped``.  Anything but a :class:`PtcTestReport`, columns that are not a
    sequence, or records that break :func:`~tailgraph.report.check_records`'
    rule, is a :class:`DataError`.
    """
    check_type(report, PtcTestReport, "build_graph")
    nodes = check_names(report.columns, len(check_sequence(report.columns, "build_graph: columns")))
    critical = fixed_critical_value(report.critical_value)
    records = check_records(report.records, len(nodes), "build_graph")
    edges = _edges(((r.i, r.j, abs(r.t_stat)) for r in records if r.error is None), critical)
    skipped = [(r.i, r.j, r.error) for r in records if r.error is not None]
    return ExtremalGraph(nodes, sorted(edges), critical, sorted(skipped))


def graph_from_stats(stats_matrix, names, critical: float) -> ExtremalGraph:
    """Edges are the pairs of the upper triangle whose |t| is finite and exceeds
    ``critical`` (:func:`_edges`).

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
    upper = ((i, j, float(abs(T[i, j]))) for i in range(p) for j in range(i + 1, p))
    return ExtremalGraph(nodes=names, edges=_edges(upper, critical), critical_value=critical)


def _edges(weights, critical: float) -> list[tuple[int, int, float]]:
    """The ``(i, j, w)`` of ``weights`` whose w is finite and above ``critical``:
    the one edge rule, by which a graph is built and read back."""
    return [(i, j, w) for i, j, w in weights if critical < w < np.inf]


def _read_graph(graph, caller: str):
    """``(critical, nodes, edges, skipped)`` of an :class:`ExtremalGraph`, held to the
    rules :func:`build_graph` keeps: the critical value read by
    :func:`~tailgraph.report.fixed_critical_value`, the node names read by
    :func:`~tailgraph.errors.check_names` (stripped strs, distinct), the nodes,
    edges and skipped pairs, and each edge or skipped pair, a sequence
    (:func:`~tailgraph.errors.check_sequence`), each edge or skipped pair three
    fields with integers i < j below the node count
    (:func:`~tailgraph.report.check_pair`), no pair twice, each edge weight
    read by :func:`float_scalar` and kept by :func:`_edges`, and each skipped
    pair's reason a non-empty str.  Anything else is a :class:`DataError`
    naming ``caller``."""
    check_type(graph, ExtremalGraph, caller)
    try:
        critical = fixed_critical_value(graph.critical_value)
        nodes = check_names(graph.nodes, len(check_sequence(graph.nodes, "nodes")))
        p = len(nodes)
        edges = check_sequence(graph.edges, "edges")
        skipped = check_sequence(graph.skipped, "skipped pairs")
        for what, entries in (("edge", edges), ("skipped pair", skipped)):
            for e in entries:
                if len(check_sequence(e, what)) != 3:
                    raise DataError(f"{what} {e!r} is not three fields")
        edges = [(*check_pair(i, j, p, "edge"), float_scalar(w, "edge weight")) for i, j, w in edges]
        skipped = [(*check_pair(i, j, p, "skipped pair"), why) for i, j, why in skipped]
        if len(_edges(edges, critical)) < len(edges):
            raise DataError("edge weights must be finite and above the critical value")
        if not all(isinstance(why, str) and why for *_, why in skipped):
            raise DataError("a skipped pair's reason must be a non-empty str")
        if len({e[:2] for e in edges + skipped}) < len(edges + skipped):
            raise DataError("a pair appears twice among the edges and skipped pairs")
    except (DataError, DomainError) as exc:
        raise DataError(f"{caller}: {exc}") from None
    return critical, nodes, edges, skipped


def _quote(name: str) -> str:
    """A DOT quoted string: a backslash or double quote in the name is escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _comment(text: str) -> str:
    """A DOT comment line: a CR or LF in ``text`` is written as ``\\r`` or ``\\n``,
    so that the comment ends where its line does."""
    return "  // " + text.replace("\r", "\\r").replace("\n", "\\n")


def emit_dot(graph: ExtremalGraph, width_scale: float = 4.0) -> str:
    """Render as DOT text with penwidth proportional to |t| / max |t|.

    Output is byte-identical across runs for identical input: nodes in order,
    edges sorted by index pair, errored pairs listed in a comment header.
    Anything but an :class:`ExtremalGraph` held to :func:`_read_graph`'s
    rules is a :class:`DataError`.
    """
    critical, nodes, edges, skipped = _read_graph(graph, "emit_dot")
    width_scale = check_positive(width_scale, "width_scale")
    lines = ["graph extremal {", _comment(f"critical value: {critical:g}")]
    for i, j, why in skipped:
        lines.append(_comment(f"skipped pair ({nodes[i]}, {nodes[j]}): {why}"))
    lines.append("  node [shape=circle];")
    for name in nodes:
        lines.append(f"  {_quote(name)};")
    max_w = max((w for _, _, w in edges), default=0.0)
    for i, j, w in sorted(edges):
        pen = width_scale * (w / max_w)  # each w is above critical >= 0: at most width_scale
        lines.append(f"  {_quote(nodes[i])} -- {_quote(nodes[j])}"
                     f" [penwidth={pen:.4f}, label=\"{w:.2f}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_adjacency(graph: ExtremalGraph) -> dict:
    """JSON-ready adjacency: node list plus [i, j, weight] edge triples; anything
    but an :class:`ExtremalGraph` held to :func:`_read_graph`'s rules is a
    :class:`DataError`."""
    critical, nodes, edges, skipped = _read_graph(graph, "to_adjacency")
    return {
        "nodes": nodes,
        "critical_value": critical,
        "edges": [[i, j, w] for i, j, w in sorted(edges)],
        "skipped_pairs": [[i, j, why] for i, j, why in skipped],
    }

