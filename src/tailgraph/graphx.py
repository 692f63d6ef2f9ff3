"""Extremal graph construction and DOT/JSON emission.

A pair test report becomes an undirected graph: one node per variable, one
edge per rejected pair, weighted by the absolute test statistic.  DOT output
is deterministic, with edge thickness proportional to the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .report import PtcTestReport


@dataclass
class ExtremalGraph:
    """Undirected graph with |t|-weighted edges above a critical value."""

    nodes: list[str]
    edges: list[tuple[int, int, float]]  # (i, j, weight) with i < j
    critical_value: float
    skipped: list[tuple[int, int, str]] = field(default_factory=list)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.edges}


def build_graph(report: PtcTestReport) -> ExtremalGraph:
    """Edges are the pairs whose |t| exceeds the report's critical value.

    Pairs that errored during testing yield no edge and are listed in
    ``skipped``.
    """
    edges = []
    skipped = []
    for rec in report.records:
        i, j = min(rec.i, rec.j), max(rec.i, rec.j)
        if rec.error is not None:
            skipped.append((i, j, rec.error))
            continue
        weight = abs(rec.t_stat)
        if weight > report.critical_value:
            edges.append((i, j, weight))
    edges.sort()
    skipped.sort()
    return ExtremalGraph(nodes=list(report.columns), edges=edges,
                         critical_value=report.critical_value, skipped=skipped)


def graph_from_stats(stats_matrix, names, critical: float) -> ExtremalGraph:
    """Direct graph construction from a symmetric matrix of test statistics."""
    T = np.asarray(stats_matrix, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DomainError("test statistic matrix must be square")
    p = T.shape[0]
    names = list(names) if names is not None else [str(i + 1) for i in range(p)]
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            w = abs(T[i, j])
            if np.isfinite(w) and w > critical:
                edges.append((i, j, float(w)))
    return ExtremalGraph(nodes=names, edges=edges, critical_value=float(critical))


def _quote(name: str) -> str:
    return '"' + str(name).replace('"', '\\"') + '"'


def emit_dot(graph: ExtremalGraph, width_scale: float = 4.0) -> str:
    """Render as DOT text with penwidth proportional to |t| / max |t|.

    Output is byte-identical across runs for identical input: nodes in order,
    edges sorted by index pair, errored pairs listed in a comment header.
    """
    if width_scale <= 0:
        raise DomainError("width_scale must be positive")
    lines = ["graph extremal {"]
    lines.append(f"  // critical value: {graph.critical_value:g}")
    for i, j, why in graph.skipped:
        lines.append(f"  // skipped pair ({graph.nodes[i]}, {graph.nodes[j]}): {why}")
    lines.append("  node [shape=circle];")
    for name in graph.nodes:
        lines.append(f"  {_quote(name)};")
    max_w = max((w for _, _, w in graph.edges), default=0.0)
    for i, j, w in sorted(graph.edges):
        pen = width_scale * w / max_w if max_w > 0 else width_scale
        lines.append(f"  {_quote(graph.nodes[i])} -- {_quote(graph.nodes[j])}"
                     f" [penwidth={pen:.4f}, label=\"{w:.2f}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_adjacency(graph: ExtremalGraph) -> dict:
    """JSON-ready adjacency: node list plus [i, j, weight] edge triples."""
    return {
        "nodes": list(graph.nodes),
        "critical_value": graph.critical_value,
        "edges": [[i, j, w] for i, j, w in sorted(graph.edges)],
        "skipped_pairs": [[i, j, why] for i, j, why in graph.skipped],
    }

