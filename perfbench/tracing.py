"""Span recorder for the traced run, installed from outside the program.

Each wrapper replaces a ``tailgraph`` module attribute at the place its
consumers look it up (``tailgraph.inference.softplus_inv`` is what the
per-pair residuals call, ``tailgraph.tpdm.estimate_sigma_pair`` what the
pairwise TPDM calls) and records a span: name, start, end, parent span and
iteration id.  Counters are taken at the same boundaries.  ``installed``
restores every attribute on exit, so the program is unchanged afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  A function imported by name into several
# modules is wrapped in each consumer that the workloads reach.
TARGETS = (
    ("tailgraph.cli", "cmd_simulate", "cli.simulate"),
    ("tailgraph.cli", "cmd_preprocess", "cli.preprocess"),
    ("tailgraph.cli", "cmd_ptc_test", "cli.ptc_test"),
    ("tailgraph.cli", "cmd_graph", "cli.graph"),
    ("tailgraph.cli", "read_csv_matrix", "cli.read_csv_matrix"),
    ("tailgraph.cli", "_format_matrix_csv", "cli.format_csv"),
    ("tailgraph.cli", "_atomic_write", "cli.atomic_write"),
    ("tailgraph.rvsim", "sample_noise", "rvsim.sample_noise"),
    ("tailgraph.rvsim", "construct", "rvsim.construct"),
    ("tailgraph.tpdm", "solve_delta", "tpdm.solve_delta"),
    ("tailgraph.rvsim", "solve_delta", "tpdm.solve_delta"),
    ("tailgraph.tpdm", "marginal_transform", "tpdm.marginal_transform"),
    ("tailgraph.tpdm", "estimate_tpdm", "tpdm.estimate_tpdm"),
    ("tailgraph.inference", "estimate_tpdm", "tpdm.estimate_tpdm"),
    ("tailgraph.tpdm", "estimate_sigma_pair", "tpdm.estimate_sigma_pair"),
    ("tailgraph.rvsim", "softplus_inv", "xlinear.softplus_inv"),
    ("tailgraph.inference", "softplus_inv", "xlinear.softplus_inv"),
    ("tailgraph.rvsim", "softplus", "xlinear.softplus"),
    ("tailgraph.inference", "solve_b", "project.solve_b"),
    ("tailgraph.inference", "conditional_ipm", "project.conditional_ipm"),
    ("tailgraph.inference", "ptc_matrix", "project.ptc_matrix"),
    ("tailgraph.project", "invert_ipm", "project.invert_ipm"),
    ("tailgraph.inference", "residuals", "inference.residuals"),
    ("tailgraph.inference", "estimate_sigma_u", "inference.estimate_sigma_u"),
    ("tailgraph.inference", "estimate_tau2", "inference.estimate_tau2"),
    ("tailgraph.inference", "critical_value", "inference.critical_value"),
    ("tailgraph.inference", "ptc_test_all_pairs", "inference.ptc_test_all_pairs"),
    ("tailgraph.graphx", "build_graph", "graphx.build_graph"),
    ("tailgraph.graphx", "emit_dot", "graphx.emit_dot"),
)

def _count_elements(rec, args, kwargs, out):
    rec.add("xlinear.softplus_inv.elements", getattr(args[0], "size", 1))


def _count_rows(rec, args, kwargs, out):
    rec.add("inference.residuals.rows_in", out.n_total)
    rec.add("inference.residuals.rows_kept", len(out))


def _count_read(rec, args, kwargs, out):
    rec.add("cli.read_csv_matrix.bytes", os.path.getsize(args[0]))


def _count_write(rec, args, kwargs, out):
    rec.add("cli.write.bytes", len(args[1].encode()))


COUNTERS = {
    "xlinear.softplus_inv": _count_elements,
    "inference.residuals": _count_rows,
    "cli.read_csv_matrix": _count_read,
    "cli.atomic_write": _count_write,
}


class Recorder:
    """In-memory spans ``[name, start, end, parent, iteration]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (iteration, name) -> value
        self.iteration = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name, value):
        self.counts[(self.iteration, name)] += value

    def per_iteration(self):
        """Per-iteration totals: span time, self time, calls, layer self time and counters."""
        out = defaultdict(lambda: defaultdict(float))
        child = defaultdict(float)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, it = self.spans[idx]
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            own = dur - child[idx]
            row = out[it]
            row[name + ".s"] += dur
            row[name + ".self_s"] += own
            row[name + ".calls"] += 1
            row[name.split(".")[0] + ".self_s"] += own
        for (it, name), value in self.counts.items():
            out[it][name] += value
        return out


def _wrap(fn, name, rec):
    count = COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            count(rec, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


@contextlib.contextmanager
def installed(rec):
    """Wrap every target attribute for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(original, span, rec))
        yield rec
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def medians(rows):
    """Median over iterations of each per-iteration value; absent counts as 0."""
    keys = set().union(*rows) if rows else set()
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}
