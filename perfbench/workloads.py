"""The benchmark's two workloads, their correctness gates and failure tally.

Every workload is closed loop: one client, one process, the next call only
after the previous one returned.  The inputs of a run come from its seed and
are the same in every iteration of that run, so each iteration's outputs must
equal the first iteration's bit for bit; the first iteration is compared with
the frozen reference (``reference.py``) and every run first replays a small
fixed case against the outputs recorded in ``golden.json``.

Why these two:

* ``cli-pipeline`` runs ``simulate -> preprocess -> ptc-test -> graph`` as
  four fresh processes.  It is the only workload where CSV read/write, the
  rank transform and the per-command import carry most of the time.
* ``allpairs-highp`` runs ``ptc_test_all_pairs`` in process on a sample held
  in memory.  At high p the per-pair residual pipeline and the pairwise TPDM
  dominate and the CLI does nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
TOL = 1e-12

PARAMS = {
    "cli-pipeline": {"n": 40_000, "p": 10, "phi": 0.7, "q_radial": 0.95, "q_pred": 0.98,
                     "q_res": 0.98},
    "allpairs-highp": {"n": 10_000, "p": 30, "phi": 0.7, "q_radial": 0.95, "q_pred": 0.98,
                       "q_res": 0.98},
}

# Fixed small cases replayed by every run against golden.json.
GOLDEN_PARAMS = {
    "cli-pipeline": {"n": 1_000, "p": 5, "phi": 0.7, "q_radial": 0.95, "q_pred": 0.98,
                     "q_res": 0.98},
    "allpairs-highp": {"n": 2_000, "p": 8, "phi": 0.7, "q_radial": 0.95, "q_pred": 0.98,
                       "q_res": 0.98},
}
GOLDEN_SEED = 0


class Tally:
    """Attempted and failed operations by source; failed_frac is their ratio."""

    def __init__(self):
        self.by_source = {}
        self.mismatches = []

    def add(self, source, attempted, failed=0):
        counts = self.by_source.setdefault(source, [0, 0])
        counts[0] += int(attempted)
        counts[1] += int(failed)

    def check(self, what, ok):
        """One gate comparison; a mismatch is a failed operation."""
        self.add("gate", 1, 0 if ok else 1)
        if not ok:
            self.mismatches.append(what)

    @property
    def attempted(self):
        return sum(a for a, _ in self.by_source.values())

    @property
    def failed(self):
        return sum(f for _, f in self.by_source.values())


def close(a, b, tol=TOL):
    """Floats agree to ``tol`` relative to max(1, |b|); None only matches None."""
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def all_close(a, b, tol=TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def compare(actual, expected, tally, prefix):
    """Gate every key of ``expected``: floats to TOL, everything else exactly."""
    for key, want in expected.items():
        got = actual.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and close(got, want)
        elif isinstance(want, list) and want and any(isinstance(v, float) for v in want):
            ok = isinstance(got, list) and len(got) == len(want) and all(
                close(g, w) if isinstance(w, float) else g == w for g, w in zip(got, want))
        else:
            ok = got == want
        tally.check(f"{prefix}.{key}", ok)


def _records(report):
    """Per-pair outputs of a report as plain lists."""
    recs = report.records if hasattr(report, "records") else None
    if recs is not None:
        rows = [(r.i, r.j, r.t_stat, r.k, r.reject, r.error) for r in recs]
    else:
        rows = [(r["i"], r["j"], r["t"], r["k"], r["reject"], r["error"]) for r in report["pairs"]]
    return {"pairs": [[i, j] for i, j, *_ in rows], "t": [r[2] for r in rows],
            "k": [r[3] for r in rows], "reject": [r[4] for r in rows],
            "errors": [r[5] for r in rows if r[5]]}


def _gate_records(out, ref_records, ref_cv, tally, prefix):
    """Program records against reference records ``(i, j, t, k, reject)``."""
    tally.check(f"{prefix}.pairs", out["pairs"] == [[i, j] for i, j, *_ in ref_records])
    tally.check(f"{prefix}.t", all(close(a, b[2]) for a, b in zip(out["t"], ref_records)))
    tally.check(f"{prefix}.k", out["k"] == [r[3] for r in ref_records])
    tally.check(f"{prefix}.reject", out["reject"] == [r[4] for r in ref_records])
    tally.check(f"{prefix}.critical_value", close(out["critical_value"], ref_cv))


def _matrix_digest(path):
    """Column sums, maxima and first rows of a numeric CSV, for the golden record."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return [float(v) for v in np.concatenate([data.sum(axis=0), data.max(axis=0),
                                               data[:3].ravel()])]


def cached_solve_delta(tg):
    """The cached ``solve_delta``, also while a tracing wrapper hides it."""
    fn = tg.tpdm.solve_delta
    return fn if hasattr(fn, "cache_clear") else fn.__wrapped__


class Workload:
    """Set-up, one timed iteration, and the gates of one workload."""

    name = ""

    def __init__(self, tg, params, seed, workdir, tally, rec=None):
        self.tg = tg
        self.P = params
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.rec = rec  # tracing.Recorder while traced, else None
        self.first = None  # fingerprint of the first iteration

    def pairs_per_iteration(self):
        return self.P["p"] * (self.P["p"] - 1) // 2

    def check_repeat(self, fingerprint):
        """Same inputs, same outputs: later iterations must equal the first."""
        if self.first is None:
            self.first = fingerprint
        else:
            self.tally.check(f"{self.name}.repeat", fingerprint == self.first)

    def count(self, name, value):
        if self.rec is not None:
            self.rec.add(name, value)


class CliPipeline(Workload):
    name = "cli-pipeline"

    def setup(self):
        d, P = self.workdir, self.P
        self.paths = {"sim": os.path.join(d, "sim.csv"), "prep": os.path.join(d, "prep.csv"),
                      "prefix": os.path.join(d, "run"), "dot": os.path.join(d, "graph.dot")}
        p = self.paths
        self.command_times = []  # seconds per command, one dict per iteration
        self.commands = [
            ("simulate", ["simulate", "--phi", repr(P["phi"]), "--p", str(P["p"]),
                          "--n", str(P["n"]), "--seed", str(self.seed), "--out", p["sim"]]),
            ("preprocess", ["preprocess", "--input", p["sim"], "--output", p["prep"]]),
            ("ptc_test", ["ptc-test", "--input", p["prep"],
                          "--radial-quantile", repr(P["q_radial"]),
                          "--pred-quantile", repr(P["q_pred"]),
                          "--res-quantile", repr(P["q_res"]), "--out-prefix", p["prefix"]]),
            ("graph", ["graph", "--report", p["prefix"] + "_report.json", "--out", p["dot"]]),
        ]
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(self.tg.__file__))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [v for v in [os.environ.get("PYTHONPATH")] if v])

    def run_subprocess(self):
        """One pipeline as four fresh interpreters; returns seconds per command."""
        times = {}
        for name, argv in self.commands:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "tailgraph.cli", *argv], env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            times[name] = time.perf_counter() - t0
            ok = proc.returncode == 0 and "Traceback" not in proc.stderr
            self.tally.add("cli_commands", 1, 0 if ok else 1)
        self.after_iteration()
        return times

    def run_inprocess(self):
        """One pipeline through ``tailgraph.cli.main``; each command starts
        with a cold ``solve_delta`` cache, as a fresh process would."""
        times = {}
        for name, argv in self.commands:
            cached_solve_delta(self.tg).cache_clear()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = self.tg.cli.main(argv)
            except Exception:  # an escaped exception is a traceback for a CLI user
                code = -1
            times[name] = time.perf_counter() - t0
            self.tally.add("cli_commands", 1, 0 if code == 0 else 1)
        self.after_iteration()
        return times

    def _outputs(self):
        p = self.paths
        files = [p["sim"], p["prep"], p["prep"] + ".json", p["prefix"] + "_report.json",
                 p["prefix"] + "_report.csv", p["prefix"] + "_graph.dot", p["dot"]]
        if not all(os.path.exists(f) for f in files):
            return None, None
        hashes = []
        for f in files:
            with open(f, "rb") as fh:
                hashes.append(hashlib.sha256(fh.read()).hexdigest())
        with open(p["prefix"] + "_report.json") as fh:
            report = json.load(fh)
        return hashes, report

    def after_iteration(self):
        hashes, report = self._outputs()
        if report is None:
            self.tally.check(f"{self.name}.outputs_exist", False)
            return
        out = _records(report)
        self.tally.add("pairs", len(out["pairs"]), len(out["errors"]))
        self.count("inference.pairs_attempted", len(out["pairs"]))
        self.count("inference.pairs_failed", len(out["errors"]))
        self.check_repeat(hashes)

    def gate(self):
        """First iteration's files against the reference on the same inputs."""
        if self.first is None:
            self.tally.check(f"{self.name}.outputs_exist", False)
            return
        P, p = self.P, self.paths
        delta = cached_solve_delta(self.tg)()
        X = np.loadtxt(p["sim"], delimiter=",", skiprows=1)
        X_ref = ref.construct(ref.ar1_matrix(P["phi"], P["p"]),
                              ref.noise(P["p"], P["n"], self.seed, delta))
        self.tally.check("cli-pipeline.simulate.values", all_close(X, X_ref))
        prep = np.loadtxt(p["prep"], delimiter=",", skiprows=1)
        self.tally.check("cli-pipeline.preprocess.values",
                         all_close(prep, ref.marginal_transform(X, delta)))
        with open(p["prefix"] + "_report.json") as fh:
            report = json.load(fh)
        records, cv = ref.all_pairs(prep, P["q_radial"], P["q_pred"], P["q_res"])
        out = _records(report)
        out["critical_value"] = report["critical_value"]
        _gate_records(out, records, cv, self.tally, "cli-pipeline.ptc_test")
        want = ref.dot(report["columns"], records, cv)
        for f in (p["prefix"] + "_graph.dot", p["dot"]):
            with open(f) as fh:
                self.tally.check(f"cli-pipeline.dot.{os.path.basename(f)}", fh.read() == want)


class AllPairs(Workload):
    name = "allpairs-highp"

    def setup(self):
        P, tg = self.P, self.tg
        A = tg.rvsim.ar1_matrix(P["phi"], P["p"])
        X = tg.rvsim.construct(A, tg.rvsim.sample_noise(P["p"], P["n"], seed=self.seed))
        self.sample = tg.tpdm.marginal_transform(X)

    def iterate(self):
        P, tg = self.P, self.tg
        report = tg.inference.ptc_test_all_pairs(
            self.sample, q_radial=P["q_radial"], q_pred=P["q_pred"], q_res=P["q_res"],
            tpdm_mode="pairwise")
        text = tg.graphx.emit_dot(tg.graphx.build_graph(report))
        out = _records(report)
        out["critical_value"] = report.critical_value
        out["dot"] = text
        self.tally.add("pairs", len(out["pairs"]), len(out["errors"]))
        self.count("inference.pairs_attempted", len(out["pairs"]))
        self.count("inference.pairs_failed", len(out["errors"]))
        self.check_repeat(out)

    def gate(self):
        P = self.P
        records, cv = ref.all_pairs(self.sample.data, P["q_radial"], P["q_pred"], P["q_res"])
        _gate_records(self.first, records, cv, self.tally, "allpairs-highp")
        self.tally.check("allpairs-highp.dot",
                         self.first["dot"] == ref.dot(self.sample.columns, records, cv))


WORKLOADS = {w.name: w for w in (CliPipeline, AllPairs)}


def golden_outputs(tg, name, workdir, tally):
    """Outputs of the fixed golden case of one workload: one in-process iteration."""
    work = WORKLOADS[name](tg, GOLDEN_PARAMS[name], GOLDEN_SEED, workdir, tally)
    work.setup()
    out = {"delta": float(cached_solve_delta(tg)())}
    if name == "cli-pipeline":
        work.run_inprocess()
        p = work.paths
        out["simulate_digest"] = _matrix_digest(p["sim"])
        out["preprocess_digest"] = _matrix_digest(p["prep"])
        with open(p["prefix"] + "_report.json") as fh:
            report = json.load(fh)
        out.update(_records(report))
        out["critical_value"] = report["critical_value"]
        for key, path in (("dot_ptc_test", p["prefix"] + "_graph.dot"), ("dot_graph", p["dot"])):
            with open(path) as fh:
                out[key] = fh.read()
    else:
        work.iterate()
        out.update(work.first)
    return out


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_gate(tg, name, workdir, tally, golden=None):
    """Replay the fixed case and compare it with the recorded outputs."""
    golden = load_golden() if golden is None else golden
    compare(golden_outputs(tg, name, workdir, tally), golden[name], tally, f"golden.{name}")


def import_tailgraph(src):
    """Import the package from ``src`` only, never from an installed copy."""
    if src not in sys.path:
        sys.path.insert(0, src)
    tg = importlib.import_module("tailgraph")
    for mod in ("cli", "graphx", "inference", "project", "rvsim", "tpdm", "xlinear"):
        importlib.import_module(f"tailgraph.{mod}")
    if os.path.dirname(os.path.abspath(tg.__file__)) != os.path.join(os.path.abspath(src),
                                                                      "tailgraph"):
        raise ImportError(f"tailgraph imported from {tg.__file__}, not from {src}")
    return tg
