"""tailgraph benchmark: one workload, timed, gated, printed as one JSON line.

Run from the root of a checkout (the package is imported from ``./src``):

    python3 perfbench/run.py --workload allpairs-highp --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run: it alternates untraced iterations with
iterations under the span wrappers of ``tracing.py`` and reports per-layer
metrics (medians over traced iterations) plus the tracing overhead.  Earlier stdout lines
carry the environment, the failure counts by source and the sample counts;
the last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 5
OUT_DIR = ".bench_out"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit; values are medians over traced iterations
    "cli.simulate.s": "s",
    "cli.preprocess.s": "s",
    "cli.ptc_test.s": "s",
    "cli.graph.s": "s",
    "cli.read_csv_matrix.s": "s",
    "cli.read_csv_matrix.bytes": "B",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
    "rvsim.sample_noise.s": "s",
    "rvsim.construct.s": "s",
    "rvsim.construct.calls": "count",
    "tpdm.solve_delta.s": "s",
    "tpdm.marginal_transform.s": "s",
    "tpdm.estimate_tpdm.s": "s",
    "tpdm.estimate_sigma_pair.calls": "count",
    "xlinear.softplus_inv.calls": "count",
    "xlinear.softplus_inv.s": "s",
    "xlinear.softplus_inv.elements": "count",
    "xlinear.softplus_inv.elements_per_input": "ratio",
    "xlinear.softplus.s": "s",
    "project.solve_b.calls": "count",
    "project.solve_b.s": "s",
    "project.conditional_ipm.calls": "count",
    "project.conditional_ipm.s": "s",
    "project.invert_ipm.s": "s",
    "project.ptc_matrix.s": "s",
    "inference.residuals.calls": "count",
    "inference.residuals.s": "s",
    "inference.residuals.rows_in": "count",
    "inference.residuals.rows_kept": "count",
    "inference.residuals.keep_ratio": "ratio",
    "inference.estimate_sigma_u.s": "s",
    "inference.estimate_tau2.s": "s",
    "inference.critical_value.s": "s",
    "inference.ptc_test_all_pairs.self_s": "s",
    "inference.pairs_attempted": "count",
    "inference.pairs_failed": "count",
    "graphx.build_graph.s": "s",
    "graphx.emit_dot.s": "s",
    "cli.self_s": "s",
    "rvsim.self_s": "s",
    "tpdm.self_s": "s",
    "xlinear.self_s": "s",
    "project.self_s": "s",
    "inference.self_s": "s",
    "graphx.self_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


def environment(seed, threads_env):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(os.getcwd()):
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "TAILGRAPH_THREADS": {"inherited": threads_env, "used": "unset (default 1)"},
        "commit": commit,
        "seed": seed,
        "limitation": "no CPU pinning or frequency control; shared machine, wall-clock timings",
    }


def setup_probe(src):
    """Seconds for a fresh interpreter to ``import tailgraph`` and run the first
    ``solve_delta()``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tailgraph; tailgraph.solve_delta()"],
                   env=env, check=True)
    return time.perf_counter() - t0


def timed_loop(step, seconds, probe=None):
    """Call ``step`` until the next call would take the timed total past
    ``seconds``; at least once.  ``probe`` runs untimed ``SETUP_PROBES`` times,
    spread over the run so that it samples the same drift in machine speed
    as the iterations.  Returns (iteration seconds, probe results)."""
    times, probes = [], []
    while True:
        due = len(probes) * seconds / SETUP_PROBES
        if probe and len(probes) < SETUP_PROBES and sum(times) >= due:
            probes.append(probe())
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
        if sum(times) + times[-1] > seconds:
            while probe and len(probes) < SETUP_PROBES:
                probes.append(probe())
            return times, probes


def traced_loop(step, rec, seconds):
    """After one warm-up iteration, alternate untraced and traced iterations so
    that drift in machine speed cancels in the overhead ratio; returns
    (traced, untraced) seconds."""
    traced, untraced = [], []
    start = time.perf_counter()
    step()
    while True:
        t0 = time.perf_counter()
        step()
        untraced.append(time.perf_counter() - t0)
        rec.iteration = len(traced)
        with tracing.installed(rec):
            t0 = time.perf_counter()
            step()
            traced.append(time.perf_counter() - t0)
        rec.iteration = None
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            return traced, untraced


def _step(work, inprocess=False):
    """One iteration of the workload."""
    if isinstance(work, wl.CliPipeline):
        run = work.run_inprocess if inprocess else work.run_subprocess
        return lambda: work.command_times.append(run())
    return work.iterate


def run(workload, seed, seconds, trace, params=None, golden=None):
    """Run one workload; returns ``(result line, info)``."""
    root = os.getcwd()
    src = os.path.join(root, "src")
    threads_env = os.environ.pop("TAILGRAPH_THREADS", None)
    tg = wl.import_tailgraph(src)
    params = params or wl.PARAMS[workload]
    tally = wl.Tally()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    info = {"env": environment(seed, threads_env), "workload": workload, "params": params}
    try:
        wl.golden_gate(tg, workload, workdir, tally, golden)
        rec = tracing.Recorder() if trace else None
        work = wl.WORKLOADS[workload](tg, params, seed, workdir, tally, rec)
        work.setup()
        if not trace:
            times, info["setup_probes_s"] = timed_loop(_step(work), seconds,
                                                       lambda: setup_probe(src))
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            # Machine speed drifts in blocks of tens of seconds, so iteration
            # times within a run are often bimodal; their mean moves smoothly
            # with the mix where the median jumps between the two modes.
            wall = sum(times) / len(times)
            metrics = {
                "setup_s": statistics.median(info["setup_probes_s"]),
                "wall_s": wall,
                "pairs_per_s": work.pairs_per_iteration() / wall,
                "peak_rss_mb": peak_kb / 1024.0,
            }
            units = END_TO_END
        else:
            times, untraced = traced_loop(_step(work, inprocess=True), rec, seconds)
            metrics = layer_metrics(rec, work, len(times))
            metrics["trace.overhead"] = statistics.median(times) / statistics.median(untraced) - 1
            units = PER_LAYER
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
            with open(spans_path, "w") as fh:
                json.dump(rec.spans, fh)
            info["spans_file"] = spans_path
        info["iterations"] = len(times)
        info["iteration_s"] = times
        if isinstance(work, wl.CliPipeline):
            info["cli_command_s"] = {name: statistics.median(t[name] for t in work.command_times)
                                     for name in work.command_times[0]}
        work.gate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["counts_by_source"] = {k: {"attempted": a, "failed": f, "failed_frac": f / a if a else 0.0}
                                for k, (a, f) in tally.by_source.items()}
    info["failed_frac"] = {"value": tally.failed / tally.attempted, "failed": tally.failed,
                           "attempted": tally.attempted}
    info["mismatches"] = tally.mismatches[:20]
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return line, info


def layer_metrics(rec, work, iterations):
    """Per-layer values: medians over the traced iterations."""
    rows = rec.per_iteration()
    per_iter = [rows[i] for i in range(iterations)]
    for row in per_iter:
        row["cli.write.s"] = row.get("cli.format_csv.s", 0.0) + row.get("cli.atomic_write.s", 0.0)
        rows_in = row.get("inference.residuals.rows_in", 0.0)
        row["inference.residuals.keep_ratio"] = (
            row.get("inference.residuals.rows_kept", 0.0) / rows_in if rows_in else 0.0)
        row["xlinear.softplus_inv.elements_per_input"] = row.get(
            "xlinear.softplus_inv.elements", 0.0) / (work.P["n"] * work.P["p"])
        row["trace.spans"] = sum(v for k, v in row.items() if k.endswith(".calls")
                                 and k.count(".") == 2)
    med = tracing.medians(per_iter)
    return {name: med.get(name, 0.0) for name in PER_LAYER if name != "trace.overhead"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "tailgraph", "__init__.py")):
        print("error: ./src/tailgraph not found; run from the root of a tailgraph checkout",
              file=sys.stderr)
        return 2
    line, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
