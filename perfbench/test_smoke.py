"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import importlib
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "cli-pipeline": {"n": 1_000, "p": 4, "phi": 0.7, "q_radial": 0.95, "q_pred": 0.98,
                     "q_res": 0.98},
    "allpairs-highp": {"n": 1_000, "p": 5, "phi": 0.7, "q_radial": 0.95, "q_pred": 0.98,
                       "q_res": 0.98},
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_matches_the_metrics_the_runner_knows():
    spec = _spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(wl.PARAMS, workload, TINY[workload])
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    info, printed = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True and printed["failed"] == 0, info["mismatches"]
    assert printed["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert set(printed["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = printed["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert info["failed_frac"] == {"value": 0.0, "failed": 0,
                                   "attempted": printed["attempted"]}


def test_perturbed_reference_t_counts_as_failure():
    golden = copy.deepcopy(wl.load_golden())
    golden["allpairs-highp"]["t"][0] += 1e-6
    line, info = bench.run("allpairs-highp", seed=3, seconds=0.2, trace=False,
                           params=TINY["allpairs-highp"], golden=golden)
    assert line["failed"] > 0 and line["correct"] is False
    assert info["failed_frac"]["value"] > 0
    assert "golden.allpairs-highp.t" in info["mismatches"]


def test_wrappers_restore_module_attributes():
    mods = sorted({m for m, _, _ in tracing.TARGETS})
    before = {m: dict(vars(importlib.import_module(m))) for m in mods}
    rec = tracing.Recorder()
    with tracing.installed(rec):
        assert all(getattr(importlib.import_module(m), a) is not before[m][a]
                   for m, a, _ in tracing.TARGETS)
    bench.run("cli-pipeline", seed=3, seconds=0.2, trace=True, params=TINY["cli-pipeline"])
    for m in mods:
        after = vars(importlib.import_module(m))
        assert set(after) == set(before[m])
        assert all(after[k] is before[m][k] for k in before[m]), m
