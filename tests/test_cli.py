import argparse
import ast
import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailgraph import (CoverageResult, DataError, DomainError, PairRecord, PtcTestReport,
                       TailSample, ar1_matrix, construct, critical_value, marginal_transform,
                       sample_noise, solve_delta)
from tailgraph import cli, inference
from tailgraph.cli import _format_matrix_csv, _read_csv_checked, main, read_csv_matrix
from tailgraph.errors import check_integer, check_positive, check_unit_interval
from tailgraph.report import fixed_critical_value

from conftest import assert_singular_but_testable, with_copied_column

DATA = os.path.join(os.path.dirname(__file__), "data")
NO2_FIXTURE = os.path.join(DATA, "no2_tstats.csv")


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv, python_args=("-m", "tailgraph.cli"), env=()):
    """The CLI (or other ``python_args``) in a fresh interpreter, with the
    variables ``env`` set too; returns (exit code, stderr, stdout)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    proc = subprocess.run([sys.executable, *python_args, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr, proc.stdout


@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "sim.csv"
    assert run("simulate", "--phi", 0.7, "--p", 4, "--n", 3000, "--seed", 5,
               "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_header_and_rows(self, simulated):
        columns, data = read_csv_matrix(str(simulated))
        assert columns == ["X1", "X2", "X3", "X4"]
        assert data.shape == (3000, 4)
        assert data.min() > 0

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--n", 500, "--seed", 7, "--out", a)
        run("simulate", "--n", 500, "--seed", 7, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_single_column(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run("simulate", "--p", 1, "--n", 50, "--seed", 1, "--out", out) == 0
        columns, data = read_csv_matrix(str(out))
        assert columns == ["X1"] and data.shape == (50, 1)

    def test_invalid_phi_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--phi", 1.5, "--n", 10, "--seed", 0, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--n", 10)  # --out missing
        assert exc.value.code == 2

    def test_user_supplied_coefficient_matrix(self, tmp_path):
        amat = tmp_path / "A.csv"
        amat.write_text("c1,c2\n1.0,0.0\n0.5,1.0\n")
        out = tmp_path / "custom.csv"
        assert run("simulate", "--a-matrix", amat, "--n", 200, "--seed", 4,
                   "--out", out) == 0
        _, data = read_csv_matrix(str(out))
        assert data.shape == (200, 2)
        # first output column is the first noise column untouched
        from tailgraph import sample_noise

        np.testing.assert_allclose(data[:, 0], sample_noise(2, 200, seed=4)[:, 0],
                                   atol=1e-10)


class TestPreprocess:
    def test_round_trip_with_sidecar(self, tmp_path, simulated):
        out = tmp_path / "prep.csv"
        assert run("preprocess", "--input", simulated, "--output", out) == 0
        meta = json.loads((tmp_path / "prep.csv.json").read_text())
        assert list(meta) == ["delta", "margin", "n", "columns", "source"]
        assert meta["delta"] == solve_delta() == pytest.approx(0.9352, abs=5e-4)
        assert meta["margin"] == "shifted-pareto"
        columns, data = read_csv_matrix(str(out))
        assert data.min() > 1 - meta["delta"] - 1e-12

    def test_pareto_quantile_after_transform(self, tmp_path, simulated):
        out = tmp_path / "prep.csv"
        run("preprocess", "--input", simulated, "--output", out)
        meta = json.loads((tmp_path / "prep.csv.json").read_text())
        _, data = read_csv_matrix(str(out))
        q99 = np.quantile(data[:, 0], 0.99)
        assert q99 == pytest.approx(10 - meta["delta"], rel=0.05)

    def test_quoted_header_names_round_trip(self, tmp_path):
        """A column name holding a comma, a quote or a line break is quoted
        on output, so preprocess reads its own output back unchanged, and the
        ptc-test report CSV parses with the same names."""
        X = 1.0 + np.random.default_rng(4).pareto(2.0, (2000, 3))
        body = "".join(",".join(map(repr, row)) + "\n" for row in X.tolist())
        src = tmp_path / "in.csv"
        src.write_text('a,"b\nx",c\n' + body)
        assert run("preprocess", "--input", src, "--output", tmp_path / "p1.csv") == 0
        assert run("preprocess", "--input", tmp_path / "p1.csv", "--output",
                   tmp_path / "p2.csv") == 0
        first = (tmp_path / "p1.csv").read_text()
        assert first.startswith('a,"b\nx",c\n')
        assert (tmp_path / "p2.csv").read_text() == first
        names = ["a", "b\nx", 'q"1,2']
        src.write_text('a,"b\nx","q""1,2"\n' + body)
        assert read_csv_matrix(src)[0] == names
        assert run("ptc-test", "--input", src, "--out-prefix", tmp_path / "r") == 0
        with open(tmp_path / "r_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[2:4] for row in rows[1:]] == [[names[0], names[1]], [names[0], names[2]],
                                                  [names[1], names[2]]]

    def test_constant_column_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0,3.0\n1.0,4.0\n")
        assert run("preprocess", "--input", bad, "--output", tmp_path / "o.csv") == 3

    def test_non_numeric_cell_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        assert run("preprocess", "--input", bad, "--output", tmp_path / "o.csv") == 3
        assert "bad.csv:3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run("preprocess", "--input", tmp_path / "nope.csv",
                   "--output", tmp_path / "o.csv") == 3


class TestTpdm:
    def test_outputs_symmetric_matrices(self, tmp_path, simulated):
        prep = tmp_path / "prep.csv"
        run("preprocess", "--input", simulated, "--output", prep)
        prefix = tmp_path / "run"
        assert run("tpdm", "--input", prep, "--out-prefix", prefix,
                   "--radial-quantile", 0.95) == 0
        _, S = read_csv_matrix(str(prefix) + "_tpdm.csv")
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        _, Sinv = read_csv_matrix(str(prefix) + "_inverse.csv")
        np.testing.assert_allclose(S @ Sinv, np.eye(4), atol=1e-6)
        meta = json.loads((tmp_path / "run_tpdm.json").read_text())
        assert meta["condition_number"] > 1

    def test_comonotone_singular_inverse_is_error(self, tmp_path):
        x = 1.0 / np.sqrt(1.0 - np.random.default_rng(0).random(2000))
        src = tmp_path / "co.csv"
        src.write_text("a,b\n" + "\n".join(f"{float(v)!r},{float(v)!r}" for v in x) + "\n")
        prefix = tmp_path / "co"
        assert run("tpdm", "--input", src, "--out-prefix", prefix) == 4
        _, S = read_csv_matrix(str(prefix) + "_tpdm.csv")  # TPDM still written
        np.testing.assert_allclose(S, np.ones((2, 2)), atol=1e-12)
        meta = json.loads((tmp_path / "co_tpdm.json").read_text())
        assert "inverse_error" in meta

    def test_tpdm_near_the_float64_maximum_is_one_error_line(self, tmp_path):
        # the global TPDM's largest entry is about 1.5e308, where Gamma + Gamma' overflows
        X = construct(ar1_matrix(0.7, 3), sample_noise(3, 2000, seed=1))
        X[:, 0] *= 2 ** 515.75
        src = tmp_path / "big.csv"
        src.write_text(_format_matrix_csv(X, ["a", "b", "c"]))
        code, err, _ = run_process("tpdm", "--input", src, "--mode", "global", "--mass",
                                   "estimate", "--radial-quantile", 0.01,
                                   "--out-prefix", tmp_path / "big")
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


class TestPtcTestCmd:
    @pytest.fixture()
    def bigger_sim(self, tmp_path):
        out = tmp_path / "sim8k.csv"
        run("simulate", "--phi", 0.7, "--p", 4, "--n", 8000, "--seed", 11, "--out", out)
        return out

    def test_adjacent_structure_recovered(self, tmp_path, bigger_sim):
        prep = tmp_path / "prep.csv"
        run("preprocess", "--input", bigger_sim, "--output", prep)
        prefix = tmp_path / "test"
        assert run("ptc-test", "--input", prep, "--out-prefix", prefix) == 0
        report = json.loads((tmp_path / "test_report.json").read_text())
        rejected = {(r["i"], r["j"]) for r in report["pairs"] if r["reject"]}
        assert {(0, 1), (1, 2), (2, 3)} <= rejected
        dot = (tmp_path / "test_graph.dot").read_text()
        assert dot.count("--") == len(rejected)
        assert len(report["ptc"]) == 4 and report["ptc"][2][2] is None

    def test_huge_fixed_critical_value_empties_graph(self, tmp_path, bigger_sim):
        prep = tmp_path / "prep.csv"
        run("preprocess", "--input", bigger_sim, "--output", prep)
        prefix = tmp_path / "none"
        assert run("ptc-test", "--input", prep, "--critical", "fixed:1e9",
                   "--out-prefix", prefix) == 0
        dot = (tmp_path / "none_graph.dot").read_text()
        assert "--" not in dot

    @pytest.mark.parametrize("flag, value", [("--pred-quantile", "1.5"),
                                             ("--res-quantile", "0"),
                                             ("--radial-quantile", "-0.2"),
                                             ("--alpha", "1"),
                                             ("--pred-quantile", "nan")])
    def test_quantile_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                           flag, value):
        with pytest.raises(SystemExit) as exc:
            run("ptc-test", "--input", tmp_path / "absent.csv", flag, value,
                "--out-prefix", tmp_path / "r")
        assert exc.value.code == 2
        assert "must lie in (0, 1)" in capsys.readouterr().err

    def test_usage_error_prints_no_traceback(self, tmp_path):
        code, err, _ = run_process("ptc-test", "--input", tmp_path / "absent.csv",
                                "--pred-quantile", "1.5", "--out-prefix", tmp_path / "r")
        assert code == 2
        assert "must lie in (0, 1)" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_report_csv_schema(self, tmp_path, bigger_sim):
        prep = tmp_path / "prep.csv"
        run("preprocess", "--input", bigger_sim, "--output", prep)
        run("ptc-test", "--input", prep, "--out-prefix", tmp_path / "r")
        lines = (tmp_path / "r_report.csv").read_text().splitlines()
        assert lines[0] == "i,j,name_i,name_j,sigma_u,tau2,k,t,reject,error"
        assert len(lines) == 7


    def test_report_csv_cells_are_plain_numbers(self, tmp_path, bigger_sim):
        """sigma_u, tau2 and t are written as float reprs that read back exactly."""
        assert run("ptc-test", "--input", bigger_sim, "--mode", "global", "--mass", "estimate",
                   "--out-prefix", tmp_path / "r") == 0
        report = json.loads((tmp_path / "r_report.json").read_text())
        with open(tmp_path / "r_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, report["pairs"]):
            assert [float(row[key]) for key in ("sigma_u", "tau2", "t")] == \
                [rec["sigma_u"], rec["tau2"], rec["t"]]


class TestCliInvariance:
    """Identities of the CLI on its own files, in fresh interpreters."""

    @pytest.fixture()
    def sample_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_process("simulate", "--p", 5, "--n", 3000, "--seed", 4, "--out", out)[0] == 0
        return out

    def test_preprocess_is_idempotent(self, tmp_path, sample_csv):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert run_process("preprocess", "--input", sample_csv, "--output", once)[0] == 0
        assert run_process("preprocess", "--input", once, "--output", twice)[0] == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_column_permutation_permutes_the_report(self, tmp_path, sample_csv):
        """k, rejections and the critical value are equal; t moves by rounding
        only, since the runner's products see the columns in another order."""
        columns, X = read_csv_matrix(str(sample_csv))
        perm = [3, 0, 4, 2, 1]
        permuted = tmp_path / "perm.csv"
        permuted.write_text(_format_matrix_csv(X[:, perm], [columns[c] for c in perm]))
        reports = []
        for name, src in (("a", sample_csv), ("b", permuted)):
            assert run_process("ptc-test", "--input", src, "--out-prefix", tmp_path / name)[0] == 0
            reports.append(json.loads((tmp_path / f"{name}_report.json").read_text()))
        want, got = ({frozenset(r["names"]): r for r in rep["pairs"]} for rep in reports)
        assert reports[1]["critical_value"] == reports[0]["critical_value"]
        assert got.keys() == want.keys()
        for key, rec in got.items():
            ref = want[key]
            assert (rec["k"], rec["reject"], rec["error"]) == (ref["k"], ref["reject"], ref["error"])
            assert abs(rec["t"] - ref["t"]) <= 5.6e-15 * abs(ref["t"])

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path, sample_csv):
        """Every file is read and written as UTF-8 whatever the locale: under the
        C locale, with neither locale coercion nor UTF-8 mode, a header name
        outside ASCII reaches preprocess's, ptc-test's and graph's outputs as
        its UTF-8 bytes, and graph reads a report holding it unescaped."""
        columns, X = read_csv_matrix(str(sample_csv))
        src = tmp_path / "in.csv"
        src.write_bytes(_format_matrix_csv(X, ["café", *columns[1:]]).encode("utf-8"))

        def run_ascii(*argv):
            code, err, _ = run_process(*argv, env={"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                                                   "PYTHONUTF8": "0"})
            assert code == 0, err

        run_ascii("preprocess", "--input", src, "--output", tmp_path / "p.csv")
        run_ascii("ptc-test", "--input", src, "--out-prefix", tmp_path / "r")
        report = tmp_path / "r_report.json"  # rewritten unescaped, as another writer may leave it
        report.write_bytes(json.dumps(json.loads(report.read_bytes()), ensure_ascii=False).encode())
        run_ascii("graph", "--report", report, "--out", tmp_path / "g.dot")
        name = "café".encode("utf-8")
        assert (tmp_path / "p.csv").read_bytes().startswith(name + b",")
        for out in ("r_report.csv", "r_graph.dot", "g.dot"):
            assert name in (tmp_path / out).read_bytes()


class TestCoverageCmd:
    def test_reproducible_summary(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("coverage", "--n", 2000, "--reps", 100, "--seed", 3,
                       "--radial-quantile", 0.95, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert 0.0 <= payload["coverage"] <= 1.0
        assert len(payload["residual_estimates"]) == 100
        assert payload["failed"] == 0 and payload["failures"] == {}

    def test_too_few_reps_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("coverage", "--reps", 10, "--out", tmp_path / "c.json", "--seed", 1)
        assert exc.value.code == 2

    def test_non_finite_result_writes_no_json(self, tmp_path, monkeypatch, capsys):
        def nan_study(**kwargs):
            empty = np.array([])
            return CoverageResult(coverage=float("nan"), level=0.95, reps=100, n=10, phi=0.7,
                                  true_value=0.0, covered=empty, partition_estimates=empty,
                                  residual_estimates=empty, k_values=empty, t_values=empty)

        monkeypatch.setattr("tailgraph.inference.coverage_study", nan_study)
        assert run("coverage", "--reps", 100, "--seed", 1, "--out", tmp_path / "c.json") == 4
        assert "not JSON compliant" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestSizePowerCmd:
    def test_reproducible_summary(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("size-power", "--n", 2000, "--reps", 3, "--seed", 4, "--p", 5,
                       "--radial-quantile", 0.95, "--critical", "fixed:2.5", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert list(payload) == ["phi", "p", "n", "seeds", "alpha", "critical",
                                 "rejection_rates", "error_counts", "failed", "failures"]
        assert (payload["p"], payload["seeds"], payload["critical"]) == (5, 3, 2.5)
        assert list(payload["rejection_rates"])[:5] == ["1-2", "1-3", "1-4", "1-5", "2-3"]
        assert payload["rejection_rates"]["1-2"] == 1.0

    def test_seed_drawn_and_printed(self, tmp_path, capsys):
        assert run("size-power", "--n", 1000, "--reps", 1, "--radial-quantile", 0.9,
                   "--out", tmp_path / "s.json") == 0
        assert capsys.readouterr().out.startswith("seed: ")


def test_main_calls_the_functions_on_their_modules(tmp_path, monkeypatch, simulated):
    """``main`` looks a handler up on ``cli`` and the handler its library
    function up on its module when they run, so wrappers installed there (as
    perfbench's tracer installs them) are the ones called."""
    calls = []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    count(cli, "cmd_preprocess")
    count(inference, "ptc_test_all_pairs")
    prep = tmp_path / "prep.csv"
    assert run("preprocess", "--input", simulated, "--output", prep) == 0
    assert run("ptc-test", "--input", prep, "--out-prefix", tmp_path / "r") == 0
    assert calls == ["cmd_preprocess", "ptc_test_all_pairs"]


def test_allocation_failure_is_numerical_error(tmp_path, monkeypatch, capsys):
    """An allocation failure exits 4 with one line; the sampler is stubbed, nothing is allocated."""
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("tailgraph.rvsim.sample_noise", no_memory)
    assert run("simulate", "--n", 10, "--seed", 1, "--out", tmp_path / "s.csv") == 4
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not list(tmp_path.iterdir())


class TestGraphCmd:
    def test_from_stats_fixture(self, tmp_path):
        out = tmp_path / "g.dot"
        adj = tmp_path / "g.json"
        assert run("graph", "--stats", NO2_FIXTURE, "--critical", "fixed:4.797",
                   "--out", out, "--json", adj) == 0
        payload = json.loads(adj.read_text())
        assert {(i, j) for i, j, _ in payload["edges"]} == {(0, 4), (1, 2), (1, 3), (3, 4)}
        assert out.read_text().count("--") == 4

    def test_from_report(self, tmp_path):
        sim = tmp_path / "s.csv"
        run("simulate", "--n", 5000, "--seed", 2, "--out", sim)
        prep = tmp_path / "p.csv"
        run("preprocess", "--input", sim, "--output", prep)
        run("ptc-test", "--input", prep, "--out-prefix", tmp_path / "r")
        out = tmp_path / "fromreport.dot"
        assert run("graph", "--report", tmp_path / "r_report.json", "--out", out) == 0
        assert (tmp_path / "r_graph.dot").read_text() == out.read_text()

    def test_from_report_keeps_skipped_pairs(self, tmp_path):
        # a near copy of a column makes some pairs error; their comment lines must survive
        X = construct(ar1_matrix(0.6, 5), sample_noise(5, 4000, seed=13))
        X = with_copied_column(X, 2)
        assert_singular_but_testable(TailSample(X), 0.95, "global", "estimate")
        src = tmp_path / "dup.csv"
        src.write_text(_format_matrix_csv(X, [f"X{i + 1}" for i in range(6)]))
        assert run("ptc-test", "--input", src, "--mode", "global", "--mass", "estimate",
                   "--critical", "fixed:0.01", "--out-prefix", tmp_path / "r") == 0
        out = tmp_path / "fromreport.dot"
        assert run("graph", "--report", tmp_path / "r_report.json", "--out", out) == 0
        dot = out.read_text()
        assert "// skipped pair" in dot and "--" in dot
        assert (tmp_path / "r_graph.dot").read_text() == dot

    def test_report_with_fixed_critical_override(self, tmp_path):
        path = tmp_path / "r.json"
        report = PtcTestReport(
            records=[PairRecord(0, 1, t_stat=5.0, k=40, reject=True),
                     PairRecord(0, 2, t_stat=-2.0, k=40, reject=False),
                     PairRecord(1, 2, error="ConditioningError: x")],
            critical_value=3.0, adjustment="none", alpha=0.05, columns=["a", "b", "c"])
        path.write_text(json.dumps(report.to_dict()))
        adj = tmp_path / "g.json"
        assert run("graph", "--report", path, "--critical", "fixed:1.5",
                   "--out", tmp_path / "g.dot", "--json", adj) == 0
        payload = json.loads(adj.read_text())
        assert payload["critical_value"] == 1.5
        assert [e[:2] for e in payload["edges"]] == [[0, 1], [0, 2]]
        assert payload["skipped_pairs"] == [[1, 2, "ConditioningError: x"]]

    def test_needs_exactly_one_source(self, tmp_path):
        for sources in ([], ["--report", "r.json", "--stats", NO2_FIXTURE]):
            with pytest.raises(SystemExit) as exit_info:
                run("graph", *sources, "--critical", "fixed:2", "--out", tmp_path / "g.dot")
            assert exit_info.value.code == 2

    @pytest.mark.parametrize("source", ["--report", "--stats"])
    def test_non_fixed_critical_is_usage_error(self, tmp_path, capsys, source):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"columns": ["a", "b", "c"], "critical_value": 3.0,
                                    "pairs": []}))
        with pytest.raises(SystemExit) as exit_info:
            run("graph", source, path, "--critical", "bonferroni", "--out", tmp_path / "g.dot")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fixed:<c>" in err
        assert not (tmp_path / "g.dot").exists()

    def test_report_with_bonferroni_prints_no_traceback(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"columns": ["a", "b", "c"], "critical_value": 3.0,
                                    "pairs": []}))
        code, err, _ = run_process("graph", "--report", path, "--critical", "bonferroni",
                                "--out", tmp_path / "g.dot")
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["fixed:abc", "fixed:nan", "fixed:inf"])
    def test_bad_fixed_critical_reads_as_in_the_library(self, tmp_path, capsys, value):
        with pytest.raises(DomainError) as lib:
            critical_value(value)
        with pytest.raises(SystemExit) as exit_info:
            run("graph", "--stats", NO2_FIXTURE, "--critical", value, "--out", tmp_path / "g.dot")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"argument --critical: {lib.value}")

    @pytest.mark.parametrize("name", ["near_copy", "ar4"])
    def test_reads_reports_written_before_the_reader_checked_them(self, tmp_path, name):
        """Reports written by ``ptc-test`` before ``from_dict`` enforced the
        writer's rules (one with errored pairs and a fixed critical value, one
        Bonferroni) still read, and give the DOT file ``ptc-test`` wrote."""
        out = tmp_path / "g.dot"
        assert run("graph", "--report", os.path.join(DATA, f"{name}_report.json"),
                   "--out", out) == 0
        assert out.read_text() == Path(DATA, f"{name}_graph.dot").read_text()

    def test_stats_requires_critical(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("graph", "--stats", NO2_FIXTURE, "--out", tmp_path / "g.dot")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1


def _write_inputs(tmp_path, case):
    """Input files for one failure-table case; returns the CLI arguments."""
    prep = tmp_path / "prep.csv"
    if case in ("malformed sidecar", "non-positive cell", "nan cell", "ptc-test --alpha 1e-300",
                "ptc-test --critical fixed:nan", "ptc-test --critical fixed:-1"):
        X = construct(ar1_matrix(0.7, 3), sample_noise(3, 600, seed=1))
        if case == "non-positive cell":
            X[7, 1] = -1.0
        elif case == "nan cell":
            X[7, 1] = np.nan
        prep.write_text(_format_matrix_csv(X, ["a", "b", "c"]))
        (tmp_path / "prep.csv.json").write_text("{bad")
    elif case in ("ptc-test on a sample scaled by 1e78", "ptc-test on a sample scaled by 1e100"):
        # every pair's tau2 (1e78) or the 2 x 2 inverse of its precision block (1e100)
        # leaves the float64 range: each pair fails, and so does the Bonferroni cut
        X = construct(ar1_matrix(0.7, 5), sample_noise(5, 4000, seed=3))
        prep.write_text(_format_matrix_csv(X * float(case.rsplit("by ", 1)[1]),
                                           [f"X{i + 1}" for i in range(5)]))
    elif case == "ptc-test on an exact copy":
        X = construct(ar1_matrix(0.6, 5), sample_noise(5, 4000, seed=13))
        prep.write_text(_format_matrix_csv(with_copied_column(X, 2, jitter=0.0),
                                           [f"X{i + 1}" for i in range(6)]))
    elif case.endswith(tuple(_BAD_HEADERS)):
        X = construct(ar1_matrix(0.7, 4), sample_noise(4, 600, seed=1))
        prep.write_text(_format_matrix_csv(X, _BAD_HEADERS[case.split(" on ", 1)[1]]))
    elif case == "ptc-test on a two-column sample":
        X = construct(ar1_matrix(0.7, 2), sample_noise(2, 600, seed=1))
        prep.write_text(_format_matrix_csv(X, ["a", "b"]))
    amat = tmp_path / "a.csv"
    if case == "simulate --a-matrix with a nan cell":
        amat.write_text("a,b\n1,nan\n0,1\n")
    elif case == "simulate --a-matrix past the float64 range":
        amat.write_text("a,b\n1e308,1e308\n1e308,1e308\n")
    stats = tmp_path / "stats.csv"
    if case == "graph --stats on a non-square matrix":
        stats.write_text("a,b,c\n0,1,2\n1,0,3\n")
    elif case == "graph --stats on a matrix filled below the diagonal":
        stats.write_text("a,b,c\n0,nan,nan\n9,0,nan\n9,9,0\n")
    report = tmp_path / "r_report.json"
    if case == "malformed report":
        report.write_text("{bad")
    elif case == "report without critical value":
        report.write_text(json.dumps({"columns": ["a", "b", "c"], "pairs": []}))
    elif case in ("report with infinite critical value", "graph --critical fixed:inf"):
        report.write_text(json.dumps({"columns": ["a", "b", "c"], "pairs": [],
                                      "critical_value": float("inf"), "adjustment": "none",
                                      "alpha": 1e-300, "quantiles": {}}))
    elif case in ("graph --json into a missing directory", "graph --json onto a directory"):
        report.write_text(Path(DATA, "ar4_report.json").read_text())
    elif case.startswith("graph --report with"):
        payload = json.loads(Path(DATA, "near_copy_report.json").read_text())
        if case.endswith("a repeated pair"):  # and pair (0, 2) left out
            payload["pairs"][1] = payload["pairs"][0]
        elif case.endswith("swapped names"):
            payload["pairs"][0]["names"].reverse()
        elif case.endswith("a fractional pair index"):  # it read as pair 0
            payload["pairs"][0]["i"] = 0.7
        else:
            payload["pairs"][0]["reject"] = not payload["pairs"][0]["reject"]
        report.write_text(json.dumps(payload))
    if case == "graph --json onto a directory":
        (tmp_path / "adir").mkdir()
    return {
        "malformed sidecar": ["tpdm", "--input", prep, "--out-prefix", tmp_path / "t"],
        "non-positive cell": ["tpdm", "--input", prep, "--out-prefix", tmp_path / "t"],
        "nan cell": ["ptc-test", "--input", prep, "--out-prefix", tmp_path / "t"],
        "malformed report": ["graph", "--report", report, "--out", tmp_path / "g.dot"],
        "report without critical value": ["graph", "--report", report,
                                          "--out", tmp_path / "g.dot"],
        "simulate --n 0": ["simulate", "--n", 0, "--out", tmp_path / "s.csv"],
        "simulate --p 0": ["simulate", "--p", 0, "--out", tmp_path / "s.csv"],
        "coverage --n 0": ["coverage", "--n", 0, "--out", tmp_path / "c.json"],
        "graph --width-scale 0": ["graph", "--stats", NO2_FIXTURE, "--critical", "fixed:4.8",
                                  "--width-scale", 0, "--out", tmp_path / "g.dot"],
        "graph --width-scale inf": ["graph", "--stats", NO2_FIXTURE, "--critical", "fixed:4.8",
                                    "--width-scale", "inf", "--out", tmp_path / "g.dot"],
        "unknown method": ["ptc-test", "--input", prep, "--critical", "holm",
                           "--out-prefix", tmp_path / "t"],
        "every replication fails": ["coverage", "--n", 5, "--reps", 100, "--seed", 0,
                                    "--out", tmp_path / "c.json"],
        "simulate --seed -1": ["simulate", "--seed", -1, "--out", tmp_path / "s.csv"],
        "coverage --seed -5": ["coverage", "--seed", -5, "--out", tmp_path / "c.json"],
        "ptc-test --critical fixed:nan": ["ptc-test", "--input", prep, "--critical", "fixed:nan",
                                          "--out-prefix", tmp_path / "t"],
        "ptc-test --critical fixed:-1": ["ptc-test", "--input", prep, "--critical", "fixed:-1",
                                         "--out-prefix", tmp_path / "t"],
        "graph --critical fixed:-1": ["graph", "--stats", NO2_FIXTURE, "--critical", "fixed:-1",
                                      "--out", tmp_path / "g.dot"],
        "graph --report with a repeated pair": ["graph", "--report", report,
                                                "--out", tmp_path / "g.dot"],
        "graph --report with a flipped reject flag": ["graph", "--report", report,
                                                      "--out", tmp_path / "g.dot"],
        "graph --report with swapped names": ["graph", "--report", report,
                                              "--out", tmp_path / "g.dot"],
        "graph --report with a fractional pair index": ["graph", "--report", report,
                                                        "--out", tmp_path / "g.dot"],
        **{f"ptc-test on {h}": ["ptc-test", "--input", prep, "--out-prefix", tmp_path / "t"]
           for h in _BAD_HEADERS},
        **{f"preprocess on {h}": ["preprocess", "--input", prep, "--output", tmp_path / "o.csv"]
           for h in _BAD_HEADERS},
        "graph --critical fixed:inf": ["graph", "--report", report, "--critical", "fixed:inf",
                                       "--out", tmp_path / "g.dot", "--json", tmp_path / "g.json"],
        "ptc-test --alpha 1e-300": ["ptc-test", "--input", prep, "--alpha", 1e-300,
                                    "--out-prefix", tmp_path / "t"],
        "ptc-test on an exact copy": ["ptc-test", "--input", prep, "--mode", "global",
                                      "--mass", "estimate", "--out-prefix", tmp_path / "t"],
        "ptc-test on a two-column sample": ["ptc-test", "--input", prep,
                                           "--out-prefix", tmp_path / "t"],
        "graph --stats on a non-square matrix": ["graph", "--stats", stats, "--critical",
                                                 "fixed:2", "--out", tmp_path / "g.dot"],
        "graph --stats on a matrix filled below the diagonal": [
            "graph", "--stats", stats, "--critical", "fixed:2", "--out", tmp_path / "g.dot"],
        "ptc-test on a sample scaled by 1e78": ["ptc-test", "--input", prep, "--mode", "global",
                                                "--mass", "estimate", "--out-prefix",
                                                tmp_path / "t"],
        "ptc-test on a sample scaled by 1e100": ["ptc-test", "--input", prep, "--mode", "global",
                                                 "--mass", "estimate", "--out-prefix",
                                                 tmp_path / "t"],
        "coverage --level 0.9999999999999999": ["coverage", "--n", 1000, "--reps", 100,
                                                "--seed", 1, "--radial-quantile", 0.9,
                                                "--level", "0.9999999999999999",
                                                "--out", tmp_path / "c.json"],
        "report with infinite critical value": ["graph", "--report", report,
                                                "--out", tmp_path / "g.dot",
                                                "--json", tmp_path / "g.json"],
        "graph --json into a missing directory": ["graph", "--report", report,
                                                  "--out", tmp_path / "g.dot",
                                                  "--json", tmp_path / "nodir" / "g.json"],
        "graph --json onto a directory": ["graph", "--report", report, "--out", tmp_path / "g.dot",
                                          "--json", tmp_path / "adir"],
        "simulate --n 10**30": ["simulate", "--n", 10 ** 30, "--out", tmp_path / "s.csv"],
        "simulate --p 10**30": ["simulate", "--p", 10 ** 30, "--n", 5, "--out", tmp_path / "s.csv"],
        "simulate --p 3000000000": ["simulate", "--p", 3_000_000_000, "--out", tmp_path / "s.csv"],
        "coverage --n 10**30": ["coverage", "--n", 10 ** 30, "--out", tmp_path / "c.json"],
        "size-power --n 10**30": ["size-power", "--n", 10 ** 30, "--out", tmp_path / "s.json"],
        "size-power --p 2": ["size-power", "--p", 2, "--seed", 0, "--out", tmp_path / "s.json"],
        "size-power --reps 0": ["size-power", "--reps", 0, "--out", tmp_path / "s.json"],
        "simulate --phi 1.5": ["simulate", "--phi", 1.5, "--out", tmp_path / "s.csv"],
        "simulate --phi nan": ["simulate", "--phi", "nan", "--out", tmp_path / "s.csv"],
        "simulate --a-matrix --phi 1.5": ["simulate", "--a-matrix", NO2_FIXTURE, "--phi", 1.5,
                                          "--out", tmp_path / "s.csv"],
        "simulate --a-matrix with a nan cell": ["simulate", "--a-matrix", amat, "--n", 100,
                                                "--seed", 1, "--out", tmp_path / "s.csv"],
        "simulate --a-matrix past the float64 range": ["simulate", "--a-matrix", amat, "--n", 100,
                                                       "--seed", 1, "--out", tmp_path / "s.csv"],
        "coverage --phi 0": ["coverage", "--phi", 0, "--out", tmp_path / "c.json"],
        "size-power --phi -2": ["size-power", "--phi", -2, "--out", tmp_path / "s.json"],
        "coverage --reps 10": ["coverage", "--reps", 10, "--out", tmp_path / "c.json"],
        "coverage --reps 0": ["coverage", "--reps", 0, "--out", tmp_path / "c.json"],
        "coverage --reps 10**400": ["coverage", "--reps", 10 ** 400, "--out", tmp_path / "c.json"],
        "size-power --reps 10**400": ["size-power", "--reps", 10 ** 400,
                                      "--out", tmp_path / "s.json"],
        "simulate --seed 10**400": ["simulate", "--seed", 10 ** 400, "--out", tmp_path / "s.csv"],
        "size-power every replication fails": ["size-power", "--n", 20, "--reps", 3, "--seed", 0,
                                               "--out", tmp_path / "s.json"],
        "size-power --alpha 1e-300": ["size-power", "--alpha", 1e-300, "--seed", 0,
                                      "--out", tmp_path / "s.json"],
    }[case]


_BAD_HEADERS = {  # each gave wrong output files at exit 0 before names were checked
    "header a,a,b,c": ["a", "a", "b", "c"],
    "header ' a,a ,b,c'": [" a", "a ", "b", "c"],  # the reader strips names
    "a blank column name": ["a", " ", "b", "c"],
}

FAILURE_TABLE = [
    # (case, exit code); the sidecar is not read, so a malformed one is harmless
    ("malformed sidecar", 0),
    ("malformed report", 3),
    ("report without critical value", 3),
    ("non-positive cell", 3),
    ("nan cell", 3),
    ("simulate --n 0", 2),
    ("simulate --p 0", 2),
    ("coverage --n 0", 2),
    ("graph --width-scale 0", 2),
    ("graph --width-scale inf", 2),  # every edge would be drawn with penwidth=inf
    ("unknown method", 2),
    ("every replication fails", 4),
    ("simulate --seed -1", 2),
    ("coverage --seed -5", 2),
    ("ptc-test --critical fixed:nan", 2),
    ("graph --critical fixed:inf", 2),
    ("ptc-test --alpha 1e-300", 4),  # the Bonferroni t quantile is infinite
    ("ptc-test on an exact copy", 4),  # every pair fails: no Bonferroni critical value
    ("ptc-test on a sample scaled by 1e78", 4),  # every tau2 overflows
    ("ptc-test on a sample scaled by 1e100", 4),  # every det(Theta_TT) underflows
    ("coverage --level 0.9999999999999999", 4),  # (1 + level) / 2 rounds to 1
    ("report with infinite critical value", 3),
    ("graph --json into a missing directory", 3),  # the DOT file is not written either
    ("graph --json onto a directory", 3),
    # a float64 sample (n x p) or coefficient matrix (p x p) larger than any array
    ("simulate --n 10**30", 2),
    ("simulate --p 10**30", 2),
    ("simulate --p 3000000000", 2),
    ("coverage --n 10**30", 2),
    ("size-power --n 10**30", 2),
    ("size-power --p 2", 2),  # no pair has a conditioning variable
    # model arguments are checked by the parser, before a seed is drawn
    ("simulate --phi 1.5", 2),
    ("simulate --phi nan", 2),
    ("simulate --a-matrix --phi 1.5", 2),
    ("coverage --phi 0", 2),
    ("size-power --phi -2", 2),
    ("coverage --reps 10", 2),
    ("coverage --reps 0", 2),
    ("size-power --reps 0", 2),
    # counts and seeds past the float64 range, where the library reads no scalar
    ("coverage --reps 10**400", 2),
    ("size-power --reps 10**400", 2),
    ("simulate --seed 10**400", 2),
    ("size-power every replication fails", 4),
    ("size-power --alpha 1e-300", 4),  # as for ptc-test, found before the first sample
    # the coefficient matrix is checked on entry, and its product for overflow, with no warning
    ("simulate --a-matrix with a nan cell", 3),
    ("simulate --a-matrix past the float64 range", 4),
    # the input's shape is at fault, not a computation
    ("ptc-test on a two-column sample", 3),  # no pair has a conditioning variable
    ("graph --stats on a non-square matrix", 3),
    ("graph --stats on a matrix filled below the diagonal", 3),  # it read as no edges
    *((f"{cmd} on {h}", 3) for h in _BAD_HEADERS for cmd in ("ptc-test", "preprocess")),
    ("ptc-test --critical fixed:-1", 2),  # every pair would be rejected
    ("graph --critical fixed:-1", 2),
    # the report reader keeps the writer's rules
    ("graph --report with a repeated pair", 3),
    ("graph --report with a flipped reject flag", 3),
    ("graph --report with swapped names", 3),  # the names were written back out as given
    ("graph --report with a fractional pair index", 3),
]


@pytest.mark.parametrize("case, code", FAILURE_TABLE, ids=[c for c, _ in FAILURE_TABLE])
def test_failure_table(tmp_path, case, code):
    """Bad input exits 2/3/4 with one stderr line, no traceback and no output file."""
    argv = _write_inputs(tmp_path, case)
    before = set(tmp_path.iterdir())
    got, err, out = run_process(*argv)
    assert got == code, err
    assert "Traceback" not in err
    assert "seed:" not in out  # usage errors stop before a seed is drawn
    if code == 0:
        assert err == ""
        return
    assert len(err.splitlines()) == 1 and "error:" in err
    assert set(tmp_path.iterdir()) == before


# A value each numeric flag refuses, and the library rule for the same argument:
# the one the library applies to it, with the flag's own minimum for a count.
REFUSED = {
    **{(cmd, "--phi"): ("1.5", lambda: check_unit_interval(phi=1.5))
       for cmd in ("simulate", "coverage", "size-power")},
    ("simulate", "--n"): ("0", lambda: check_integer(1, n=0)),
    ("simulate", "--seed"): ("-1", lambda: check_integer(0, seed=-1)),
    ("simulate", "--p"): ("0", lambda: check_integer(1, p=0)),
    ("tpdm", "--radial-quantile"): ("0", lambda: check_unit_interval(q_radial=0.0)),
    ("ptc-test", "--radial-quantile"): ("1", lambda: check_unit_interval(q_radial=1.0)),
    ("ptc-test", "--pred-quantile"): ("nan", lambda: check_unit_interval(q_pred=np.nan)),
    ("ptc-test", "--alpha"): ("-0.5", lambda: check_unit_interval(alpha=-0.5)),
    ("ptc-test", "--res-quantile"): ("2", lambda: check_unit_interval(q_res=2.0)),
    ("ptc-test", "--critical"): ("fixed:-1", lambda: fixed_critical_value("fixed:-1")),
    ("coverage", "--n"): (str(10 ** 400), lambda: check_integer(1, n=10 ** 400)),
    ("coverage", "--seed"): ("-5", lambda: check_integer(0, seed=-5)),
    ("coverage", "--reps"): ("99", lambda: check_integer(100, reps=99)),
    ("coverage", "--radial-quantile"): ("inf", lambda: check_unit_interval(q_radial=np.inf)),
    ("coverage", "--level"): ("1", lambda: check_unit_interval(level=1.0)),
    ("size-power", "--n"): ("0", lambda: check_integer(1, n=0)),
    ("size-power", "--seed"): (str(10 ** 400), lambda: check_integer(0, seed=10 ** 400)),
    ("size-power", "--pred-quantile"): ("1e-400", lambda: check_unit_interval(q_pred=0.0)),
    ("size-power", "--alpha"): ("1", lambda: check_unit_interval(alpha=1.0)),
    ("size-power", "--critical"): ("fixed:nan", lambda: fixed_critical_value("fixed:nan")),
    ("size-power", "--p"): ("2", lambda: check_integer(3, p=2)),
    ("size-power", "--reps"): ("0", lambda: check_integer(1, reps=0)),
    ("size-power", "--radial-quantile"): ("1.5", lambda: check_unit_interval(q_radial=1.5)),
    ("graph", "--critical"): ("fixed:inf", lambda: fixed_critical_value("fixed:inf")),
    ("graph", "--width-scale"): ("0", lambda: check_positive(0.0, "width_scale")),
}


def _numeric_flags():
    """``(command, flag)`` of every option the parser converts, but ``--mass``,
    which takes a name."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0]) for command, parser in sub.choices.items()
            for action in parser._actions if action.type not in (None, cli._mass_arg)]


_FLAGS = _numeric_flags()


@pytest.mark.parametrize("command, flag", _FLAGS, ids=[" ".join(f) for f in _FLAGS])
def test_every_flag_reads_as_in_the_library(capsys, command, flag):
    """A refused value exits 2 with one stderr line that ends in the message of
    the library's own rule for that value: the parser keeps no copy of a rule."""
    text, rule = REFUSED[command, flag]
    with pytest.raises(DomainError) as lib:
        rule()
    with pytest.raises(SystemExit) as exit_info:
        run(command, flag, text)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith(f"argument {flag}: {lib.value}")


class TestCsvCodec:
    """The numpy fast path of ``read_csv_matrix`` against the checked parser."""

    @staticmethod
    def outcome(reader, path):
        try:
            columns, data = reader(str(path))
        except Exception as exc:  # the error type and message must match too
            return type(exc), str(exc)
        return columns, data.shape, data.tobytes()

    @pytest.mark.parametrize("text", [
        "a,b\n1.5,2\n3,4e-3\n",
        "a,b\r\n1.5,2\r\n3,4e-3\r\n",
        "a,b\n\n1.5,2\n\n3,4e-3",
        "x\n1\n2\n",
        '"x,y",z\n-1,nan\n',
    ])
    def test_clean_file_skips_checked_parser(self, tmp_path, monkeypatch, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        want = self.outcome(_read_csv_checked, path)

        def fail(path):
            raise AssertionError("fast path fell back")

        monkeypatch.setattr(cli, "_read_csv_checked", fail)
        assert self.outcome(read_csv_matrix, path) == want

    def test_checked_parser_reads_each_cell_once(self, tmp_path, monkeypatch):
        """The checked parser calls ``float`` once per cell up to the first it
        refuses, and names that cell: here the second of its row."""
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b\n1,2\n3,x\n4,5\n")
        cells = []
        monkeypatch.setattr(cli, "float", lambda c: cells.append(c) or float(c), raising=False)
        with pytest.raises(DataError, match=r"m\.csv:3: non-numeric cell 'x'$"):
            _read_csv_checked(str(path))
        assert cells == ["1", "2", "3", "x"]

    def test_format_matches_float_repr(self):
        M = np.array([[0.1, -0.0, 5e-324], [np.nan, -np.inf, 1e300]])
        want = "a,b,c\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in M)
        assert _format_matrix_csv(M, ["a", "b", "c"]) == want
        assert _format_matrix_csv(np.array([[1, 2]]), ["a", "b"]) == "a,b\n1.0,2.0\n"


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "+1.5", "1e5", " 2.5 ", "-0.0",
                     ".5", "1.", "1e500", "4.9e-324"]),
)
_ODD_CELLS = st.sampled_from(["", "  ", "1_000", "\u0661\u0662", "#1", "# 2", "1#2",
                              '"1.5"', '"1,5"', "abc", "0x10", "1d3", "\t3", "1 2"])
_HEADER_CELLS = st.sampled_from(["a", " b ", "X1", '"x,y"', '"q"'])


@st.composite
def _csv_files(draw):
    """CSV text built from a cell vocabulary: mostly well-formed, sometimes not."""
    kind = draw(st.sampled_from(["rows", "rows", "rows", "header only", "empty"]))
    if kind == "empty":
        return ""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    p = draw(st.integers(1, 4))
    header = ",".join(draw(st.lists(_HEADER_CELLS, min_size=p, max_size=p)))
    if kind == "header only":
        return header + draw(st.sampled_from(["", eol]))
    good_row = st.lists(_GOOD_CELLS, min_size=p, max_size=p).map(",".join)
    odd_row = st.one_of(
        st.lists(st.one_of(_GOOD_CELLS, _ODD_CELLS), min_size=p, max_size=p).map(",".join),
        st.lists(_GOOD_CELLS, min_size=max(p - 1, 1), max_size=p + 1).map(",".join),
        st.sampled_from(["", "   ", ", ,", "\t"]),
    )
    rows = draw(st.lists(st.one_of(good_row, good_row, good_row, odd_row), max_size=8))
    return eol.join([header, *rows]) + draw(st.sampled_from(["", eol]))


@settings(max_examples=300)
@given(text=_csv_files())
@example(text="")
@example(text="a,b\n")
@example(text='"x,y",z\r\n1,2\r\n\r\n3,4\r\n')
@example(text="a,b\n1,#2\n")
@example(text="a,b\n#1,2\n3,4\n")
@example(text="a\n3\n1#2\n")
@example(text="a,b\n1_000,2\n")
@example(text="a,b\n\u0661,2\n")
@example(text='a,b\n"1",2\n')
@example(text="a,b\n1,2\n3\n")
@example(text="a,b\n1,2\n , \n")
@example(text="a\n  \n1\n")
def test_read_csv_matrix_matches_checked_parser(tmp_path_factory, text):
    """Same columns and bits as the checked parser, or the same error."""
    path = tmp_path_factory.getbasetemp() / "codec.csv"
    path.write_bytes(text.encode())
    assert (TestCsvCodec.outcome(read_csv_matrix, path)
            == TestCsvCodec.outcome(_read_csv_checked, path))


def _format_by_rows(matrix, columns):
    """The row-by-row formatter, kept as the reference for both branches."""
    rows = [",".join(columns)]
    rows.extend(",".join(map(repr, row)) for row in np.asarray(matrix, dtype=float).tolist())
    return "\n".join(rows) + "\n"


_NAN_PAYLOAD = np.array([0x7FF8000000000001, -0x0008000000000001], dtype=np.int64).view(float)
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e308, 8.98846567431158e307,
                   float("nan"), float("inf"), -float("inf"), *_NAN_PAYLOAD.tolist(), 0.1, 1.0]


@st.composite
def _matrices(draw):
    """Matrices whose cells repeat (the gather branch) or are all distinct (row by row)."""
    n, p = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
    if draw(st.booleans()):
        pool = draw(st.lists(floats, min_size=1, max_size=max(1, n * p // 2)))
        cells = draw(st.lists(st.sampled_from(pool), min_size=n * p, max_size=n * p))
    else:
        cells = draw(st.lists(st.floats(allow_nan=False), min_size=n * p, max_size=n * p,
                              unique_by=lambda v: np.float64(v).view(np.int64).item()))
    return np.array(cells, dtype=float).reshape(n, p)


@settings(max_examples=300)
@given(matrix=_matrices())
@example(matrix=np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(matrix=np.array([[5e-324, -5e-324, 1.7976931348623157e308],
                          [1.7976931348623157e308, 5e-324, -5e-324]]))
@example(matrix=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
@example(matrix=_NAN_PAYLOAD.reshape(1, 2).repeat(3, axis=0))
@example(matrix=np.empty((0, 3)))
def test_format_matrix_csv_matches_rows(matrix):
    """Byte for byte the row-by-row text, whichever branch formats the cells."""
    columns = [f"X{i + 1}" for i in range(matrix.shape[1])]
    assert _format_matrix_csv(matrix, columns) == _format_by_rows(matrix, columns)


@pytest.mark.parametrize("kind, gathered", [("simulated", False), ("preprocessed", True)])
def test_format_branch_follows_the_share_of_distinct_cells(monkeypatch, kind, gathered):
    """Every cell of a simulated sample is distinct: it goes row by row, and no
    ``unique`` runs over the whole matrix.  A rank-transformed sample holds a
    tenth as many distinct values as cells: it is gathered."""
    X = construct(ar1_matrix(0.7, 10), sample_noise(10, 4000, seed=3))
    if kind == "preprocessed":
        X = marginal_transform(X).data
    unique_sizes, real = [], np.unique
    monkeypatch.setattr(cli.np, "unique",
                        lambda a, **kwargs: unique_sizes.append(a.size) or real(a, **kwargs))
    columns = [f"X{i + 1}" for i in range(10)]
    assert _format_matrix_csv(X, columns) == _format_by_rows(X, columns)
    assert unique_sizes == ([X.size] if gathered else [])


@pytest.mark.parametrize("enabled", [True, False])
def test_format_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    """The collector is off while the cells are formatted, the text is the
    row-by-row text, and the earlier state is back afterwards, also after an
    exception."""
    X = construct(ar1_matrix(0.7, 3), sample_noise(3, 500, seed=2))
    columns = ["a", "b", "c"]
    seen, real = [], cli._csv_line
    monkeypatch.setattr(cli, "_csv_line", lambda cells: seen.append(gc.isenabled()) or real(cells))
    before = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert _format_matrix_csv(X, columns) == _format_by_rows(X, columns)
        assert seen == [False] and gc.isenabled() is enabled

        def fail(cells):
            raise OSError("boom")

        monkeypatch.setattr(cli, "_csv_line", fail)
        with pytest.raises(OSError, match="boom"):
            _format_matrix_csv(X, columns)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_import_budget(tmp_path):
    """Each command in a fresh interpreter loads no scipy module and not
    ``statistics``: ``import tailgraph`` and every command, tpdm, ptc-test,
    coverage and size-power included (delta is a literal; factorisations run
    on numpy and the t quantile on ``math``).  No module of the package
    imports scipy.  Past ``cli`` and what it imports, a command loads only the
    package modules it uses."""
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, names)
    base = str(tmp_path) + os.sep
    assert run("simulate", "--p", 3, "--n", 2000, "--seed", 1, "--out", base + "s.csv") == 0
    assert run("preprocess", "--input", base + "s.csv", "--output", base + "p.csv") == 0
    assert run("ptc-test", "--input", base + "p.csv", "--out-prefix", base + "r") == 0
    script = """
import json, sys
import tailgraph
if sys.argv[1:]:
    assert tailgraph.cli.main(sys.argv[1:]) == 0
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "statistics": "statistics" in sys.modules,
                  "package": sorted(m for m in sys.modules if m.startswith("tailgraph.")),
                  "delta": repr(tailgraph.tpdm.solve_delta())}))
"""
    commands = [
        [],
        ["simulate", "--p", "3", "--n", "2000", "--seed", "1", "--out", base + "s2.csv"],
        ["preprocess", "--input", base + "s.csv", "--output", base + "p2.csv"],
        ["tpdm", "--input", base + "p.csv", "--out-prefix", base + "t"],
        ["ptc-test", "--input", base + "p.csv", "--out-prefix", base + "r2"],
        ["coverage", "--n", "1000", "--reps", "100", "--seed", "1", "--radial-quantile", "0.9",
         "--out", base + "c.json"],
        ["size-power", "--n", "1000", "--reps", "2", "--seed", "1", "--radial-quantile", "0.9",
         "--pred-quantile", "0.9", "--out", base + "sp.json"],
        ["graph", "--report", base + "r_report.json", "--out", base + "g1.dot"],
        ["graph", "--report", base + "r_report.json", "--critical", "fixed:2",
         "--out", base + "g2.dot"],
        ["graph", "--stats", NO2_FIXTURE, "--critical", "fixed:2", "--out", base + "g3.dot"],
    ]
    for argv in commands:
        code, err, stdout = run_process(*argv, python_args=("-c", script))
        assert code == 0, err
        got = json.loads(stdout.splitlines()[-1])
        assert got["delta"] == "0.9352083872762512"
        assert got["scipy"] == [], argv
        assert not got["statistics"], argv
        loaded = {m.split(".")[1] for m in got["package"]} - {"cli", "errors", "report", "tpdm"}
        assert sorted(loaded) == _LOADED[argv[0] if argv else None], argv


_RUNNER = ["graphx", "inference", "project", "rvsim", "xlinear"]
_LOADED = {None: [], "simulate": ["rvsim", "xlinear"], "preprocess": [],
           "tpdm": ["project", "xlinear"], "ptc-test": _RUNNER,
           "coverage": _RUNNER[1:], "size-power": _RUNNER[1:], "graph": ["graphx"]}


# CLI fuzz: argument vectors drawn from a vocabulary of valid, boundary and
# malformed values, run in process on a small sample and the report it gives.
_VALUES = ["0", "-1", "1", "2", str(2 ** 63), "9" * 30, "nan", "inf", "-inf", "1e-300",
           "1e400", "1.5", "-0.2", "0.5", "0.9", "0.999999", "abc", "", "0x10"]
_SIZES = ["0", "-1", "1", "2", "3", "5", "60", "nan", "1e3", "abc",  # --n, always given, and --p
          str(2 ** 63), "9" * 30]  # no array is that large: usage errors, nothing allocated
_STUDY_SIZES = ["0", "-1", "1", "20", "900", "abc", str(2 ** 63), "9" * 30]  # size-power --n
_REPS = ["0", "-1", "1", "2", "abc"]
_CRITICALS = ["bonferroni", "none", "holm", "fixed:", "fixed:2.5", "fixed:-3", "fixed:0",
              "fixed:nan", "fixed:inf", "fixed:-inf", "fixed:1e400", "fixed:abc"]
_INPUTS = ["@sim", "@prep", "@report", "@stats", "@amat", "@missing", "@empty", "@header",
           "@binary", "@dir", "@constant", "@negative", "@inf-report", "@sim1e100", "@sim1e-160"]


def _opt(flag, values, required=False):
    """``[flag, value]``, or sometimes nothing (always the pair when required)."""
    pair = st.sampled_from(values).map(lambda v: [flag, v])
    return pair if required else st.one_of(st.just([]), pair)


def _with(values, *valid):
    return [*valid, *valid, *values]  # the valid values twice as often


def _outs(name):
    """Output paths: valid, in a missing directory, an existing directory, empty."""
    return _with(["@out/nodir/" + name, "@out/isdir", ""], "@out/" + name)


_COMMANDS = {
    "simulate": [
        _opt("--phi", _with(_VALUES, "0.7")), _opt("--p", _SIZES),
        _opt("--n", _SIZES, required=True),
        _opt("--seed", _with(_VALUES, "3")), _opt("--noise", ["shifted-pareto", "frechet", "x"]),
        _opt("--a-matrix", _INPUTS), _opt("--out", _outs("s.csv"), required=True)],
    "preprocess": [
        _opt("--input", _INPUTS, required=True), _opt("--output", _outs("p.csv"), required=True)],
    "tpdm": [
        _opt("--input", _INPUTS, required=True), _opt("--radial-quantile", _with(_VALUES, "0.9")),
        _opt("--mode", ["pairwise", "global", "x"]), _opt("--mass", ["fixed2", "estimate", "x"]),
        _opt("--out-prefix", _outs("t"), required=True)],
    "ptc-test": [
        _opt("--input", _INPUTS, required=True), _opt("--radial-quantile", _with(_VALUES, "0.9")),
        _opt("--pred-quantile", _with(_VALUES, "0.95")),
        _opt("--res-quantile", _with(_VALUES, "0.95")), _opt("--alpha", _with(_VALUES, "0.05")),
        _opt("--critical", _CRITICALS), _opt("--mode", ["pairwise", "global"]),
        _opt("--mass", ["fixed2", "estimate"]), _opt("--out-prefix", _outs("r"), required=True)],
    "coverage": [
        _opt("--phi", _with(_VALUES, "0.7")), _opt("--n", _STUDY_SIZES, required=True),
        _opt("--reps", _with(_REPS, "100"), required=True),
        _opt("--radial-quantile", _with(_VALUES, "0.9")), _opt("--level", _with(_VALUES, "0.95")),
        _opt("--seed", _with(_VALUES, "3")), _opt("--out", _outs("c.json"), required=True)],
    "size-power": [
        _opt("--phi", _with(_VALUES, "0.7")), _opt("--p", _SIZES),
        _opt("--n", _STUDY_SIZES, required=True), _opt("--reps", _REPS, required=True),
        _opt("--radial-quantile", _with(_VALUES, "0.9")),
        _opt("--pred-quantile", _with(_VALUES, "0.9")), _opt("--alpha", _with(_VALUES, "0.05")),
        _opt("--critical", _CRITICALS), _opt("--seed", _with(_VALUES, "3")),
        _opt("--out", _outs("sp.json"), required=True)],
    "graph": [
        _opt("--report", _INPUTS), _opt("--stats", _INPUTS), _opt("--critical", _CRITICALS),
        _opt("--width-scale", _with(_VALUES, "4")), _opt("--out", _outs("g.dot"), required=True),
        _opt("--json", _outs("g.json"))],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for option in _COMMANDS[command]:
        argv += draw(option)
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Name -> path of every input the fuzz draws: a valid sample (n=800, p=4),
    the sample times 1e100 and 1e-160, its preprocessed form and test report,
    and missing or wrong files."""
    d = tmp_path_factory.mktemp("fuzz-inputs")
    X = construct(ar1_matrix(0.7, 4), sample_noise(4, 800, seed=2))
    names = ["X1", "X2", "X3", "X4"]
    paths = {name: d / f"{name}.csv" for name in ("sim", "amat", "empty", "header", "binary",
                                                  "constant", "negative")}
    paths["sim"].write_text(_format_matrix_csv(X, names))
    for scale in ("1e100", "1e-160"):
        paths["sim" + scale] = d / f"sim{scale}.csv"
        paths["sim" + scale].write_text(_format_matrix_csv(X * float(scale), names))
    paths["amat"].write_text("c1,c2\n1.0,0.0\n0.5,1.0\n-1,0.3\n")
    paths["empty"].write_text("")
    paths["header"].write_text("a,b\n")
    paths["binary"].write_bytes(b"a,b\n\xff\xfe,1\n")
    paths["constant"].write_text("a,b\n1,2\n1,3\n1,4\n")
    X[5, 2] = -1.0
    paths["negative"].write_text(_format_matrix_csv(X, names))
    paths.update(prep=d / "prep.csv", report=d / "r_report.json", stats=NO2_FIXTURE,
                 missing=d / "absent.csv", dir=d, **{"inf-report": d / "inf.json"})
    assert run("preprocess", "--input", paths["sim"], "--output", paths["prep"]) == 0
    assert run("ptc-test", "--input", paths["prep"], "--out-prefix", d / "r") == 0
    report = json.loads(paths["report"].read_text())
    paths["inf-report"].write_text(json.dumps(dict(report, critical_value=float("inf"))))
    return paths


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _coverage_stub(phi, n, reps, q_radial, level, seed):
    """Stands in for ``inference.coverage_study`` in the fuzz: the study's own
    argument check, then a result at once instead of 100+ replications."""
    assert reps >= 100 and 0.0 < q_radial < 1.0 and 0.0 < level < 1.0 and seed >= 0
    ar1_matrix(phi, 4)  # phi outside (0, 1) is the study's DomainError
    return CoverageResult(coverage=0.95, level=level, reps=reps, n=n, phi=phi, true_value=0.0,
                          covered=np.ones(reps, dtype=bool), partition_estimates=np.zeros(reps),
                          residual_estimates=np.zeros(reps), k_values=np.full(reps, 20),
                          t_values=np.zeros(reps))


@settings(max_examples=400)
@given(argv=_argv())
@example(argv=["simulate", "--n", "5", "--seed", "-1", "--out", "@out/s.csv"])
@example(argv=["ptc-test", "--input", "@prep", "--critical", "fixed:nan",
               "--out-prefix", "@out/r"])
@example(argv=["ptc-test", "--input", "@prep", "--alpha", "1e-300", "--out-prefix", "@out/r"])
@example(argv=["graph", "--report", "@report", "--critical", "fixed:inf", "--out", "@out/g.dot",
               "--json", "@out/g.json"])
@example(argv=["tpdm", "--input", "@binary", "--out-prefix", "@out/t"])
@example(argv=["ptc-test", "--input", "@sim1e100", "--mode", "global", "--mass", "estimate",
               "--out-prefix", "@out/r"])
@example(argv=["ptc-test", "--input", "@sim1e-160", "--mode", "global", "--mass", "estimate",
               "--out-prefix", "@out/r"])
@example(argv=["coverage", "--n", "900", "--reps", "100", "--seed", "3", "--out", "@out/c.json"])
@example(argv=["coverage", "--n", "900", "--reps", "2", "--out", "@out/c.json"])
@example(argv=["coverage", "--n", "900", "--reps", "100", "--out", "@out/nodir/c.json"])
@example(argv=["simulate", "--n", "5", "--out", ""])
@example(argv=["preprocess", "--input", "@sim", "--output", "@out/isdir"])
@example(argv=["ptc-test", "--input", "@prep", "--out-prefix", "@out/nodir/r"])
@example(argv=["graph", "--report", "@report", "--out", "@out/g.dot", "--json", "@out/isdir"])
def test_cli_fuzz(fuzz_inputs, tmp_path_factory, argv):
    """Exit 0/2/3/4, never another exception; a failure prints one stderr line
    and writes nothing (but tpdm's TPDM on an inversion failure), and a failed
    file operation exits 3; no temp file is left behind; every JSON file
    written parses without NaN or Infinity."""
    out_dir = tmp_path_factory.mktemp("fuzz-out")
    (out_dir / "isdir").mkdir()
    resolved = [str(fuzz_inputs[a[1:]]) if a in _INPUTS
                else str(out_dir / a[5:]) if a.startswith("@out/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out_dir)  # where an empty --out-prefix writes
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.object(inference, "coverage_study", _coverage_stub):
            try:
                code = main(resolved)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    written = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
    assert code in (0, 2, 3, 4), err
    if argv[0] == "coverage":  # the CLI checks every argument the study would reject
        assert code in (0, 2, 3), err
    assert not [p for d in (out_dir, out_dir / "isdir", out_dir.parent)
                for p in d.glob(".tailgraph-*")]
    if code == 0:
        for name in written:
            if name.endswith(".json"):
                json.loads((out_dir / name).read_text(), parse_constant=_no_constant)
        return
    assert len(err.splitlines()) == 1 and "error:" in err, err
    if "[Errno" in err:  # a path that cannot be read or written
        assert code == 3, err
    if argv[0] == "tpdm" and code == 4 and written:  # the TPDM is kept, the inverse is not
        assert [w.rsplit("_", 1)[1] for w in written] == ["tpdm.csv", "tpdm.json"], err
        assert "inverse_error" in json.loads((out_dir / written[1]).read_text())
    else:
        assert written == [], err


# CSV bodies for the commands that read a sample: the codec's drawn texts, or
# 120 valid rows (enough for tpdm and ptc-test at the 0.8 quantiles) with
# drawn rows spliced in; 400-digit numbers among the cells; sometimes a BOM.
_LONG_NUMBERS = st.sampled_from(["9" * 400, "-" + "9" * 400, "0." + "0" * 398 + "1",
                                 "1" + "0" * 399 + ".5"])


@st.composite
def _sample_files(draw):
    if draw(st.booleans()):
        text = draw(_csv_files())
    else:
        p = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        lines = [",".join(f"X{j + 1}" for j in range(p))]
        lines += [",".join(map(repr, row)) for row in (1.0 + rng.pareto(2.0, (120, p))).tolist()]
        cells = st.one_of(_GOOD_CELLS, _ODD_CELLS, _LONG_NUMBERS)
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.lists(cells, min_size=max(p - 1, 1), max_size=p + 1))
            lines.insert(draw(st.integers(1, len(lines))), ",".join(row))
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(lines) + eol
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=150)
@given(text=_sample_files())
@example(text="\ufeffa,b\n")
@example(text="\ufeffa,b\r\n1,2\r\n3,4\r\n")
@example(text='a,b,c\n"' + "1" * 200_000 + '",2,3\n')  # past the csv module's field limit
@example(text="a,b,c\n" + "9" * 400 + ",1,2\n")
def test_cli_fuzz_csv_bodies(tmp_path_factory, text):
    """preprocess, tpdm and ptc-test on a drawn CSV body: exit 0, 3 or 4, one
    stderr line on failure, no temp file left, and a BOM is not part of a name."""
    d = tmp_path_factory.mktemp("csv-body")
    src = d / "in.csv"
    src.write_bytes(text.encode())
    quantiles = ["--radial-quantile", "0.8"]
    for argv in (["preprocess", "--input", src, "--output", d / "p.csv"],
                 ["tpdm", "--input", src, *quantiles, "--out-prefix", d / "t"],
                 ["ptc-test", "--input", src, *quantiles, "--pred-quantile", "0.8",
                  "--res-quantile", "0.8", "--out-prefix", d / "r"]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run(*argv)
        err = stderr.getvalue()
        assert code in (0, 3, 4), (argv[0], err)
        assert code == 0 or (len(err.splitlines()) == 1 and "error:" in err), (argv[0], err)
        assert not list(d.glob(".tailgraph-*"))
    if (d / "p.csv").exists():
        assert "\ufeff" not in (d / "p.csv").read_text(encoding="utf-8").splitlines()[0]
