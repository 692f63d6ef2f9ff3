"""Command-line workflows: simulate, preprocess, tpdm, ptc-test, coverage, size-power, graph.

CSV files are UTF-8, with or without a byte order mark, and use a comma
separator, '.' decimal point and a mandatory header row.  All randomness
flows from --seed; without the flag a seed is drawn from entropy and
printed.  A command's output files are written as one set:
every text is rendered, then written to temp files that are renamed into
place only when all are written.  Exit codes: 0 success, 2 usage error (a
size no array can hold is one), 3 data error, 4 numerical error or failed
allocation.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import tpdm
from .errors import (DataError, DimensionError, DomainError, NumericalError, TailgraphError,
                     check_array_size, check_integer, check_positive, check_unit_interval)
from .report import _ADJUSTED, PtcTestReport, fixed_critical_value
from .tpdm import TailSample

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _atomic_write(path: str, text: str, staged: list):
    """Write ``text`` to a temp file beside ``path`` and record ``(tmp, path)`` in
    ``staged``; :func:`_write_outputs` renames the set into place."""
    # caught here, not by a rename after others were renamed
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tailgraph-")
    staged.append((tmp, path))
    with os.fdopen(fd, "w", newline="") as fh:
        fh.write(text)


def _write_outputs(*files):
    """Write every ``(path, text)`` of a command as one set.

    All texts are rendered before this is called.  Each goes to a temp file
    beside its path; the temps are renamed into place only once every one is
    written, and are removed on any failure.
    """
    staged = []
    try:
        for path, text in files:
            _atomic_write(path, text, staged)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _json_text(path: str, obj) -> str:
    """``obj`` as indented JSON for ``path``; NaN or Infinity in it is a NumericalError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from None


def _csv_line(cells) -> str:
    """One CSV record with the ``csv`` module's minimal quoting and a "\\n" end.

    The record is written with a "\\r\\n" terminator, so that a cell holding
    either character is quoted, and that terminator is then replaced.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _format_matrix_csv(matrix: np.ndarray, columns) -> str:
    """The header row and one ``repr`` per cell.

    Cells are keyed on their float64 bit pattern, so -0.0 and 0.0 stay apart.
    When at most half of them are distinct (a rank-transformed sample holds
    the same n values in every column), each distinct value is formatted once
    and the strings are gathered.  Otherwise they go row by row, which is
    faster when nearly every value is distinct, as in a simulated sample; on
    400k cells the two break even near 60 % distinct.  The share is estimated
    on a probe: the cells whose key hashes (Fibonacci hashing) into the lowest
    64th of the range.  Every copy of a value is in the probe or out of it, so
    the probe's share of distinct keys is the whole matrix's, up to sampling,
    at a 64th of the sort.  (numpy's ``unique`` hashes integer keys unless
    asked for the inverse, which is slower than this sort.)  Either path
    writes the same text.

    The cyclic garbage collector is paused meanwhile: the row lists and
    strings hold no cycles, yet their allocations keep triggering collections
    that traverse them, about a fifth of the time on a 40k x 10 sample.  Its
    earlier state is restored on the way out, an exception included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = np.ascontiguousarray(matrix, dtype=float)
        bits = m.view(np.uint64).ravel()
        probe = np.sort(bits[bits * np.uint64(0x9E3779B97F4A7C15) < np.uint64(1 << 58)])
        if 2 * (1 + np.count_nonzero(probe[1:] != probe[:-1])) <= probe.size:  # 2 * distinct
            keys, inverse = np.unique(bits, return_inverse=True)
            text = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
            rows = text[inverse.reshape(m.shape)].tolist()
        else:
            rows = (map(repr, row) for row in m.tolist())
        return _csv_line(columns) + "".join(",".join(row) + "\n" for row in rows)
    finally:
        if enabled:
            gc.enable()


def read_csv_matrix(path: str):
    """Read a numeric CSV with a header row; returns (columns, n x p array).

    The body goes through numpy's C parser.  A file that parser rejects (a
    blank-celled or ragged row, a quoted cell, a spelling only ``float``
    accepts such as ``1_000``) is read again by :func:`_read_csv_checked`,
    which defines the accepted dialect and names the bad line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
        if header is not None and body and not body.isspace():
            columns = [h.strip() for h in header]
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
            if data.shape[1] == len(columns):
                return columns, data
    except (ValueError, csv.Error):
        pass
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return _read_csv_checked(path)


def _read_csv_checked(path: str):
    """Row-by-row reader: skips blank rows, parses every cell once with ``float``
    and names the first cell it refuses."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            columns = [h.strip() for h in header]
            data = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(columns):
                    raise DataError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}")
                try:  # the walrus binds cell here: after a ValueError, the cell float refused
                    data.append([float(cell := c) for c in row])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from None
    except csv.Error as exc:  # a cell past the csv module's field size limit
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not data:
        raise DataError(f"{path}: no data rows")
    return columns, np.asarray(data, dtype=float)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    print(f"seed: {seed}")
    return seed


def _library_arg(convert, rule):
    """Argparse type: the text as ``convert`` reads it, passed to the library's
    ``rule`` for the same argument, whose :class:`DomainError` is the usage
    message verbatim.  Text ``convert`` refuses is argparse's "invalid <convert> value"."""
    def parse(text: str):
        value = convert(text)
        try:
            return rule(value)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = convert.__name__
    return parse


def _unit_arg(name: str):
    """phi, a quantile, alpha or level, named as the library names it."""
    return _library_arg(float, lambda v: check_unit_interval(**{name: v})[0])


def _integer_arg(name: str, minimum: int):
    """A size, a count or the seed, named as the library names it."""
    return _library_arg(int, lambda v: check_integer(minimum, **{name: v})[0])


def _mass_arg(value: str):
    if value == "fixed2":
        return "fixed"
    if value == "estimate":
        return "estimate"
    raise argparse.ArgumentTypeError("mass must be 'fixed2' or 'estimate'")


def _critical(value: str, named=_ADJUSTED):
    """A method in ``named`` as given; 'fixed:<c>' as the float c, read by the library."""
    if value in named:
        return value
    if not value.startswith("fixed:"):
        raise argparse.ArgumentTypeError(
            f"critical must be {' or '.join([*map(repr, named), repr('fixed:<c>')])}")
    return fixed_critical_value(value)


# Each handler imports the package modules past tpdm that it uses in its own
# body, so that a command loads only those (README, "Imports and start-up").
def cmd_simulate(args) -> int:
    from . import rvsim
    seed = _resolve_seed(args)
    if args.a_matrix:
        _, A = read_csv_matrix(args.a_matrix)
    else:
        A = rvsim.ar1_matrix(args.phi, args.p)
    Z = rvsim.sample_noise(A.shape[1], args.n, args.noise, seed)
    X = rvsim.construct(A, Z)
    columns = [f"X{i + 1}" for i in range(X.shape[1])]
    _write_outputs((args.out, _format_matrix_csv(X, columns)))
    print(f"wrote {args.n} x {X.shape[1]} sample to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    columns, raw = read_csv_matrix(args.input)
    sample = tpdm.marginal_transform(raw, columns=columns)
    delta = tpdm.solve_delta()
    sidecar = {
        "delta": delta,
        "margin": "shifted-pareto",
        "n": sample.n,
        "columns": sample.columns,
        "source": os.path.abspath(args.input),
    }
    _write_outputs((args.output, _format_matrix_csv(sample.data, sample.columns)),
                   (args.output + ".json", _json_text(args.output + ".json", sidecar)))
    print(f"wrote preprocessed sample to {args.output} (delta={delta:.6f})")
    return 0


def _load_sample(path: str) -> TailSample:
    # the preprocess sidecar is not read: no estimate depends on it
    columns, data = read_csv_matrix(path)
    return TailSample(data, columns=columns)


def cmd_tpdm(args) -> int:
    from . import project
    sample = _load_sample(args.input)
    sigma = tpdm.estimate_tpdm(sample, q_radial=args.radial_quantile,
                               mode=args.mode, mass=args.mass)
    prefix = args.out_prefix
    tpdm_csv = (prefix + "_tpdm.csv", _format_matrix_csv(sigma.entries, sample.columns))
    meta = {
        "columns": sample.columns,
        "mode": args.mode,
        "radial_quantile": args.radial_quantile,
        "k_used": None if sigma.k_used is None else np.asarray(sigma.k_used).tolist(),
        "entries": sigma.entries.tolist(),
    }
    try:
        inverse = project.invert_ipm(sigma)
    except NumericalError as exc:  # the TPDM and its JSON are still written
        meta.update(condition_number=None, inverse_error=str(exc))
        _write_outputs(tpdm_csv, (prefix + "_tpdm.json", _json_text(prefix + "_tpdm.json", meta)))
        raise
    meta.update(condition_number=float(np.linalg.cond(sigma.entries)),
                inverse=inverse.entries.tolist())
    _write_outputs(tpdm_csv,
                   (prefix + "_inverse.csv", _format_matrix_csv(inverse.entries, sample.columns)),
                   (prefix + "_tpdm.json", _json_text(prefix + "_tpdm.json", meta)))
    print(f"wrote TPDM and inverse with prefix {prefix}")
    return 0


def cmd_ptc_test(args) -> int:
    from . import graphx, inference
    sample = _load_sample(args.input)
    report = inference.ptc_test_all_pairs(
        sample, q_radial=args.radial_quantile, q_pred=args.pred_quantile,
        q_res=args.res_quantile, cv_method=args.critical, alpha=args.alpha,
        tpdm_mode=args.mode, tpdm_mass=args.mass)
    prefix = args.out_prefix
    rows = [report.csv_header, *report.to_csv_rows()]
    graph = graphx.build_graph(report)
    _write_outputs((prefix + "_report.json", _json_text(prefix + "_report.json", report.to_dict())),
                   (prefix + "_report.csv", "".join(map(_csv_line, rows))),
                   (prefix + "_graph.dot", graphx.emit_dot(graph)))
    n_err = sum(1 for r in report.records if r.error)
    print(f"tested {len(report.records)} pairs: {report.n_rejected()} rejected, "
          f"{n_err} errored (critical value {report.critical_value:.4f})")
    return 0


def cmd_coverage(args) -> int:
    from . import inference
    seed = _resolve_seed(args)
    result = inference.coverage_study(
        phi=args.phi, n=args.n, reps=args.reps, q_radial=args.radial_quantile,
        level=args.level, seed=seed)
    _write_outputs((args.out, _json_text(args.out, result.to_dict())))
    print(f"coverage {result.coverage:.4f} at level {args.level} "
          f"({result.reps} replications, {result.failed} failed) -> {args.out}")
    return 0


def cmd_size_power(args) -> int:
    from . import inference
    rejections, errors, failures = inference.size_power_study(
        phi=args.phi, n=args.n, reps=args.reps, p=args.p, q_radial=args.radial_quantile,
        q_pred=args.pred_quantile, cv_method=args.critical, alpha=args.alpha, seed=_resolve_seed(args))
    failed = sum(failures.values())
    _write_outputs((args.out, _json_text(args.out, {  # pairs 1-based, rates over the reps that ran
        "phi": args.phi, "p": args.p, "n": args.n, "seeds": args.reps, "alpha": args.alpha,
        "critical": args.critical,
        "rejection_rates": {f"{i + 1}-{j + 1}": c / (args.reps - failed)
                            for (i, j), c in rejections.items()},
        "error_counts": {f"{i + 1}-{j + 1}": c for (i, j), c in errors.items()},
        "failed": failed, "failures": failures})))
    print(f"size and power over {args.reps} replications ({failed} failed) -> {args.out}")
    return 0


def cmd_graph(args) -> int:
    from . import graphx
    if args.report is not None:
        try:
            with open(args.report) as fh:
                report = PtcTestReport.from_dict(json.load(fh))
        except ValueError as exc:  # bad JSON, or a malformed report (a DataError)
            raise DataError(f"{args.report}: {exc}") from None
        if args.critical is not None:
            report.critical_value = args.critical
        graph = graphx.build_graph(report)
    else:
        columns, T = read_csv_matrix(args.stats)
        graph = graphx.graph_from_stats(T, columns, args.critical)
    outputs = [(args.out, graphx.emit_dot(graph, width_scale=args.width_scale))]
    if args.json:
        outputs.append((args.json, _json_text(args.json, graphx.to_adjacency(graph))))
    _write_outputs(*outputs)
    print(f"graph with {len(graph.edges)} edges -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage block, and exits 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tailgraph",
        description="Tail dependence estimation, partial tail correlation tests and extremal graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)  # simulate and the simulation studies
    model.add_argument("--phi", type=_unit_arg("phi"), default=0.7)
    model.add_argument("--n", type=_integer_arg("n", 1), default=10_000)
    model.add_argument("--seed", type=_integer_arg("seed", 0), default=None)
    model.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", parents=[model], help="simulate the autoregressive tail model")
    sim.add_argument("--p", type=_integer_arg("p", 1), default=4)
    sim.add_argument("--noise", choices=("shifted-pareto", "frechet"), default="shifted-pareto")
    sim.add_argument("--a-matrix", default=None, help="CSV coefficient matrix instead of the AR model")

    prep = sub.add_parser("preprocess", help="rank-transform to shifted-Pareto margins")
    prep.add_argument("--input", required=True)
    prep.add_argument("--output", required=True)

    estimate = argparse.ArgumentParser(add_help=False)  # tpdm and ptc-test
    estimate.add_argument("--input", required=True)
    estimate.add_argument("--radial-quantile", type=_unit_arg("q_radial"), default=0.95)
    estimate.add_argument("--mode", choices=("pairwise", "global"), default="pairwise")
    estimate.add_argument("--mass", type=_mass_arg, default="fixed2",
                          help="fixed2 (default): a total mass of 2 per pair, or p with "
                               "--mode global; estimate: (r_(k)^2 / n) k from the k-th largest radius")
    estimate.add_argument("--out-prefix", required=True)

    test = argparse.ArgumentParser(add_help=False)  # ptc-test and size-power
    test.add_argument("--pred-quantile", type=_unit_arg("q_pred"), default=0.98)
    test.add_argument("--alpha", type=_unit_arg("alpha"), default=0.05)
    test.add_argument("--critical", type=_library_arg(str, _critical), default="bonferroni")

    sub.add_parser("tpdm", parents=[estimate], help="estimate the TPDM and its inverse")

    pt = sub.add_parser("ptc-test", parents=[estimate, test],
                        help="all-pairs partial tail correlation test")
    pt.add_argument("--res-quantile", type=_unit_arg("q_res"), default=0.98)

    cov = sub.add_parser("coverage", parents=[model], help="confidence-interval coverage simulation")
    cov.add_argument("--reps", type=_integer_arg("reps", 100), default=500)
    cov.add_argument("--radial-quantile", type=_unit_arg("q_radial"), default=0.98)
    cov.add_argument("--level", type=_unit_arg("level"), default=0.95)

    sp = sub.add_parser("size-power", parents=[model, test],
                        help="size and power of the all-pairs test on the autoregressive model")
    sp.add_argument("--p", type=_integer_arg("p", 3), default=4)  # a pair and a conditioning variable
    sp.add_argument("--reps", type=_integer_arg("reps", 1), default=200)
    sp.add_argument("--radial-quantile", type=_unit_arg("q_radial"), default=0.98)

    gr = sub.add_parser("graph", help="emit a DOT graph from a report or a statistic matrix")
    source = gr.add_mutually_exclusive_group(required=True)
    source.add_argument("--report", help="report JSON from ptc-test")
    source.add_argument("--stats", help="square CSV of test statistics")
    gr.add_argument("--critical", type=_library_arg(str, lambda v: _critical(v, named=())))
    width = _library_arg(float, lambda v: check_positive(v, "width_scale"))
    gr.add_argument("--width-scale", type=width, default=4.0)
    gr.add_argument("--out", required=True)
    gr.add_argument("--json", default=None, help="also write JSON adjacency here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "stats", None) is not None and args.critical is None:
        parser.error("graph --stats needs --critical fixed:<c>")
    n, p = getattr(args, "n", 1), getattr(args, "p", 4)  # coverage samples four variables
    try:  # the n x p sample and the p x p coefficient matrix
        check_array_size(max(n, p), p)
    except DomainError as exc:
        parser.error(f"--n {n} and --p {p}: {exc}")
    try:
        # looked up when it runs, so a wrapper installed on this module's attribute is called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    # the parser has checked every argument, so a domain or dimension error can
    # only come from an input file: too few columns, or a matrix that is not square
    except (DataError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TailgraphError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
