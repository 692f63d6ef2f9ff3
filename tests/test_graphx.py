import os
import re
from functools import partial

import numpy as np
import pytest

from tailgraph import (
    ExtremalGraph,
    PairRecord,
    PtcTestReport,
    build_graph,
    emit_dot,
    graph_from_stats,
    to_adjacency,
)
from tailgraph.cli import read_csv_matrix
from conftest import edge_set

NO2_EDGES = {(0, 4), (1, 2), (1, 3), (3, 4)}
DANUBE_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9)}


def parse_dot(text: str):
    """Recover the node and edge multisets from DOT text written by emit_dot."""
    nodes = []
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("//") or line.startswith("graph") or line == "}":
            continue
        if line.startswith("node ["):
            continue
        if "--" in line:
            left, rest = line.split("--", 1)
            right = rest.split("[", 1)[0]
            edges.append((left.strip().strip('";'), right.strip().strip('";')))
        elif line.endswith(";"):
            nodes.append(line.rstrip(";").strip().strip('"'))
    return nodes, edges


@pytest.fixture(scope="module")
def no2(data_dir):
    return read_csv_matrix(os.path.join(data_dir, "no2_tstats.csv"))


@pytest.fixture(scope="module")
def danube(data_dir):
    return read_csv_matrix(os.path.join(data_dir, "danube_tstats.csv"))


def report_from_matrix(columns, T, cv):
    records = []
    p = len(columns)
    for i in range(p):
        for j in range(i + 1, p):
            records.append(PairRecord(i=i, j=j, t_stat=float(T[i, j]), reject=abs(T[i, j]) > cv))
    return PtcTestReport(records=records, critical_value=cv, adjustment="fixed",
                         alpha=0.05, columns=list(columns))


class TestBuildGraph:
    def test_no2_station_network(self, no2):
        columns, T = no2
        graph = build_graph(report_from_matrix(columns, T, 4.797))
        assert edge_set(graph) == NO2_EDGES
        assert len(graph.edges) == 4

    def test_danube_main_channel(self, danube):
        columns, T = danube
        graph = build_graph(report_from_matrix(columns, T, 5.847))
        assert edge_set(graph) == DANUBE_EDGES
        assert len(graph.edges) == 8

    def test_all_zero_statistics(self):
        graph = build_graph(report_from_matrix(["a", "b", "c"], np.zeros((3, 3)), 1.0))
        assert graph.edges == []

    def test_errored_pairs_skipped(self, no2):
        columns, T = no2
        report = report_from_matrix(columns, T, 4.797)
        report.records[0].error = "InsufficientExceedancesError: only 3"
        report.records[0].t_stat = None
        report.records[0].reject = None
        graph = build_graph(report)
        assert (0, 1) in {(i, j) for i, j, _ in graph.skipped}
        assert edge_set(graph) == NO2_EDGES  # (0,1) was not an edge anyway

    def test_edge_count_matches_rejections(self, danube):
        columns, T = danube
        report = report_from_matrix(columns, T, 5.847)
        graph = build_graph(report)
        assert len(graph.edges) == report.n_rejected()

    def test_monotone_in_critical_value(self, danube):
        columns, T = danube
        prev = None
        for cv in (2.0, 4.0, 5.847, 8.0, 20.0, 1e9):
            edges = edge_set(build_graph(report_from_matrix(columns, T, cv)))
            if prev is not None:
                assert edges <= prev
            prev = edges

    def test_weights_are_absolute_statistics(self, danube):
        columns, T = danube
        graph = build_graph(report_from_matrix(columns, T, 5.847))
        for i, j, w in graph.edges:
            assert w == abs(T[i, j]) > 5.847


class TestGraphFromStats:
    def test_matches_report_path(self, no2):
        columns, T = no2
        direct = graph_from_stats(T, columns, 4.797)
        via_report = build_graph(report_from_matrix(columns, T, 4.797))
        assert edge_set(direct) == edge_set(via_report)

    def test_statistic_at_the_critical_value_is_no_edge(self):
        T = np.array([[np.nan, 2.0, 3.0], [2.0, np.nan, -2.0], [3.0, -2.0, np.nan]])
        assert graph_from_stats(T, None, 2.0).edges == [(0, 2, 3.0)]
        assert build_graph(report_from_matrix(["a", "b", "c"], T, 2.0)).edges == [(0, 2, 3.0)]


class TestEmitDot:
    def test_structure_and_edge_lines(self, no2):
        columns, T = no2
        graph = build_graph(report_from_matrix(columns, T, 4.797))
        dot = emit_dot(graph)
        assert dot.startswith("graph extremal {")
        assert dot.rstrip().endswith("}")
        edge_lines = [ln for ln in dot.splitlines() if "--" in ln]
        assert len(edge_lines) == 4

    def test_thickest_edge_is_largest_statistic(self, no2):
        columns, T = no2
        dot = emit_dot(build_graph(report_from_matrix(columns, T, 4.797)), width_scale=4.0)
        for line in dot.splitlines():
            if '"1" -- "5"' in line:
                assert "penwidth=4.0000" in line  # 9.89 is the maximum
                break
        else:
            pytest.fail("edge (1,5) missing")

    def test_byte_identical_across_runs(self, danube):
        columns, T = danube
        graph = build_graph(report_from_matrix(columns, T, 5.847))
        assert emit_dot(graph).encode() == emit_dot(graph).encode()

    def test_empty_graph_still_declares_nodes(self):
        graph = build_graph(report_from_matrix(["a", "b"], np.zeros((2, 2)), 1.0))
        dot = emit_dot(graph)
        nodes, edges = parse_dot(dot)
        assert nodes == ["a", "b"]
        assert edges == []

    def test_round_trip_parse(self, danube):
        columns, T = danube
        graph = build_graph(report_from_matrix(columns, T, 5.847))
        nodes, edges = parse_dot(emit_dot(graph))
        assert nodes == columns
        got = {(nodes.index(a), nodes.index(b)) for a, b in edges}
        assert got == DANUBE_EDGES

    def test_skipped_pairs_listed_in_header(self, no2):
        columns, T = no2
        report = report_from_matrix(columns, T, 4.797)
        report.records[0].error = "x"
        report.records[0].t_stat = None
        report.records[0].reject = None
        dot = emit_dot(build_graph(report))
        assert "// skipped pair (1, 2): x" in dot

    def test_backslash_and_quote_are_escaped(self):
        """A quoted DOT string ends at the first ``"`` that no backslash escapes:
        each name reads back whole, and no part of one is read as DOT."""
        names = ["a\\", 'b"', 'c\\"d', "e"]
        T = np.zeros((4, 4))
        T[0, 1] = T[1, 0] = 5.0
        dot = emit_dot(graph_from_stats(T, names, 1.0))
        quoted = r'"((?:[^"\\]|\\.)*)"'  # a backslash escapes the character after it
        unescape = partial(re.sub, r"\\(.)", r"\1")
        assert [unescape(q) for q in re.findall(rf"^  {quoted};$", dot, re.M)] == names
        edge = re.search(rf'^  {quoted} -- {quoted} \[penwidth=4\.0000, label="5\.00"\];$',
                         dot, re.M)
        assert [unescape(q) for q in edge.groups()] == names[:2]

    def test_line_breaks_stay_inside_their_comment(self):
        graph = ExtremalGraph(["a\nb -- c", "d\re", "f"], [], 1.0,
                              skipped=[(0, 1, "ValueError: x\ny")])
        lines = emit_dot(graph).split("\n")
        assert lines[1:3] == ["  // critical value: 1",
                              "  // skipped pair (a\\nb -- c, d\\re): ValueError: x\\ny"]
        assert lines[3] == "  node [shape=circle];"  # a quoted name may hold a line break


class TestAdjacency:
    def test_json_ready_payload(self, no2):
        import json

        columns, T = no2
        graph = build_graph(report_from_matrix(columns, T, 4.797))
        payload = json.loads(json.dumps(to_adjacency(graph)))
        assert payload["nodes"] == columns
        assert {(i, j) for i, j, _ in payload["edges"]} == NO2_EDGES
        assert payload["critical_value"] == 4.797
