import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sepcodes import (
    CodeKind,
    Graph,
    build_hypergraph,
    codes,
    format_edge_list,
    formula_x_number,
    remove_redundant,
    x_number,
)
from sepcodes import cli
from sepcodes.cli import main, render_json, render_text
from sepcodes.families import graph_from_spec_string

from conftest import (
    MALFORMED_DIMACS,
    MALFORMED_EDGE_LISTS,
    induced_subgraph,
    random_twin_free_graph,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv, "--json")
    return code, json.loads(out)


class TestSolve:
    def test_path12_ftd(self):
        code, report = run_json("solve", "--family", "path:12", "--kind", "ftd")
        assert code == 0
        result = report["results"][0]
        assert result["size"] == 8 and result["optimal"]

    def test_half3_fd(self):
        code, report = run_json("solve", "--family", "half:3", "--kind", "fd")
        assert code == 0
        assert report["results"][0]["size"] == 5

    def test_cycle3_fd_not_admissible(self):
        code, report = run_json("solve", "--family", "cycle:3", "--kind", "fd")
        assert code == 3
        assert report["error"]["type"] == "not_admissible"

    @pytest.mark.parametrize("spec, kind, size",
                             [("path:500", "ftd", 334), ("cycle:200", "id", 100)])
    def test_proven_at_the_root_by_the_trace_bound(self, spec, kind, size):
        # the greedy cover meets the degree-budget trace bound, so no search
        # runs; a search of 50,000 nodes proves neither
        code, report = run_json("solve", "--family", spec, "--kind", kind, "--budget", "50000")
        assert code == 0
        result = report["results"][0]
        assert (result["size"], result["optimal"], result["nodes"]) == (size, True, 0)
        _, family_spec = graph_from_spec_string(spec)
        if kind == "ftd":
            assert size == formula_x_number(family_spec, codes.CodeKind.FTD)

    def test_budget_exhaustion_exit_code(self):
        code, report = run_json(
            "solve", "--family", "thin:10", "--kind", "fd", "--budget", "2"
        )
        assert code == 2
        assert not report["results"][0]["optimal"]

    def test_human_output(self):
        code, out = run_cli("solve", "--family", "path:12", "--kind", "ftd")
        assert code == 0
        assert "size: 8" in out
        assert "optimal: yes" in out

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "p4.edges"
        path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        code, report = run_json("solve", str(path), "--kind", "fd")
        assert code == 0
        assert report["results"][0]["size"] == 4

    def test_usage_errors(self):
        assert run_cli("solve", "--kind", "fd")[0] == 1
        assert run_cli("solve", "--family", "path:12", "--kind", "bogus")[0] == 1
        assert run_cli("solve", "--family", "nope:3", "--kind", "fd")[0] == 1
        assert run_cli("solve", "--family", "path:12", "--kind", "ftd",
                       "--threads", "4")[0] == 1
        for budget in ("0", "-5"):
            assert run_cli("solve", "--family", "path:12", "--kind", "ftd",
                           "--budget", budget)[0] == 1

    def test_non_integer_budget_refused(self, capsys):
        assert run_cli("solve", "--family", "path:12", "--kind", "ftd",
                       "--budget", "abc")[0] == 1
        assert "expected a positive integer, got 'abc'" in capsys.readouterr().err

    def test_graph_file_and_family_refused(self, tmp_path, capsys):
        path = tmp_path / "p4.edges"
        path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        assert run_cli("solve", str(path), "--family", "path:4", "--kind", "fd")[0] == 1
        assert "not both" in capsys.readouterr().err

    def test_more_usage_errors(self, tmp_path):
        binary = tmp_path / "binary.edges"
        binary.write_bytes(b"\xff\xfe\x00\x81 2\n")
        for argv in (("solve", str(binary), "--kind", "fd"),
                     ("solve", str(tmp_path / "missing.edges"), "--kind", "fd"),
                     ("verify", "--family", "path:4", "--kind", "nope", "--code", "0"),
                     ("verify", "--family", "path:4", "--kind", "fd", "--code", "9"),
                     ("hypergraph", "--family", "path:4", "--kind", "nope"),
                     ("relations", "--family", "path"),
                     ("family", "path:12+k2"),
                     ("family", "path:x"),
                     ("family", "half:0")):
            assert run_cli(*argv)[0] == 1, argv

    @pytest.mark.parametrize("command, text, message",
                             [(("solve", "--kind", "fd"), *case) for case in MALFORMED_EDGE_LISTS]
                             + [(("reduce",), *case) for case in MALFORMED_DIMACS])
    def test_malformed_input_files(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(*command, str(path))[0] == 1
        assert message in capsys.readouterr().err

    def test_edge_lines_past_the_header_count(self, tmp_path, capsys):
        path = tmp_path / "long.edges"
        path.write_text("3 1\n" + "0 1\n" * 100_000, encoding="utf-8")
        assert run_cli("solve", str(path), "--kind", "fd")[0] == 1
        assert "line 3: more edges than the header announced (1)" in capsys.readouterr().err

    def test_hypergraph_vertex_limit(self, capsys):
        for argv in (("solve", "--family", "path:2001", "--kind", "ftd"),
                     ("hypergraph", "--family", "path:2001", "--kind", "fd")):
            assert run_cli(*argv)[0] == 1
            assert "2001 vertices exceed the hypergraph limit of 2000" in capsys.readouterr().err

    def test_internal_value_error_propagates(self, monkeypatch):
        def broken(*args):
            raise ValueError("internal defect")

        monkeypatch.setattr(codes, "x_number", broken)
        with pytest.raises(ValueError, match="internal defect"):
            run_cli("solve", "--family", "path:4", "--kind", "fd")

    def test_oversized_vertex_count_refused(self, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("1000000000 0\n", encoding="utf-8")
        for argv in (("solve", str(huge), "--kind", "fd"),
                     ("solve", "--family", "path:1000000000", "--kind", "fd"),
                     ("family", "path:1000000000"),
                     ("family", "thick:1000000000")):
            assert run_cli(*argv)[0] == 1
            assert "exceeds the limit" in capsys.readouterr().err

    def test_one_past_vertex_limit_refused(self, tmp_path, capsys):
        wide = tmp_path / "wide.edges"
        wide.write_text("20001 0\n", encoding="utf-8")
        for argv in (("family", "path:20001"),
                     ("family", "path:20000+k1"),
                     ("verify", str(wide), "--kind", "fd", "--code", "0")):
            assert run_cli(*argv)[0] == 1
            assert "vertex count 20001 exceeds the limit of 20000" in capsys.readouterr().err

    def test_edge_limit_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sepcodes.graphs.MAX_EDGES", 20)
        dense = tmp_path / "dense.edges"
        dense.write_text("10 30\n", encoding="utf-8")
        for argv in (("family", "thick:5"),
                     ("family", "thick:5+k1"),
                     ("solve", "--family", "thick:5", "--kind", "ld"),
                     ("solve", str(dense), "--kind", "fd")):
            assert run_cli(*argv)[0] == 1, argv
            assert "edge count 30 exceeds the limit of 20" in capsys.readouterr().err


class TestVerify:
    def test_accept_report_fields(self):
        code, report = run_json(
            "verify", "--family", "path:4", "--kind", "fd", "--code", "0", "1", "2", "3"
        )
        assert code == 0
        assert report["format_version"] == "3"
        assert report["results"] == [{"kind": "FD", "code": [0, 1, 2, 3], "accepted": True}]

    def test_reject_empty(self):
        code, report = run_json("verify", "--family", "path:4", "--kind", "fd")
        assert code == 0
        assert not report["results"][0]["accepted"]

    def test_cycle12_constructive_pattern(self):
        # the block pattern for n=12, 0-based
        ids = [str(v) for v in (1, 2, 3, 4, 7, 8, 9, 10)]
        code, report = run_json(
            "verify", "--family", "cycle:12", "--kind", "ftd", "--code", *ids
        )
        assert report["results"][0]["accepted"]

    def test_one_verdict_line_for_every_kind(self):
        for kind, code, verdict in (("fd", "023", "reject"), ("ftd", "0123", "accept"),
                                    ("ld", "023", "accept")):
            _, out = run_cli("verify", "--family", "path:4", "--kind", kind, "--code", *code)
            assert [line for line in out.splitlines() if "verdict" in line] == [
                f"verdict: {verdict}"
            ]


class TestRelations:
    def test_thin_spider4(self):
        code, report = run_json("relations", "--family", "thin:4")
        assert code == 0
        sizes = {r["kind"]: r.get("size") for r in report["results"]}
        assert sizes["FD"] == 6 and sizes["FTD"] == 7
        assert sizes["ITD"] == 7 and sizes["OTD"] == 4
        assert report["violations"] == []

    def test_half4(self):
        _, report = run_json("relations", "--family", "half:4")
        sizes = {r["kind"]: r.get("size") for r in report["results"]}
        assert sizes["FD"] == 7 and sizes["FTD"] == 8 and sizes["OTD"] == 8

    def test_half3_plus_k1_gap(self):
        code, report = run_json("relations", "--family", "half:3+k1")
        assert code == 0
        sizes = {r["kind"]: r.get("size") for r in report["results"]}
        assert sizes["FD"] == 7
        gap = [c for c in report["checks"] if c["name"] == "FD(G)=FTD(G-isolated)+1"]
        assert gap and gap[0]["holds"]

    @pytest.mark.parametrize("seed", [81, 82, 83])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_isolated_vertex_anywhere_in_a_file(self, seed, where, tmp_path):
        # a twin-free, isolate-free G with a zero row inserted at id x
        rng = random.Random(seed)
        base = random_twin_free_graph(rng, rng.randint(4, 7))
        x = {"first": 0, "middle": base.n // 2, "last": base.n}[where]
        g = Graph.from_edges(base.n + 1, [(u + (u >= x), v + (v >= x)) for u, v in base.edges()])
        assert g.rows[x] == 0 and 0 not in g.rows[:x] + g.rows[x + 1:]
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(g), encoding="utf-8")
        code, report = run_json("relations", str(path))
        assert code == 0
        gap = [c for c in report["checks"] if c["name"] == "FD(G)=FTD(G-isolated)+1"]
        assert len(gap) == 1 and gap[0]["holds"], report["checks"]
        others = [v for v in range(g.n) if v != x]
        ftd = x_number(induced_subgraph(g, others), CodeKind.FTD).size
        assert gap[0]["detail"].split("== ")[1] == f"{ftd}+1"

    @pytest.mark.parametrize("spec, fd", [("path:60", 40), ("path:72", 48), ("path:96", 64)])
    def test_paths_prove_every_kind(self, spec, fd):
        # FD starts from FTD's code, which meets FD's lower bound
        code, report = run_json("relations", "--family", spec, "--budget", "50000")
        assert code == 0 and report["violations"] == []
        assert all(r["admissible"] and r["optimal"] for r in report["results"])
        assert {r["kind"]: r["size"] for r in report["results"]}["FD"] == fd

    def test_unproven_sizes_are_not_checked(self):
        # FD's incumbent 13 equals FTD, so reading it would add FTD-1<=FD<=FTD
        code, report = run_json("relations", "--family", "cycle:19", "--budget", "100")
        assert code == 2
        unproven = {r["kind"] for r in report["results"] if not r["optimal"]}
        assert unproven == {"FD", "OD"}
        sizes = {r["kind"]: r["size"] for r in report["results"]}
        assert sizes["FD"] == sizes["FTD"] == 13
        checks = report["checks"]
        assert len(checks) == 7 and all(c["holds"] for c in checks)
        assert not [c["name"] for c in checks if "FD" in c["name"] or "OD" in c["name"]]

    def test_inadmissible_kinds_reported(self):
        _, report = run_json("relations", "--family", "path:3")
        by_kind = {r["kind"]: r for r in report["results"]}
        assert by_kind["FD"]["admissible"] is False
        assert by_kind["LD"]["admissible"] is True


class TestReduce:
    DIMACS = "c tiny\np cnf 2 2\n1 -2 0\n-1 2 0\n"

    def test_writes_gadget_files(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(self.DIMACS, encoding="utf-8")
        prefix = str(tmp_path / "out")
        code, report = run_json("reduce", str(cnf), "-o", prefix)
        assert code == 0
        assert report["gadget"]["vertices"] == 26
        edges = (tmp_path / "out.edges").read_text(encoding="utf-8")
        assert edges.startswith("26 ")
        labels = json.loads((tmp_path / "out.labels.json").read_text(encoding="utf-8"))
        assert labels["v1^x1"] == 0 and len(labels) == 26

    def test_output_files_pinned(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf), "-o", str(tmp_path / "out"))[0] == 0
        edges = ("13 18\n0 1\n0 3\n0 4\n1 2\n3 5\n3 6\n3 7\n3 10\n4 5\n4 6\n4 7\n"
                 "5 6\n5 7\n5 8\n6 7\n6 9\n10 11\n11 12\n")
        names = ["v1^x1", "v2^x1", "v3^x1", "w1^x1", "w2^x1", "s1^x1", "s2^x1", "s3^x1",
                 "z1^x1", "z2^x1", "u1^y1", "u2^y1", "u3^y1"]
        labels = "{\n" + ",\n".join(f'  "{name}": {vid}' for vid, name in enumerate(names))
        assert (tmp_path / "out.edges").read_bytes() == edges.encode()
        assert (tmp_path / "out.labels.json").read_bytes() == (labels + "\n}\n").encode()

    def test_check_satisfiable(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(self.DIMACS, encoding="utf-8")
        code, report = run_json("reduce", str(cnf), "--check")
        assert code == 0
        check = report["check"]
        assert check["satisfiable"] is True
        assert check["ftd"]["size"] == 18 and check["fd"]["size"] == 17
        assert all(c["holds"] for c in check["checks"])

    def test_check_unsatisfiable(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="utf-8")
        code, report = run_json("reduce", str(cnf), "--check")
        assert code == 0
        check = report["check"]
        assert check["satisfiable"] is False
        assert check["ftd"]["size"] > 11 and check["fd"]["size"] > 10
        assert all(c["holds"] for c in check["checks"])

    def test_check_cap(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        clauses = "\n".join("1 2 3 0" for _ in range(5))
        cnf.write_text(f"p cnf 3 5\n{clauses}\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf), "--check")[0] == 1

    def test_check_not_admissible(self, tmp_path, capsys):
        # variable 2 occurs in no clause, so its widget has twins
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 0\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf), "--check")[0] == 3
        assert "not FTD-admissible" in capsys.readouterr().err

    def test_check_budget_exhausted(self, tmp_path):
        # FTD proves in 3 nodes; FD, bounded by FTD - 1 = 28 and started
        # from FTD's code, stays at 29 after its own 3 nodes
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 4\n-1 0\n3 2 0\n1 -2 0\n2 -3 -1 0\n", encoding="utf-8")
        code, report = run_json("reduce", str(cnf), "--check", "--budget", "3")
        assert code == 2
        assert report["check"]["ftd"]["optimal"] and not report["check"]["fd"]["optimal"]

    def test_check_skips_unproven_sizes(self, tmp_path):
        # at budget 1 both searches stop at incumbents (FTD 30, FD 29) above
        # the satisfiable targets 29 and 28; no size check may judge them
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 4\n-1 0\n3 2 0\n1 -2 0\n2 -3 -1 0\n", encoding="utf-8")
        code, report = run_json("reduce", str(cnf), "--check", "--budget", "1")
        assert code == 2
        check = report["check"]
        assert not check["ftd"]["optimal"] and not check["fd"]["optimal"]
        assert all(c["holds"] for c in check["checks"])
        assert not any(c["name"].startswith("sat<=>") for c in check["checks"])
        code, out = run_cli("reduce", str(cnf), "--check", "--budget", "1")
        assert code == 2
        assert "FTD number: 30 (budget exhausted) (target 29)" in out
        assert "FAIL" not in out

    def test_oversized_gadget_refused(self, tmp_path, capsys):
        # 10n + 3m vertices: refused before any label or edge is built
        cnf = tmp_path / "huge.cnf"
        cnf.write_text("p cnf 1000000000 1\n1 0\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf))[0] == 1
        assert "vertex count 10000000003 exceeds the limit" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 4 1\n1 2 3 4 0\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf))[0] == 1

    def test_check_cap_writes_nothing(self, tmp_path, capsys):
        cnf = tmp_path / "big.cnf"
        cnf.write_text("p cnf 5 2\n1 2 3 0\n-3 4 5 0\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf), "-o", str(tmp_path / "out"), "--check")[0] == 1
        assert "--check is capped at 3 variables" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["big.cnf"]


class TestHypergraphDump:
    def test_half4_fd_reduced_shows_singletons(self):
        code, report = run_json("hypergraph", "--family", "half:4", "--kind", "fd")
        assert code == 0
        reduced = report["reduced"]["edges"]
        assert reduced == ["0 7", "1", "2", "3", "4", "5", "6"]
        assert not report["empty_hyperedge"]

    def test_k2_id_warns_empty(self):
        code, out = run_cli("hypergraph", "--family", "path:2", "--kind", "id")
        assert code == 0
        assert "empty hyperedge" in out

    def test_thin_spider4_ftd_reduced_count(self):
        # k singleton total-domination edges plus C(k,2) stable-pair edges
        _, report = run_json("hypergraph", "--family", "thin:4", "--kind", "ftd")
        assert report["reduced"]["count"] == 4 + 6

    @pytest.mark.parametrize("spec", ["path:8", "cycle:9", "path:5+k1"])
    @pytest.mark.parametrize("kind", list(codes.CodeKind))
    def test_rows_match_the_definitional_build(self, spec, kind):
        # the reduced list comes from the solver's build, the raw one from
        # the all-pairs build
        g = graph_from_spec_string(spec)[0]
        h = build_hypergraph(g, kind)
        reduced = remove_redundant(h)
        code, report = run_json("hypergraph", "--family", spec, "--kind", kind.value)
        assert code == 0
        assert report["hypergraph"] == {"edges": h.dump_lines(), "count": len(h.edges)}
        assert report["reduced"] == {"edges": reduced.dump_lines(), "count": len(reduced.edges)}
        assert report["empty_hyperedge"] is h.has_empty_edge()

    @pytest.mark.parametrize("kind", list(codes.CodeKind))
    def test_one_pair_build_where_the_solver_keeps_every_pair(self, monkeypatch, kind):
        # FD and OD reduce the raw build itself; the other kinds also make
        # the distance-2 build
        builds = []
        pair_hypergraph = codes._pair_hypergraph

        def counted(g, kind, near):
            builds.append(near)
            return pair_hypergraph(g, kind, near)

        monkeypatch.setattr(codes, "_pair_hypergraph", counted)
        assert run_json("hypergraph", "--family", "cycle:9", "--kind", kind.value)[0] == 0
        far = kind in (codes.CodeKind.FD, codes.CodeKind.OD)
        assert builds == ([False] if far else [False, True])


class TestFamilyCommand:
    def test_family_prints_formulas(self):
        code, report = run_json("family", "path:12")
        assert code == 0
        assert report["known_numbers"]["FTD"] == 8
        assert report["known_numbers"]["ID"] is None
        assert report["graph"]["vertices"] == 12

    def test_family_plus_k1_has_no_formulas(self):
        _, report = run_json("family", "half:3+k1")
        assert report["known_numbers"] == {}
        assert report["graph"]["vertices"] == 7


class TestReportStability:
    @pytest.mark.parametrize("argv, command", [
        ("solve --json --budget 7 --kind FD --family path:6",
         "solve --family path:6 --kind fd --budget 7 --json"),
        ("verify --json --deterministic --code 2 0 --kind Ftd g.edges",
         "verify g.edges --kind ftd --code 2 0 --deterministic --json"),
        ("relations --json --budget 50 --family path:4",
         "relations --family path:4 --budget 50 --json"),
        ("reduce --json --check -o out f.cnf",
         "reduce f.cnf --output out --check --json"),
        ("hypergraph --deterministic --json --kind LD --family path:4",
         "hypergraph --family path:4 --kind ld --deterministic --json"),
        ("family --json --budget 3 path:5",
         "family path:5 --budget 3 --json"),
    ])
    def test_command_echo_is_canonical(self, argv, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.edges").write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        (tmp_path / "f.cnf").write_text("p cnf 1 1\n1 0\n", encoding="utf-8")
        _, out = run_cli(*argv.split())
        assert json.loads(out)["command"] == command

    def test_json_round_trip_byte_identical(self):
        _, out = run_cli("solve", "--family", "path:12", "--kind", "ftd",
                         "--deterministic", "--json")
        parsed = json.loads(out)
        assert render_json(parsed) == out

    def test_deterministic_runs_byte_identical(self):
        args = ("solve", "--family", "cycle:17", "--kind", "fd",
                "--deterministic", "--json")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_deterministic_zeroes_wall_time(self):
        _, report = run_json("solve", "--family", "path:8", "--kind", "fd",
                             "--deterministic")
        assert report["results"][0]["wall_ms"] == 0

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_failing_write_exits_1(self, flags, capsys, monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert main(["family", "path:3", *flags]) == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


_TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß", "→", "😀", "\u2028", "a", " ", "0"]


def random_string(rng):
    return "".join(rng.choice(_TRICKY) for _ in range(rng.randrange(6)))


def random_json(rng, depth=0):
    """A seeded JSON value; containers often empty, lists often of one type."""
    roll = rng.randrange(12 if depth < 4 else 6)
    if roll == 0:
        return None
    if roll == 1:
        return rng.choice([True, False])
    if roll == 2:
        return rng.choice([0, -1, 7, 10 ** 30, -(2 ** 70)])
    if roll == 3:
        return rng.choice([0.5, -2.0, 1e300, float("inf"), float("-inf")])
    if roll in (4, 5):
        return random_string(rng)
    size = rng.choice([0, 0, 1, 2, 5])
    if roll in (6, 7):
        return {random_string(rng): random_json(rng, depth + 1) for _ in range(size)}
    if roll == 8:
        return [random_string(rng) for _ in range(size)]
    if roll == 9:
        return [rng.randrange(-5, 10 ** 6) for _ in range(size)]
    if roll == 10:
        return [rng.choice([True, False, None, 3]) for _ in range(size)]
    return [random_json(rng, depth + 1) for _ in range(size)]


class TestRenderJson:
    """render_json is json.dumps(sort_keys=True, indent=2) plus a newline, byte for byte."""

    @staticmethod
    def oracle(value):
        return json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], None, True, False, 0, "", {"a": {}}, {"a": []}, [[]], [{}],
        {"rows": ["0 1", "", "2"], "ids": [3, 1, 2], "flags": [True, False, 1]},
        [{"b": 1, "a": [None]}, {}], ("tuple", 1), {"q": '"\\\x01é\u2028😀'},
        {"B": 1, "a": 2, "_": 3, "é": 4, "": 5},
    ])
    def test_edge_cases(self, value):
        assert render_json(value) == self.oracle(value)

    def test_seeded_values(self):
        rng = random.Random(2028)
        kinds = set()
        for _ in range(2000):
            value = random_json(rng)
            kinds.add(type(value))
            assert render_json(value) == self.oracle(value), value
        assert kinds == {type(None), bool, int, float, str, dict, list}

    def test_seeded_reports(self):
        """Report-shaped dicts: string keys over lists of dicts, rows and ids."""
        rng = random.Random(311)
        for _ in range(300):
            report = {random_string(rng) or "k": random_json(rng, 1) for _ in range(6)}
            report["results"] = [{"witness": [rng.randrange(99) for _ in range(rng.randrange(4))],
                                  "optimal": rng.random() < 0.5, "reason": random_string(rng)}
                                 for _ in range(rng.randrange(3))]
            assert render_json(report) == self.oracle(report)

    def test_cli_reports_match_the_oracle(self):
        for argv in (("relations", "--family", "path:5+k1"),
                     ("hypergraph", "--family", "path:2", "--kind", "id"),
                     ("family", "thick:4")):
            _, out = run_cli(*argv, "--deterministic", "--json")
            assert out == self.oracle(json.loads(out))


class TestRenderText:
    def test_blocks_are_indented_rows(self):
        lines = ["a", [], ["", "x"], "b", (row for row in ["y", "z"])]
        assert render_text(lines) == "a\n  \n  x\nb\n  y\n  z\n"

    def test_empty_hyperedge_rows(self):
        code, out = run_cli("hypergraph", "--family", "path:2", "--kind", "id")
        assert code == 0
        assert out == ("source: family:path:2\nkind: ID\n"
                       "warning: hypergraph contains an empty hyperedge (no code exists)\n"
                       "hyperedges (3):\n  \n  0 1\n  0 1\n"
                       "reduced hyperedges (1):\n  \n")


class TestParserReuse:
    """main builds its parser once per process; reuse changes no output."""

    SEQUENCE = [
        ("solve", "--family", "path:6"),  # no --kind: argparse exits 2, main returns 1
        ("solve", "--json", "--budget", "7", "--kind", "FD", "--family", "path:6"),
        ("--help",),
        ("solve", "--json", "--budget", "7", "--kind", "FD", "--family", "path:6"),
    ]

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_reused_parser_matches_fresh_calls(self):
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(self.call(argv))
        cli._build_parser.cache_clear()
        reused = [self.call(argv) for argv in self.SEQUENCE]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 0]
        assert "the following arguments are required: --kind" in reused[0][2]
        assert reused[2][1].startswith("usage: sepcodes")
        assert json.loads(reused[3][1])["command"] == \
            "solve --family path:6 --kind fd --budget 7 --json"

    def test_parser_built_on_first_call(self):
        probe = ("import sepcodes.cli as c; a = c._build_parser.cache_info().misses; "
                 "c.main(['--help']); print(a, c._build_parser.cache_info().misses)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.splitlines()[-1] == "0 1"
