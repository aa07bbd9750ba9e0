import io
import json
from contextlib import redirect_stdout

import pytest

from sepcodes.cli import main, render_json


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

    def test_budget_exhaustion_exit_code(self):
        code, report = run_json(
            "solve", "--family", "cycle:24", "--kind", "fd", "--budget", "2"
        )
        assert code == 2
        assert not report["results"][0]["optimal"]

    def test_human_output(self):
        code, out = run_cli("solve", "--family", "path:12", "--kind", "ftd")
        assert code == 0
        assert "size: 8" in out
        assert "optimal: yes" in out

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("SEPCODES_BUDGET", "2")
        code, report = run_json("solve", "--family", "cycle:24", "--kind", "fd")
        assert code == 2
        monkeypatch.setenv("SEPCODES_BUDGET", "1000000")
        code, _ = run_json("solve", "--family", "cycle:24", "--kind", "fd")
        assert code == 0

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "p4.edges"
        path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        code, report = run_json("solve", str(path), "--kind", "fd")
        assert code == 0
        assert report["results"][0]["size"] == 4

    def test_usage_errors(self, monkeypatch):
        assert run_cli("solve", "--kind", "fd")[0] == 1
        assert run_cli("solve", "--family", "path:12", "--kind", "bogus")[0] == 1
        assert run_cli("solve", "--family", "nope:3", "--kind", "fd")[0] == 1
        assert run_cli("solve", "--family", "path:12", "--kind", "ftd",
                       "--threads", "4")[0] == 1
        for budget in ("0", "-5"):
            assert run_cli("solve", "--family", "path:12", "--kind", "ftd",
                           "--budget", budget)[0] == 1
            monkeypatch.setenv("SEPCODES_BUDGET", budget)
            assert run_cli("solve", "--family", "path:12", "--kind", "ftd")[0] == 1


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

    def test_parse_error_exit(self, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 4 1\n1 2 3 4 0\n", encoding="utf-8")
        assert run_cli("reduce", str(cnf))[0] == 1


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
