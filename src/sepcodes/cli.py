"""Command-line front end.

Subcommands
-----------
* ``solve``       exact X-number of a graph for one code kind
* ``verify``      check a candidate code against the definitions
* ``relations``   all admissible X-numbers plus the known inequalities
* ``reduce``      encode a DIMACS CNF file as its gadget graph
* ``hypergraph``  dump the X-hypergraph before/after redundancy removal
* ``family``      print a generated family graph and its known X-numbers

Exit codes: 0 success/optimal, 1 usage or parse error, 2 node budget
exhausted, 3 graph not admissible for the requested kind.

Reports are human-readable by default; ``--json`` switches to a canonical
JSON rendering (sorted keys, fixed layout) that is byte-stable across
runs when ``--deterministic`` is given (which zeroes wall-clock fields).
The default node budget can be overridden by the SEPCODES_BUDGET
environment variable or the ``--budget`` flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import codes, families, sat_reduction
from .graphs import Graph, GraphFormatError, VertexSet, format_edge_list, induced_subgraph, parse_edge_list
from .hypergraphs import DEFAULT_NODE_BUDGET, remove_redundant

FORMAT_VERSION = "3"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_NOT_ADMISSIBLE = 3


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcodes",
        description="Exact solver and verifier for separating-domination codes in graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, graph_source: bool = True) -> None:
        if graph_source:
            p.add_argument("graph", nargs="?", help="edge-list file (or use --family)")
            p.add_argument("--family", help="family spec like path:12, half:4, thin:5[+k1]")
        p.add_argument("--budget", type=_positive_int,
                       help="branch-node budget for the exact solver")
        p.add_argument("--deterministic", action="store_true",
                       help="byte-stable reports: zeroed timings")
        p.add_argument("--json", action="store_true", help="emit the report as canonical JSON")

    p_solve = sub.add_parser("solve", help="compute an exact X-number")
    add_common(p_solve)
    p_solve.add_argument("--kind", required=True, help="one of id, itd, ld, ltd, fd, ftd, od, otd")

    p_verify = sub.add_parser("verify", help="verify a candidate code")
    add_common(p_verify)
    p_verify.add_argument("--kind", required=True)
    p_verify.add_argument("--code", nargs="*", type=int, default=[],
                          help="vertex ids of the candidate code")

    p_rel = sub.add_parser("relations", help="X-numbers plus inequality checks")
    add_common(p_rel)

    p_red = sub.add_parser("reduce", help="encode a DIMACS CNF file as a gadget graph")
    p_red.add_argument("cnf", help="DIMACS CNF file")
    p_red.add_argument("-o", "--output", help="write PREFIX.edges and PREFIX.labels.json")
    p_red.add_argument("--check", action="store_true",
                       help="run the satisfiability/code-size correspondence end to end")
    add_common(p_red, graph_source=False)

    p_hyp = sub.add_parser("hypergraph", help="dump an X-hypergraph")
    add_common(p_hyp)
    p_hyp.add_argument("--kind", required=True)

    p_fam = sub.add_parser("family", help="print a family graph and its known X-numbers")
    p_fam.add_argument("spec", help="family spec like path:12 or half:4+k1")
    add_common(p_fam, graph_source=False)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("SEPCODES_BUDGET")
    if env:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"SEPCODES_BUDGET: {exc}") from None
    return DEFAULT_NODE_BUDGET


def _load_graph(args) -> tuple[Graph, str]:
    """Graph from --family or from an edge-list file, plus a source tag."""
    if args.family and args.graph:
        raise _UsageError("give either a graph file or --family, not both")
    if args.family:
        g, _spec = families.graph_from_spec_string(args.family)
        return g, f"family:{args.family}"
    if args.graph:
        text = Path(args.graph).read_text(encoding="utf-8")
        return parse_edge_list(text), f"file:{args.graph}"
    raise _UsageError("no graph given: pass an edge-list file or --family SPEC")


def _command_echo(args) -> str:
    """Canonical reconstruction of the invocation from parsed arguments.

    Field order is fixed, so deterministic reports are byte-identical.
    """
    parts = [args.command]
    for positional in ("graph", "cnf", "spec"):
        value = getattr(args, positional, None)
        if value:
            parts.append(str(value))
    if getattr(args, "family", None):
        parts.extend(["--family", args.family])
    if getattr(args, "kind", None):
        parts.extend(["--kind", args.kind.lower()])
    code = getattr(args, "code", None)
    if code:
        parts.append("--code")
        parts.extend(str(v) for v in code)
    if getattr(args, "output", None):
        parts.extend(["--output", args.output])
    if getattr(args, "check", False):
        parts.append("--check")
    if args.budget is not None:
        parts.extend(["--budget", str(args.budget)])
    if args.deterministic:
        parts.append("--deterministic")
    if args.json:
        parts.append("--json")
    return " ".join(parts)


def _report(args, **body) -> dict:
    report = {
        "format_version": FORMAT_VERSION,
        "command": _command_echo(args),
        "deterministic": args.deterministic,
    }
    report.update(body)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report: dict, args, human_lines: list[str], out) -> None:
    if args.json:
        out.write(render_json(report))
    else:
        out.write("\n".join(human_lines) + "\n")


def _elapsed_ms(args, started: float) -> int:
    if args.deterministic:
        return 0
    return int((time.perf_counter() - started) * 1000)


def _solve_entry(g: Graph, kind: codes.CodeKind, budget: int, args) -> dict:
    started = time.perf_counter()
    result = codes.x_number(g, kind, budget)
    return {
        "kind": kind.value,
        "size": result.size,
        "witness": result.witness.sorted_ids(),
        "optimal": result.optimal,
        "nodes": result.nodes_explored,
        "wall_ms": _elapsed_ms(args, started),
    }


def _cmd_solve(args, out) -> int:
    g, source = _load_graph(args)
    kind = codes.CodeKind.parse(args.kind)
    budget = _resolve_budget(args)
    try:
        entry = _solve_entry(g, kind, budget, args)
    except codes.NotAdmissibleError as exc:
        report = _report(args, budget=budget,
                         graph={"source": source, "vertices": g.n, "edges": g.num_edges},
                         error={"type": "not_admissible", "kind": exc.kind.value,
                                "reason": exc.reason})
        _emit(report, args, [
            f"source: {source}",
            f"kind: {exc.kind.value}",
            f"not admissible: {exc.reason}",
        ], out)
        return EXIT_NOT_ADMISSIBLE
    report = _report(args, budget=budget,
                     graph={"source": source, "vertices": g.n, "edges": g.num_edges},
                     results=[entry])
    _emit(report, args, [
        f"source: {source}",
        f"kind: {entry['kind']}",
        f"size: {entry['size']}",
        "witness: " + " ".join(map(str, entry["witness"])),
        f"optimal: {'yes' if entry['optimal'] else 'no (budget exhausted)'}",
        f"nodes: {entry['nodes']}",
        f"time: {entry['wall_ms']} ms",
    ], out)
    return EXIT_OK if entry["optimal"] else EXIT_BUDGET


def _cmd_verify(args, out) -> int:
    g, source = _load_graph(args)
    kind = codes.CodeKind.parse(args.kind)
    try:
        code = VertexSet.of(g.n, args.code)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    accepted = codes.verify_code(g, kind, code)
    entry = {"kind": kind.value, "code": code.sorted_ids(), "accepted": accepted}
    report = _report(args,
                     graph={"source": source, "vertices": g.n, "edges": g.num_edges},
                     results=[entry])
    _emit(report, args, [
        f"source: {source}",
        f"kind: {kind.value}",
        "code: " + " ".join(map(str, entry["code"])),
        f"verdict: {'accept' if accepted else 'reject'}",
    ], out)
    return EXIT_OK


def _cmd_relations(args, out) -> int:
    g, source = _load_graph(args)
    budget = _resolve_budget(args)
    numbers: dict[codes.CodeKind, dict] = {}
    for kind in codes.CodeKind:
        try:
            numbers[kind] = _solve_entry(g, kind, budget, args) | {"admissible": True}
        except codes.NotAdmissibleError as exc:
            numbers[kind] = {"kind": kind.value, "admissible": False, "reason": exc.reason}

    def size_of(kind: codes.CodeKind) -> int | None:
        entry = numbers[kind]
        if entry.get("admissible") and entry.get("optimal"):
            return entry["size"]
        return None

    checks: list[dict] = []

    def add_check(name: str, holds: bool, detail: str) -> None:
        checks.append({"name": name, "holds": holds, "detail": detail})

    for lo, hi, case in codes.KIND_INEQUALITIES:
        a, b = size_of(lo), size_of(hi)
        if a is None or b is None:
            continue
        add_check(f"{lo.value}<={hi.value}", a <= b, f"{a} <= {b} [{case}]")

    fd, ftd = size_of(codes.CodeKind.FD), size_of(codes.CodeKind.FTD)
    if numbers[codes.CodeKind.FD].get("admissible"):
        isolated = g.isolated_vertices()
        if isolated and fd is not None:
            iso = next(iter(isolated))
            rest = induced_subgraph(g, (v for v in range(g.n) if v != iso))
            sub = codes.x_number(rest, codes.CodeKind.FTD, budget)
            if sub.optimal:
                add_check("FD(G)=FTD(G-isolated)+1", fd == sub.size + 1,
                          f"{fd} == {sub.size}+1")
        elif fd is not None and ftd is not None:
            add_check("FTD-1<=FD<=FTD", ftd - 1 <= fd <= ftd, f"{ftd}-1 <= {fd} <= {ftd}")

    if numbers[codes.CodeKind.FTD].get("admissible") and ftd is not None:
        itd, otd = size_of(codes.CodeKind.ITD), size_of(codes.CodeKind.OTD)
        id_, od = size_of(codes.CodeKind.ID), size_of(codes.CodeKind.OD)
        ltd = size_of(codes.CodeKind.LTD)
        if None not in (itd, otd, fd):
            bound = max(itd, otd, fd)
            add_check("FTD>=max(ITD,OTD,FD)", ftd >= bound, f"{ftd} >= {bound}")
        if None not in (id_, od, ltd, itd, otd, fd):
            bound = max(id_, od, ltd - 1, itd - 1, otd - 1)
            add_check("FD>=max(ID,OD,LTD-1,ITD-1,OTD-1)", fd >= bound, f"{fd} >= {bound}")

    violations = [c["name"] for c in checks if not c["holds"]]
    report = _report(args, budget=budget,
                     graph={"source": source, "vertices": g.n, "edges": g.num_edges},
                     results=[numbers[k] for k in codes.CodeKind],
                     checks=checks, violations=violations)
    lines = [f"source: {source}"]
    for kind in codes.CodeKind:
        entry = numbers[kind]
        if not entry.get("admissible"):
            lines.append(f"{kind.value}: not admissible ({entry['reason']})")
        else:
            opt = "" if entry["optimal"] else " (budget exhausted)"
            lines.append(f"{kind.value}: {entry['size']}{opt}")
    lines.append(f"checks: {sum(c['holds'] for c in checks)}/{len(checks)} hold")
    for c in checks:
        lines.append(f"  [{'ok' if c['holds'] else 'VIOLATION'}] {c['name']}: {c['detail']}")
    _emit(report, args, lines, out)
    exhausted = any(
        entry.get("admissible") and not entry.get("optimal") for entry in numbers.values()
    )
    return EXIT_BUDGET if exhausted else EXIT_OK


_CHECK_MAX_VARS = 3
_CHECK_MAX_CLAUSES = 4


def _cmd_reduce(args, out) -> int:
    text = Path(args.cnf).read_text(encoding="utf-8")
    formula = sat_reduction.parse_dimacs(text)
    gg = sat_reduction.build_gadget(formula)
    n, m = formula.num_vars, formula.num_clauses
    body: dict = {
        "cnf": {"source": f"file:{args.cnf}", "variables": n, "clauses": m},
        "gadget": {"vertices": gg.graph.n, "edges": gg.graph.num_edges},
    }
    lines = [
        f"source: file:{args.cnf}",
        f"formula: {n} variables, {m} clauses",
        f"gadget: {gg.graph.n} vertices, {gg.graph.num_edges} edges",
    ]
    labels = sat_reduction.gadget_label_map(gg)
    if args.output:
        edges_path = Path(args.output + ".edges")
        labels_path = Path(args.output + ".labels.json")
        edges_path.write_text(format_edge_list(gg.graph), encoding="utf-8")
        labels_path.write_text(json.dumps(labels, indent=2, sort_keys=False) + "\n",
                               encoding="utf-8")
        body["output"] = {"edges": str(edges_path), "labels": str(labels_path)}
        lines.append(f"wrote: {edges_path} {labels_path}")
    else:
        body["edge_list"] = format_edge_list(gg.graph).splitlines()
        body["labels"] = labels
        lines.append("edge list:")
        lines.extend("  " + row for row in body["edge_list"])
        lines.append("labels:")
        lines.extend(f"  {name} -> {vid}" for name, vid in labels.items())

    exit_code = EXIT_OK
    if args.check:
        if n > _CHECK_MAX_VARS or m > _CHECK_MAX_CLAUSES:
            raise _UsageError(
                f"--check is capped at {_CHECK_MAX_VARS} variables and "
                f"{_CHECK_MAX_CLAUSES} clauses (got {n}, {m})"
            )
        budget = _resolve_budget(args)
        assignment = sat_reduction.brute_force_sat(formula)
        sat = assignment is not None
        ftd = codes.x_number(gg.graph, codes.CodeKind.FTD, budget)
        fd = codes.x_number(gg.graph, codes.CodeKind.FD, budget)
        target_ftd, target_fd = 7 * n + 2 * m, 7 * n + 2 * m - 1
        checks = [
            {"name": "sat<=>FTD==7n+2m", "holds": sat == (ftd.size == target_ftd),
             "detail": f"sat={sat}, FTD={ftd.size}, target={target_ftd}"},
            {"name": "sat<=>FD==7n+2m-1", "holds": sat == (fd.size == target_fd),
             "detail": f"sat={sat}, FD={fd.size}, target={target_fd}"},
        ]
        if not sat:
            checks.append({"name": "unsat=>both-strictly-larger",
                           "holds": ftd.size > target_ftd and fd.size > target_fd,
                           "detail": f"FTD={ftd.size}>{target_ftd}, FD={fd.size}>{target_fd}"})
        else:
            for kind, res, target in ((codes.CodeKind.FTD, ftd, target_ftd),
                                      (codes.CodeKind.FD, fd, target_fd)):
                built = sat_reduction.code_from_assignment(gg, assignment, kind)
                checks.append({"name": f"assignment-code-verifies-{kind.value}",
                               "holds": len(built) == target
                               and codes.verify_code(gg.graph, kind, built),
                               "detail": f"|code|={len(built)}"})
            decoded = sat_reduction.assignment_from_code(
                gg, sat_reduction.code_from_assignment(gg, assignment, codes.CodeKind.FTD))
            checks.append({"name": "code-decodes-to-satisfying-assignment",
                           "holds": decoded is not None
                           and sat_reduction.satisfies(formula, decoded),
                           "detail": f"decoded={decoded}"})
        body["check"] = {
            "satisfiable": sat,
            "ftd": {"size": ftd.size, "optimal": ftd.optimal, "nodes": ftd.nodes_explored},
            "fd": {"size": fd.size, "optimal": fd.optimal, "nodes": fd.nodes_explored},
            "checks": checks,
        }
        lines.append(f"satisfiable: {'yes' if sat else 'no'}")
        lines.append(f"FTD number: {ftd.size} (target {target_ftd})")
        lines.append(f"FD number: {fd.size} (target {target_fd})")
        for c in checks:
            lines.append(f"  [{'ok' if c['holds'] else 'FAIL'}] {c['name']}: {c['detail']}")
        if not (ftd.optimal and fd.optimal):
            exit_code = EXIT_BUDGET

    report = _report(args, **body)
    _emit(report, args, lines, out)
    return exit_code


def _cmd_hypergraph(args, out) -> int:
    g, source = _load_graph(args)
    kind = codes.CodeKind.parse(args.kind)
    h = codes.build_hypergraph(g, kind)
    reduced = remove_redundant(h)
    empty = h.has_empty_edge()
    rows, reduced_rows = h.dump_lines(), reduced.dump_lines()
    report = _report(args,
                     graph={"source": source, "vertices": g.n, "edges": g.num_edges},
                     kind=kind.value,
                     hypergraph={"edges": rows, "count": len(h.edges)},
                     reduced={"edges": reduced_rows, "count": len(reduced.edges)},
                     empty_hyperedge=empty)
    lines = [f"source: {source}", f"kind: {kind.value}"]
    if empty:
        lines.append("warning: hypergraph contains an empty hyperedge (no code exists)")
    lines.append(f"hyperedges ({len(h.edges)}):")
    lines.extend("  " + row for row in rows)
    lines.append(f"reduced hyperedges ({len(reduced.edges)}):")
    lines.extend("  " + row for row in reduced_rows)
    _emit(report, args, lines, out)
    return EXIT_OK


def _cmd_family(args, out) -> int:
    g, spec = families.graph_from_spec_string(args.spec)
    formulas: dict[str, int | None] = {}
    if spec is not None:
        for kind in codes.CodeKind:
            formulas[kind.value] = families.formula_x_number(spec, kind)
    report = _report(args, spec=args.spec,
                     graph={"vertices": g.n, "edges": g.num_edges},
                     edge_list=format_edge_list(g).splitlines(),
                     known_numbers=formulas)
    lines = [f"spec: {args.spec}", "edge list:"]
    lines.extend("  " + row for row in format_edge_list(g).splitlines())
    if formulas:
        lines.append("known X-numbers:")
        for name, value in formulas.items():
            lines.append(f"  {name}: {value if value is not None else '-'}")
    _emit(report, args, lines, out)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "relations": _cmd_relations,
    "reduce": _cmd_reduce,
    "hypergraph": _cmd_hypergraph,
    "family": _cmd_family,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except codes.NotAdmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except (_UsageError, GraphFormatError, sat_reduction.DimacsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
