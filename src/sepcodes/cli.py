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
exhausted, 3 graph not admissible for the requested kind.  Oversized
inputs exit 1 too; any other exception is a defect and propagates.
Usage errors, among them an unknown ``--kind`` and a missing or doubled
graph source, come from the parser: its usage and error lines on stderr.

Each command returns a report body (a dict), its human-readable lines
(see ``render_text``) and an exit code; ``main`` adds ``format_version``,
``command`` and ``deterministic`` to the body and renders the report
once.  ``main`` builds its parser on the first call and reuses it, so it
may be called repeatedly in one process.  Reports are
human-readable by default; ``--json`` switches to a canonical JSON
rendering (sorted keys, fixed layout) that is byte-stable across runs
when ``--deterministic`` is given (which zeroes ``wall_ms``).
``--budget`` overrides the default node budget where a search runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Iterator

from . import codes, families, sat_reduction
from .graphs import Graph, GraphFormatError, VertexSet, format_edge_list, parse_edge_list
from .hypergraphs import DEFAULT_NODE_BUDGET, CoverResult, remove_redundant

FORMAT_VERSION = "3"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_NOT_ADMISSIBLE = 3


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="sepcodes",
        description="Exact solver and verifier for separating-domination codes in graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, summary: str, kind: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("graph", nargs="?", help="edge-list file (or use --family)")
        source.add_argument("--family", help="family spec like path:12, half:4, thin:5[+k1]")
        if kind:
            p.add_argument("--kind", required=True, type=str.lower,
                           choices=[k.value.lower() for k in codes.CodeKind])
        return p

    graph_command("solve", "compute an exact X-number")

    p_verify = graph_command("verify", "verify a candidate code")
    p_verify.add_argument("--code", nargs="*", type=int, default=[],
                          help="vertex ids of the candidate code")

    graph_command("relations", "X-numbers plus inequality checks", kind=False)

    p_red = sub.add_parser("reduce", help="encode a DIMACS CNF file as a gadget graph")
    p_red.add_argument("cnf", help="DIMACS CNF file")
    p_red.add_argument("-o", "--output", help="write PREFIX.edges and PREFIX.labels.json")
    p_red.add_argument("--check", action="store_true",
                       help="run the satisfiability/code-size correspondence end to end")

    graph_command("hypergraph", "dump an X-hypergraph")

    p_fam = sub.add_parser("family", help="print a family graph and its known X-numbers")
    p_fam.add_argument("spec", help="family spec like path:12 or half:4+k1")

    for p in sub.choices.values():
        p.add_argument("--budget", type=_positive_int,
                       help="branch-node budget for the exact solver")
        p.add_argument("--deterministic", action="store_true",
                       help="byte-stable reports: zeroed timings")
        p.add_argument("--json", action="store_true", help="emit the report as canonical JSON")
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
    return args.budget or DEFAULT_NODE_BUDGET


def _load_graph(args) -> tuple[Graph, dict, list[str]]:
    """Graph from --family or from an edge-list file, plus the report's
    graph record and its ``source:`` line."""
    if args.family is not None:
        g, _spec = _parsed(families.graph_from_spec_string, args.family)
        source = f"family:{args.family}"
    else:
        g = parse_edge_list(Path(args.graph).read_text(encoding="utf-8"))
        source = f"file:{args.graph}"
    record = {"graph": {"source": source, "vertices": g.n, "edges": g.num_edges}}
    return g, record, [f"source: {source}"]


def _parsed(parse, *args):
    """parse(*args) on user input, its ValueError reported as a usage error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


_POSITIONALS = ("command", "graph", "cnf", "spec")


def _command_echo(args) -> str:
    """Canonical reconstruction of the invocation from parsed arguments.

    Arguments appear in the parser's order, unset ones omitted, so
    deterministic reports are byte-identical.
    """
    parts = []
    for dest, value in vars(args).items():
        if not value:
            continue
        if dest not in _POSITIONALS:
            parts.append(f"--{dest}")
        if value is not True:
            parts.extend(map(str, value) if isinstance(value, list) else [str(value)])
    return " ".join(parts)


_encode_str = json.encoder.encode_basestring_ascii


def render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    That call runs the pure-Python encoder over every row; here each list
    of strings or of ints is one C-speed join, and the report is one
    list of fragments joined once.  Keys must be strings.
    """
    out: list[str] = []
    _emit_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit_json(value, newline: str, out: list[str]) -> None:
    """Append value's JSON fragments; newline is "\\n" plus its indent."""
    if type(value) is str:
        out.append(_encode_str(value))
    elif isinstance(value, dict) and value:
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            out.append(f"{sep}{inner}{_encode_str(key)}: ")
            _emit_json(value[key], inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        types = set(map(type, value))
        scalar = _encode_str if types == {str} else int.__repr__ if types == {int} else None
        if scalar is not None:
            out += "[" + inner, ("," + inner).join(map(scalar, value)), newline + "]"
            return
        sep = "["
        for item in value:
            out.append(sep + inner)
            _emit_json(item, inner, out)
            sep = ","
        out.append(newline + "]")
    else:  # scalars and empty containers: the C encoder's own bytes
        out.append(json.dumps(value))


def render_text(lines: list) -> str:
    """One line per str entry; any other entry is a block of rows, each
    printed two spaces in.  Blocks are iterated only here, so a report
    rendered as JSON never builds its text rows."""
    out: list[str] = []
    for line in lines:
        if isinstance(line, str):
            out += line, "\n"
        elif rows := list(line):
            out += "  ", "\n  ".join(rows), "\n"
    return "".join(out)


def _elapsed_ms(args, started: float) -> int:
    if args.deterministic:
        return 0
    return int((time.perf_counter() - started) * 1000)


def _solve_entry(kind: codes.CodeKind, result: CoverResult, args, started: float) -> dict:
    return {
        "kind": kind.value,
        "size": result.size,
        "witness": result.witness.sorted_ids(),
        "optimal": result.optimal,
        "nodes": result.nodes_explored,
        "wall_ms": _elapsed_ms(args, started),
    }


def _unproven(optimal: bool) -> str:
    """The mark after a size that the search did not prove minimum."""
    return "" if optimal else " (budget exhausted)"


def _cmd_solve(args) -> tuple[dict, list, int]:
    g, body, lines = _load_graph(args)
    kind = codes.CodeKind[args.kind.upper()]
    body["budget"] = budget = _resolve_budget(args)
    started = time.perf_counter()
    try:
        entry = _solve_entry(kind, codes.x_number(g, kind, budget), args, started)
    except codes.NotAdmissibleError as exc:
        body["error"] = {"type": "not_admissible", "kind": exc.kind.value, "reason": exc.reason}
        lines += [f"kind: {exc.kind.value}", f"not admissible: {exc.reason}"]
        return body, lines, EXIT_NOT_ADMISSIBLE
    body["results"] = [entry]
    lines += [
        f"kind: {entry['kind']}",
        f"size: {entry['size']}",
        "witness: " + " ".join(map(str, entry["witness"])),
        f"optimal: {'yes' if entry['optimal'] else 'no'}{_unproven(entry['optimal'])}",
        f"nodes: {entry['nodes']}",
        f"time: {entry['wall_ms']} ms",
    ]
    return body, lines, EXIT_OK if entry["optimal"] else EXIT_BUDGET


def _cmd_verify(args) -> tuple[dict, list, int]:
    g, body, lines = _load_graph(args)
    kind = codes.CodeKind[args.kind.upper()]
    code = _parsed(VertexSet.of, g.n, args.code)
    accepted = codes.verify_code(g, kind, code)
    entry = {"kind": kind.value, "code": code.sorted_ids(), "accepted": accepted}
    body["results"] = [entry]
    lines += [
        f"kind: {kind.value}",
        "code: " + " ".join(map(str, entry["code"])),
        f"verdict: {'accept' if accepted else 'reject'}",
    ]
    return body, lines, EXIT_OK


def _check(name: str, holds: bool, detail: str) -> dict:
    return {"name": name, "holds": holds, "detail": detail}


def _check_lines(checks: list[dict], failure: str) -> Iterator[str]:
    """One line per check, marked ok or with the failure word."""
    return (f"[{'ok' if c['holds'] else failure}] {c['name']}: {c['detail']}" for c in checks)


def _cmd_relations(args) -> tuple[dict, list, int]:
    g, body, lines = _load_graph(args)
    budget = _resolve_budget(args)
    numbers: dict[codes.CodeKind, dict] = {}
    for kind in codes.CodeKind:
        reason = codes.admissibility_failure(g, kind)
        if reason is not None:
            numbers[kind] = {"kind": kind.value, "admissible": False, "reason": reason}
    # One pass over the admissible kinds, each search bounded and started
    # by the kinds solved before it; wall_ms is each kind's share.
    started = time.perf_counter()
    for kind, result in codes.x_numbers(g, set(codes.CodeKind) - numbers.keys(), budget):
        numbers[kind] = _solve_entry(kind, result, args, started) | {"admissible": True}
        started = time.perf_counter()

    # The checks read proven sizes only; an incumbent is no X-number.
    size = {kind: e["size"] for kind, e in numbers.items() if e.get("optimal")}
    checks = [_check(f"{lo.value}<={hi.value}", size[lo] <= size[hi], f"{size[lo]} <= {size[hi]} [{case}]")
              for lo, hi, case in codes.KIND_INEQUALITIES if lo in size and hi in size]

    K = codes.CodeKind
    fd, ftd = size.get(K.FD), size.get(K.FTD)
    if fd is not None and 0 in g.rows:
        x = g.rows.index(0)  # G - x: no row holds x, so shift the bits above x down
        low = (1 << x) - 1
        rest = Graph(g.n - 1, tuple(row & low | row >> 1 & ~low
                                    for v, row in enumerate(g.rows) if v != x))
        sub = codes.x_number(rest, K.FTD, budget)
        if sub.optimal:
            checks.append(_check("FD(G)=FTD(G-isolated)+1", fd == sub.size + 1, f"{fd} == {sub.size}+1"))
    elif fd is not None and ftd is not None:  # a proven FTD means no isolated vertex
        # The gap's upper half is the row FD<=FTD; the max-form bounds follow from the rows.
        checks.append(_check("FTD-1<=FD", ftd - 1 <= fd, f"{ftd}-1 <= {fd}"))

    body.update(budget=budget, results=[numbers[k] for k in codes.CodeKind], checks=checks,
                violations=[c["name"] for c in checks if not c["holds"]])
    for kind in codes.CodeKind:
        entry = numbers[kind]
        if not entry.get("admissible"):
            lines.append(f"{kind.value}: not admissible ({entry['reason']})")
        else:
            lines.append(f"{kind.value}: {entry['size']}{_unproven(entry['optimal'])}")
    lines += [f"checks: {sum(c['holds'] for c in checks)}/{len(checks)} hold",
              _check_lines(checks, "VIOLATION")]
    exhausted = any(e.get("admissible") and not e.get("optimal") for e in numbers.values())
    return body, lines, EXIT_BUDGET if exhausted else EXIT_OK


def _cmd_reduce(args) -> tuple[dict, list, int]:
    text = Path(args.cnf).read_text(encoding="utf-8")
    formula = sat_reduction.parse_dimacs(text)
    n, m = formula.num_vars, formula.num_clauses
    if args.check and n > sat_reduction.BRUTE_FORCE_VAR_CAP:
        raise _UsageError(f"--check is capped at {sat_reduction.BRUTE_FORCE_VAR_CAP} variables (got {n})")
    gg = sat_reduction.build_gadget(formula)
    body: dict = {
        "cnf": {"source": f"file:{args.cnf}", "variables": n, "clauses": m},
        "gadget": {"vertices": gg.graph.n, "edges": gg.graph.num_edges},
    }
    lines = [
        f"source: file:{args.cnf}",
        f"formula: {n} variables, {m} clauses",
        f"gadget: {gg.graph.n} vertices, {gg.graph.num_edges} edges",
    ]
    labels = gg.labels
    if args.output:
        edges_path = Path(args.output + ".edges")
        labels_path = Path(args.output + ".labels.json")
        edges_path.write_text(format_edge_list(gg.graph), encoding="utf-8")
        labels_path.write_text(json.dumps(labels, indent=2, sort_keys=False) + "\n",
                               encoding="utf-8")
        body["output"] = {"edges": str(edges_path), "labels": str(labels_path)}
        lines.append(f"wrote: {edges_path} {labels_path}")
    else:
        body["edge_list"] = rows = format_edge_list(gg.graph).splitlines()
        body["labels"] = labels
        lines += ["edge list:", rows,
                  "labels:", (f"{name} -> {vid}" for name, vid in labels.items())]
    if not args.check:
        return body, lines, EXIT_OK

    budget = _resolve_budget(args)
    assignment = sat_reduction.brute_force_sat(formula)
    sat = assignment is not None
    K = codes.CodeKind
    # FTD first: its size less one bounds FD, and its code starts FD's search.
    results = dict(codes.x_numbers(gg.graph, (K.FTD, K.FD), budget))
    target = {K.FTD: 7 * n + 2 * m, K.FD: 7 * n + 2 * m - 1}
    proven = all(res.optimal for res in results.values())
    # The size checks read proven sizes only; an incumbent is no X-number.
    checks = [_check(f"sat<=>{kind.value}==7n+2m{'-1' * (kind is K.FD)}",
                     sat == (res.size == target[kind]),
                     f"sat={sat}, {kind.value}={res.size}, target={target[kind]}")
              for kind, res in results.items() if res.optimal]
    if sat:
        built = {kind: sat_reduction.code_from_assignment(gg, assignment, kind) for kind in results}
        checks += [_check(f"assignment-code-verifies-{kind.value}",
                          len(code) == target[kind] and codes.verify_code(gg.graph, kind, code),
                          f"|code|={len(code)}") for kind, code in built.items()]
        decoded = sat_reduction.assignment_from_code(gg, built[K.FTD])
        checks.append(_check("code-decodes-to-satisfying-assignment",
                             decoded is not None and sat_reduction.satisfies(formula, decoded),
                             f"decoded={decoded}"))
    elif proven:
        checks.append(_check("unsat=>both-strictly-larger",
                             all(res.size > target[kind] for kind, res in results.items()),
                             ", ".join(f"{kind.value}={res.size}>{target[kind]}"
                                       for kind, res in results.items())))
    check = body["check"] = {"satisfiable": sat, "checks": checks}
    lines.append(f"satisfiable: {'yes' if sat else 'no'}")
    for kind, res in results.items():
        check[kind.value.lower()] = {"size": res.size, "optimal": res.optimal, "nodes": res.nodes_explored}
        lines.append(f"{kind.value} number: {res.size}{_unproven(res.optimal)} (target {target[kind]})")
    lines.append(_check_lines(checks, "FAIL"))
    return body, lines, EXIT_OK if proven else EXIT_BUDGET


def _cmd_hypergraph(args) -> tuple[dict, list, int]:
    g, body, lines = _load_graph(args)
    kind = codes.CodeKind[args.kind.upper()]
    h = codes.build_hypergraph(g, kind)
    reduced = remove_redundant(h)
    empty = h.has_empty_edge()
    rows, reduced_rows = h.dump_lines(), reduced.dump_lines()
    body.update(kind=kind.value,
                hypergraph={"edges": rows, "count": len(h.edges)},
                reduced={"edges": reduced_rows, "count": len(reduced.edges)},
                empty_hyperedge=empty)
    lines.append(f"kind: {kind.value}")
    if empty:
        lines.append("warning: hypergraph contains an empty hyperedge (no code exists)")
    lines += [f"hyperedges ({len(h.edges)}):", rows,
              f"reduced hyperedges ({len(reduced.edges)}):", reduced_rows]
    return body, lines, EXIT_OK


def _cmd_family(args) -> tuple[dict, list, int]:
    g, spec = _parsed(families.graph_from_spec_string, args.spec)
    formulas = {} if spec is None else {
        kind.value: families.formula_x_number(spec, kind) for kind in codes.CodeKind}
    rows = format_edge_list(g).splitlines()
    body = {"spec": args.spec, "graph": {"vertices": g.n, "edges": g.num_edges},
            "edge_list": rows, "known_numbers": formulas}
    lines = [f"spec: {args.spec}", "edge list:", rows]
    if formulas:
        lines += ["known X-numbers:",
                  (f"{name}: {'-' if value is None else value}" for name, value in formulas.items())]
    return body, lines, EXIT_OK


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
        body, lines, exit_code = _COMMANDS[args.command](args)
        if args.json:
            sys.stdout.write(render_json({"format_version": FORMAT_VERSION,
                                          "command": _command_echo(args),
                                          "deterministic": args.deterministic, **body}))
        else:
            sys.stdout.write(render_text(lines))
        return exit_code
    except codes.NotAdmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except (_UsageError, GraphFormatError, sat_reduction.DimacsError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
