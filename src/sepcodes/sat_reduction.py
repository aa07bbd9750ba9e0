"""3-SAT to full-separation-code reduction at desk scale.

Encodes a CNF formula (clauses of at most three literals) as a graph on
10n + 3m vertices whose minimum full-separating codes mirror
satisfiability: the formula is satisfiable exactly when the graph has a
total-dominating full-separating code of size 7n + 2m (equivalently a
dominating one of size 7n + 2m - 1).

Per-variable widget (10 vertices v1 v2 v3 w1 w2 s1 s2 s3 z1 z2):
the six vertices v1, w1, w2, s1, s2, s3 induce a clique minus the four
edges w1w2, v1s1, v1s2, v1s3; v1-v2-v3 forms a chain leaving v3 pendant;
z1 and z2 hang off s1 and s2.  w1 stands for the positive literal, w2
for the negated one.  Per-clause widget: a 3-vertex chain u1-u2-u3; u1
is wired to the w-vertex of every literal in the clause.

Vertex ids: part p of variable i is 10(i-1) + _VAR_PARTS.index(p), named
'p^xi' ('v1^x3'); part p of clause j is 10n + 3(j-1) +
_CLAUSE_PARTS.index(p), named 'p^yj' ('u2^y1').

The module also carries the two translations (assignment -> code and
code -> assignment) and a brute-force satisfiability oracle used to
validate the correspondence on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .codes import CodeKind, is_full_separating
from .graphs import Graph, VertexSet, check_vertex_count

BRUTE_FORCE_VAR_CAP = 24

_VAR_PARTS = ("v1", "v2", "v3", "w1", "w2", "s1", "s2", "s3", "z1", "z2")
_CLAUSE_PARTS = ("u1", "u2", "u3")


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class CnfFormula:
    """CNF with 1..3 literals per clause.

    Literals are signed 1-based variable indexes: +i for the variable,
    -i for its negation.  No clause may mention a variable twice.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        for idx, clause in enumerate(self.clauses, start=1):
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {idx} has {len(clause)} literals (allowed: 1..3)")
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.num_vars:
                    raise ValueError(f"clause {idx}: literal {lit} out of range")
                if var in seen:
                    raise ValueError(f"clause {idx}: variable {var} appears twice")
                seen.add(var)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'c' comments, 'p cnf n m' header, 0-terminated clauses."""
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("expected 'p cnf <vars> <clauses>'", lineno)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("non-integer problem counts", lineno) from None
            continue
        if num_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad token {token!r}", lineno) from None
            if lit == 0:
                if len(current) > 3:
                    raise DimacsError(
                        f"clause has {len(current)} literals (allowed: 1..3)", lineno
                    )
                if not current:
                    raise DimacsError("empty clause", lineno)
                clauses.append(tuple(current))
                current.clear()
            else:
                current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause not terminated by 0")
    if len(clauses) != num_clauses:
        raise DimacsError(f"header announced {num_clauses} clauses, found {len(clauses)}")
    try:
        return CnfFormula(num_vars, tuple(clauses))
    except ValueError as exc:
        raise DimacsError(str(exc)) from None


def satisfies(formula: CnfFormula, assignment: Sequence[bool]) -> bool:
    """True iff every clause holds under the assignment (index i-1 <-> variable i)."""
    return all(
        any(assignment[lit - 1] if lit > 0 else not assignment[-lit - 1] for lit in clause)
        for clause in formula.clauses
    )


def brute_force_sat(formula: CnfFormula) -> tuple[bool, ...] | None:
    """First satisfying assignment in lexicographic order, or None.

    Capped at BRUTE_FORCE_VAR_CAP variables; this is a validation oracle,
    not a SAT solver.
    """
    if formula.num_vars > BRUTE_FORCE_VAR_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_VAR_CAP} variables, got {formula.num_vars}"
        )
    for assignment in itertools.product((False, True), repeat=formula.num_vars):
        if satisfies(formula, assignment):
            return assignment
    return None


@dataclass(frozen=True)
class GadgetGraph:
    """The encoded graph plus its formula; ids and names as in the module docstring."""

    graph: Graph
    formula: CnfFormula

    @property
    def labels(self) -> dict[str, int]:
        """Name -> id map in id order, e.g. labels['v1^x3'] == 20."""
        n, m = self.formula.num_vars, self.formula.num_clauses
        names = [f"{part}^x{i}" for i in range(1, n + 1) for part in _VAR_PARTS]
        names += [f"{part}^y{j}" for j in range(1, m + 1) for part in _CLAUSE_PARTS]
        return {name: vid for vid, name in enumerate(names)}

    def var_vertex(self, var: int, part: str) -> int:
        """Id of a variable-widget vertex, e.g. var_vertex(2, 'w1')."""
        if not 1 <= var <= self.formula.num_vars or part not in _VAR_PARTS:
            raise KeyError(f"{part}^x{var}")
        return 10 * (var - 1) + _VAR_PARTS.index(part)

    def clause_vertex(self, clause: int, part: str) -> int:
        """Id of a clause-widget vertex, e.g. clause_vertex(1, 'u3')."""
        if not 1 <= clause <= self.formula.num_clauses or part not in _CLAUSE_PARTS:
            raise KeyError(f"{part}^y{clause}")
        return 10 * self.formula.num_vars + 3 * (clause - 1) + _CLAUSE_PARTS.index(part)


def build_gadget(formula: CnfFormula) -> GadgetGraph:
    """Encode a formula as its 10n + 3m vertex gadget graph.

    A variable that occurs in no clause leaves its two literal vertices
    with identical neighborhoods, which makes the graph inadmissible for
    the full-separation codes; the size correspondence presumes every
    variable occurs somewhere.  Raises GraphFormatError before building
    anything when 10n + 3m exceeds the graph vertex limit.
    """
    n, m = formula.num_vars, formula.num_clauses
    check_vertex_count(10 * n + 3 * m)
    edges: list[tuple[int, int]] = []
    for base in range(0, 10 * n, 10):
        v1, v2, v3, w1, w2, s1, s2, s3, z1, z2 = range(base, base + 10)
        missing = ((w1, w2), (v1, s1), (v1, s2), (v1, s3))
        edges.extend(
            pair for pair in itertools.combinations((v1, w1, w2, s1, s2, s3), 2)
            if pair not in missing
        )
        edges.extend([(v1, v2), (v2, v3), (s1, z1), (s2, z2)])
    for base, clause in zip(range(10 * n, 10 * n + 3 * m, 3), formula.clauses):
        u1, u2, u3 = range(base, base + 3)
        edges.extend([(u1, u2), (u2, u3)])
        for lit in clause:
            edges.append((u1, 10 * (abs(lit) - 1) + _VAR_PARTS.index("w1" if lit > 0 else "w2")))
    return GadgetGraph(Graph.from_edges(10 * n + 3 * m, edges), formula)


def code_from_assignment(
    gg: GadgetGraph, assignment: Sequence[bool], kind: CodeKind
) -> VertexSet:
    """Build the canonical code witnessing a satisfying assignment.

    Picks u1, u2 of every clause widget and v1, v2, z1, z2, s1, s2 of
    every variable widget, plus the w-vertex matching each variable's
    truth value, for a total of 7n + 2m vertices.  The dominating variant
    drops s1 of the first variable, one vertex fewer.  The result is a
    verified code only when the assignment actually satisfies the formula.
    """
    if kind not in (CodeKind.FD, CodeKind.FTD):
        raise ValueError("assignment translation targets the full-separation codes")
    n, m = gg.formula.num_vars, gg.formula.num_clauses
    if len(assignment) != n:
        raise ValueError(f"assignment length {len(assignment)} != {n} variables")
    picks = [gg.clause_vertex(j, part) for j in range(1, m + 1) for part in ("u1", "u2")]
    for i, value in enumerate(assignment, start=1):
        for part in ("v1", "v2", "z1", "z2", "s1", "s2", "w1" if value else "w2"):
            picks.append(gg.var_vertex(i, part))
    if kind is CodeKind.FD:
        picks.remove(gg.var_vertex(1, "s1"))
    return VertexSet.of(gg.graph.n, picks)


def assignment_from_code(gg: GadgetGraph, code: VertexSet) -> tuple[bool, ...] | None:
    """Decode an assignment from a full-separating set, if it selects
    exactly one literal vertex per variable.

    Returns None when the precondition fails (the set is not
    full-separating, or some variable has zero or two selected
    w-vertices).  A decoded assignment always satisfies the originating
    formula: each clause's u1/u3 pair is separated only through a selected
    wired literal vertex.
    """
    if not is_full_separating(gg.graph, code):
        return None
    values: list[bool] = []
    for i in range(1, gg.formula.num_vars + 1):
        w1 = gg.var_vertex(i, "w1") in code
        w2 = gg.var_vertex(i, "w2") in code
        if w1 == w2:
            return None
        values.append(w1)
    return tuple(values)

