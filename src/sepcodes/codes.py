"""The eight separating-domination code types and their cover encodings.

Each code type pairs a domination flavor (ordinary or total) with a
separation flavor (closed, open, locating, or full).  For every type X the
X-hypergraph of a graph G is built so that a vertex subset is an X-code of
G exactly when it covers the hypergraph; its covering number is the
X-number of G.

The hyperedge recipe per type is a triple of families:

* domination row: all closed neighborhoods N[v], or all open N(v);
* adjacent pairs: symmetric differences of closed or open neighborhoods;
* non-adjacent pairs: symmetric differences of closed or open neighborhoods.

This module also provides the admissibility test, one definitional
verifier per separation flavor (independent of the hypergraph route; full
separation is closed plus open separation), full-separation forced
vertices, and the end-to-end exact X-number computation.  Admissibility,
the verifiers and forced vertices work on neighborhood rows (one pass
over the vertices, plus one row lookup per edge end for forced
vertices); only the hypergraph build visits vertex pairs, since its
output holds one edge per pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, VertexSet, bit_ids
from .hypergraphs import CoverResult, Hypergraph, min_cover


class Nbhd(enum.Enum):
    """Which neighborhood flavor a hyperedge family uses."""

    CLOSED = "closed"
    OPEN = "open"


class CodeKind(enum.Enum):
    ID = "ID"
    ITD = "ITD"
    LD = "LD"
    LTD = "LTD"
    FD = "FD"
    FTD = "FTD"
    OD = "OD"
    OTD = "OTD"

    @classmethod
    def parse(cls, text: str) -> "CodeKind":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            valid = ", ".join(k.value.lower() for k in cls)
            raise ValueError(f"unknown code kind {text!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class SeparationFamilies:
    """Hyperedge recipe of one code type (see module docstring)."""

    domination: Nbhd
    adjacent_pairs: Nbhd
    nonadjacent_pairs: Nbhd


_C, _O = Nbhd.CLOSED, Nbhd.OPEN

FAMILIES: dict[CodeKind, SeparationFamilies] = {
    CodeKind.ID: SeparationFamilies(_C, _C, _C),
    CodeKind.ITD: SeparationFamilies(_O, _C, _C),
    CodeKind.LD: SeparationFamilies(_C, _O, _C),
    CodeKind.LTD: SeparationFamilies(_O, _O, _C),
    CodeKind.FD: SeparationFamilies(_C, _C, _O),
    CodeKind.FTD: SeparationFamilies(_O, _C, _O),
    CodeKind.OD: SeparationFamilies(_C, _O, _O),
    CodeKind.OTD: SeparationFamilies(_O, _O, _O),
}

# gamma^lo <= gamma^hi whenever both types are admissible; each entry flips
# exactly one family between the two types.  "domination": total-domination
# edges are contained in domination edges; "adjacent": closed-pair diffs are
# contained in open-pair diffs; "nonadjacent": open-pair diffs are contained
# in closed-pair diffs.
KIND_INEQUALITIES: tuple[tuple[CodeKind, CodeKind, str], ...] = (
    (CodeKind.ID, CodeKind.ITD, "domination"),
    (CodeKind.LD, CodeKind.LTD, "domination"),
    (CodeKind.FD, CodeKind.FTD, "domination"),
    (CodeKind.OD, CodeKind.OTD, "domination"),
    (CodeKind.LD, CodeKind.ID, "adjacent"),
    (CodeKind.LTD, CodeKind.ITD, "adjacent"),
    (CodeKind.OD, CodeKind.FD, "adjacent"),
    (CodeKind.OTD, CodeKind.FTD, "adjacent"),
    (CodeKind.ID, CodeKind.FD, "nonadjacent"),
    (CodeKind.ITD, CodeKind.FTD, "nonadjacent"),
    (CodeKind.LD, CodeKind.OD, "nonadjacent"),
    (CodeKind.LTD, CodeKind.OTD, "nonadjacent"),
)


class NotAdmissibleError(ValueError):
    """The graph has no code of the requested kind."""

    def __init__(self, kind: CodeKind, reason: str):
        super().__init__(f"graph is not {kind.value}-admissible: {reason}")
        self.kind = kind
        self.reason = reason


class CoverCodeMismatchError(RuntimeError):
    """A minimum cover of the X-hypergraph failed the definitional check.

    This signals a defect in the encoding or the search, never bad input.
    """


def build_hypergraph(g: Graph, kind: CodeKind) -> Hypergraph:
    """The X-hypergraph of g whose covers are exactly the X-codes of g.

    Edge order is deterministic: all neighborhoods by vertex id, then
    symmetric differences of all adjacent pairs in lexicographic order,
    then of all non-adjacent pairs in lexicographic order.  Non-admissible
    graphs simply yield a hypergraph containing an empty hyperedge.
    """
    fam = FAMILIES[kind]
    n = g.n
    open_rows = [g.neighbor_mask(v) for v in range(n)]
    rows = {Nbhd.OPEN: open_rows, Nbhd.CLOSED: [row | 1 << v for v, row in enumerate(open_rows)]}
    adj_rows, non_rows = rows[fam.adjacent_pairs], rows[fam.nonadjacent_pairs]
    adjacent: list[int] = []
    nonadjacent: list[int] = []
    # The one pass over vertex pairs: every pair contributes one edge.
    for u, row in enumerate(open_rows):
        au, nu = adj_rows[u], non_rows[u]
        for v in range(u + 1, n):
            if row >> v & 1:
                adjacent.append(au ^ adj_rows[v])
            else:
                nonadjacent.append(nu ^ non_rows[v])
    return Hypergraph(n, rows[fam.domination] + adjacent + nonadjacent)


def admissibility_failure(g: Graph, kind: CodeKind) -> str | None:
    """Why g has no code of this kind, or None if it does.

    Structural test: an empty hyperedge can only come from an isolated
    vertex (open-neighborhood domination row), a closed-twin pair
    (closed adjacent diffs), or an open-twin pair (open non-adjacent
    diffs, which includes any two isolated vertices).
    """
    fam = FAMILIES[kind]
    if fam.domination is Nbhd.OPEN:
        isolated = g.isolated_vertices()
        if isolated:
            return f"isolated vertex {next(iter(isolated))}"
    if fam.adjacent_pairs is Nbhd.CLOSED:
        twins = g.closed_twins()
        if twins:
            return f"closed twins {twins[0]}"
    if fam.nonadjacent_pairs is Nbhd.OPEN:
        twins = g.open_twins()
        if twins:
            return f"open twins {twins[0]}"
    return None


def is_admissible(g: Graph, kind: CodeKind) -> bool:
    """True iff g has a code of this kind."""
    return admissibility_failure(g, kind) is None


# --- definitional verifiers (no hypergraph involved) ----------------------


def _check_universe(g: Graph, c: VertexSet) -> None:
    if c.n != g.n:
        raise ValueError(f"code universe {c.n} != graph order {g.n}")


def is_dominating(g: Graph, c: VertexSet) -> bool:
    """Every vertex has a code vertex in its closed neighborhood."""
    _check_universe(g, c)
    cm = c.mask
    return all((g.neighbor_mask(v) | 1 << v) & cm for v in range(g.n))


def is_total_dominating(g: Graph, c: VertexSet) -> bool:
    """Every vertex has a code vertex among its neighbors."""
    _check_universe(g, c)
    cm = c.mask
    return all(g.neighbor_mask(v) & cm for v in range(g.n))


def is_closed_separating(g: Graph, c: VertexSet) -> bool:
    """The traces N[v] & C are pairwise distinct."""
    _check_universe(g, c)
    cm = c.mask
    traces = {(g.neighbor_mask(v) | 1 << v) & cm for v in range(g.n)}
    return len(traces) == g.n


def is_open_separating(g: Graph, c: VertexSet) -> bool:
    """The traces N(v) & C are pairwise distinct."""
    _check_universe(g, c)
    cm = c.mask
    traces = {g.neighbor_mask(v) & cm for v in range(g.n)}
    return len(traces) == g.n


def is_locating(g: Graph, c: VertexSet) -> bool:
    """The traces N(v) & C are pairwise distinct over vertices outside C."""
    _check_universe(g, c)
    cm = c.mask
    outside = [v for v in range(g.n) if not cm >> v & 1]
    traces = {g.neighbor_mask(v) & cm for v in outside}
    return len(traces) == len(outside)


def is_full_separating(g: Graph, c: VertexSet) -> bool:
    """Every pair u, v is separated by C within (N(u) sym N(v)) - {u,v}.

    For adjacent pairs that punctured difference is N[u] sym N[v], and for
    non-adjacent pairs it is N(u) sym N(v), so full separation is exactly
    closed separation plus open separation.  The other equivalent forms
    live in the test suite as independent oracles.
    """
    return is_closed_separating(g, c) and is_open_separating(g, c)


def verify_code(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """Check c against the definition of a kind-code, trace by trace.

    This path never touches the hypergraph encoding, so it serves as an
    independent oracle for the cover route.
    """
    fam = FAMILIES[kind]
    if fam.domination is Nbhd.CLOSED:
        if not is_dominating(g, c):
            return False
    elif not is_total_dominating(g, c):
        return False
    if kind in (CodeKind.ID, CodeKind.ITD):
        return is_closed_separating(g, c)
    if kind in (CodeKind.OD, CodeKind.OTD):
        return is_open_separating(g, c)
    if kind in (CodeKind.LD, CodeKind.LTD):
        return is_locating(g, c)
    return is_full_separating(g, c)


def verify_code_fast(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """:func:`verify_code` for the full-separation codes FD and FTD.

    Raises ValueError for any other kind.
    """
    if kind not in (CodeKind.FD, CodeKind.FTD):
        raise ValueError("fast verification applies to the full-separation codes only")
    return verify_code(g, kind, c)


def forced_vertices(g: Graph) -> VertexSet:
    """Vertices that belong to every full-separating set of g.

    A vertex w is forced when it is the single element of the punctured
    symmetric difference (N(u)-{v}) sym (N(v)-{u}) of some pair u,v: that
    set must be hit, and w is the only candidate.  Take u to be the member
    adjacent to w.  The difference is {w} exactly when v's open row is
    N(u)-{w} (v not adjacent to u) or v's closed row is N[u]-{w} (v
    adjacent to u); an isolated v paired with a pendant u is the first
    case.  So each w in N(u) is one row lookup, and u is skipped unless
    some vertex has degree deg(u)-1, which both cases need.
    """
    n = g.n
    rows = [g.neighbor_mask(v) for v in range(n)]
    open_rows = set(rows)
    closed_rows = {row | 1 << v for v, row in enumerate(rows)}
    degrees = {row.bit_count() for row in rows}
    forced = 0
    for u, row in enumerate(rows):
        if row.bit_count() - 1 not in degrees:
            continue
        closed = row | 1 << u
        for w in bit_ids(row & ~forced):
            bit = 1 << w
            if row ^ bit in open_rows or closed ^ bit in closed_rows:
                forced |= bit
    return VertexSet(n, forced)


def x_number(g: Graph, kind: CodeKind, budget: int | None = None) -> CoverResult:
    """Exact X-number of g: minimum cover of the X-hypergraph.

    Raises NotAdmissibleError when no code of this kind exists.  On budget
    exhaustion the result carries the best code found, flagged non-optimal.
    """
    failure = admissibility_failure(g, kind)
    if failure is not None:
        raise NotAdmissibleError(kind, failure)
    result = min_cover(build_hypergraph(g, kind), budget)
    if not verify_code(g, kind, result.witness):
        raise CoverCodeMismatchError(
            f"cover {result.witness.sorted_ids()} of the {kind.value}-hypergraph "
            f"is not a {kind.value}-code"
        )
    return result
