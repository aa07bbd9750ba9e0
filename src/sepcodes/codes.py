"""The eight separating-domination code types and their cover encodings.

Each code type pairs a domination flavor (ordinary or total) with a
separation flavor (closed, open, locating, or full).  For every type X the
X-hypergraph of a graph G is built so that a vertex subset is an X-code of
G exactly when it covers the hypergraph; its covering number is the
X-number of G.

A type is the paper's three properties: total picks the rows of the
domination family, closed those of the adjacent pairs, and open those of
the non-adjacent pairs (SeparationFamilies says which rows).  Locating
is neither closed nor open, full is both.

This module also provides the admissibility test, the definitional
verifier (independent of the hypergraph route; full separation is closed
plus open separation), full-separation forced vertices, and the
end-to-end exact X-number computation, for one kind or for several
kinds in one pass that shares bounds and codes.

Everything here reads the graph's stored rows, ``g.rows`` (open
neighborhoods N(v)) and ``g.closed_rows`` (closed neighborhoods N[v]):
a domination row is a stored row, a trace N[v] & C or N(v) & C is a row
masked by the code, and a pair hyperedge is the xor of two rows.
Admissibility, the verifiers and forced vertices make one pass over the
rows (plus one row lookup per edge end for forced vertices); only the
hypergraph build visits vertex pairs.  It skips the pairs at distance 3
or more wherever their edges hold a domination row (every kind but FD
and OD), and refuses graphs above :data:`MAX_HYPERGRAPH_VERTICES`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate
from math import comb
from typing import Collection, Iterator, Sequence

from .graphs import Graph, GraphFormatError, UniverseMismatchError, VertexSet, bit_ids, first_equal_row_pair
from .hypergraphs import CoverResult, Hypergraph, min_cover


class CodeKind(enum.Enum):
    ID = "ID"
    ITD = "ITD"
    LD = "LD"
    LTD = "LTD"
    FD = "FD"
    FTD = "FTD"
    OD = "OD"
    OTD = "OTD"


@dataclass(frozen=True)
class SeparationFamilies:
    """One code type as the paper's three properties, each selecting the
    rows of one hyperedge family:

    * total: the domination rows are N(v), else N[v];
    * closed: the closed traces N[v] & C must be distinct, so adjacent
      pairs give N[u] ^ N[v], else N(u) ^ N(v);
    * open: the open traces N(v) & C must be distinct, so non-adjacent
      pairs give N(u) ^ N(v), else N[u] ^ N[v].

    True always selects the contained rows: N(v) lies in N[v]; for
    adjacent u, v, N[u] ^ N[v] is N(u) ^ N(v) less {u, v}; for
    non-adjacent u, v, N(u) ^ N(v) is N[u] ^ N[v] less {u, v}.
    """

    total: bool
    closed: bool
    open: bool


FAMILIES: dict[CodeKind, SeparationFamilies] = {
    CodeKind.ID: SeparationFamilies(total=False, closed=True, open=False),
    CodeKind.ITD: SeparationFamilies(total=True, closed=True, open=False),
    CodeKind.LD: SeparationFamilies(total=False, closed=False, open=False),
    CodeKind.LTD: SeparationFamilies(total=True, closed=False, open=False),
    CodeKind.FD: SeparationFamilies(total=False, closed=True, open=True),
    CodeKind.FTD: SeparationFamilies(total=True, closed=True, open=True),
    CodeKind.OD: SeparationFamilies(total=False, closed=False, open=True),
    CodeKind.OTD: SeparationFamilies(total=True, closed=False, open=True),
}

# gamma^lo <= gamma^hi whenever both types are admissible: hi has lo's
# properties plus one, which selects contained rows, so every edge of the
# hi-hypergraph lies inside the matching lo edge.  The third field names
# the family whose rows changed.
KIND_INEQUALITIES: tuple[tuple[CodeKind, CodeKind, str], ...] = tuple(
    (lo, hi, case)
    for prop, case in (("total", "domination"), ("closed", "adjacent"), ("open", "nonadjacent"))
    for lo in CodeKind
    if not getattr(FAMILIES[lo], prop)
    for hi in CodeKind
    if FAMILIES[hi] == replace(FAMILIES[lo], **{prop: True})
)


class NotAdmissibleError(ValueError):
    """The graph has no code of the requested kind."""

    def __init__(self, kind: CodeKind, reason: str):
        super().__init__(f"graph is not {kind.value}-admissible: {reason}")
        self.kind = kind
        self.reason = reason


# Largest vertex count the pair build accepts.  For FD and OD it holds
# one n-bit edge per vertex pair, so its memory grows as n^3: building it
# for path:1000 (FD) peaks near 87 MB of process memory, and n = 2,000
# costs about eight times that.  Larger graphs are refused before the
# pair loop, with a GraphFormatError.
MAX_HYPERGRAPH_VERTICES = 2_000


class CoverCodeMismatchError(RuntimeError):
    """A minimum cover of the X-hypergraph failed the definitional check.

    This signals a defect in the encoding or the search, never bad input.
    """


def _trace_bound(g: Graph, kind: CodeKind) -> int:
    """Degree-budget lower bound on the X-number of g, if g has codes.

    A code C of size k gives distinct non-empty traces N[v] & C (ID, ITD)
    or N(v) & C to n vertices (n - 1 for FD and OD, the n - k outside C
    for LD and LTD), of sizes summing to at most the k largest deg(c) (+1
    if closed).  The most distinct subsets of C within that sum take
    C(k, s) of each size s = 1, 2, ...; the least k with enough is
    bisected.  This sharpens 2n/(D+2) for ID (Karpovsky, Chakrabarty and
    Levitin, 1998) and 2n/(D+1) for OTD (Seo and Slater, 2010), D the
    maximum degree.
    """
    fam = FAMILIES[kind]
    plus = int(fam.closed and not fam.open)  # ID, ITD: closed traces
    sizes = sorted((row.bit_count() + plus for row in g.rows), reverse=True)
    totals = list(accumulate(sizes, initial=0))
    spare = int(fam.open and not fam.total)  # FD, OD: one open trace may be empty

    def enough(k: int) -> bool:
        need = g.n - (spare if fam.closed or fam.open else k)  # LD, LTD: the n - k outside C
        left = totals[k]
        for s in range(1, min(k, sizes[0]) + 1):
            take = min(comb(k, s), left // s)
            if not take:
                break
            need -= take
            left -= take * s
        return need <= 0

    return bisect_left(range(g.n), True, key=enough)


def build_hypergraph(g: Graph, kind: CodeKind) -> Hypergraph:
    """The X-hypergraph of g whose covers are exactly the X-codes of g.

    The domination rows, then one edge per vertex pair.  For u, v at
    distance 3 or more N[u] and N[v] are disjoint, so the pair's edge is
    N[u] | N[v], or N(u) | N(v) when the kind is open; it contains u's row
    when the kind is total (the row is N(u)) or not open (the edge holds
    N[u]), so the build skips those pairs for every kind but FD and OD.
    Edge order: the neighborhoods by vertex id, then the differences of
    the adjacent pairs, then of the non-adjacent pairs, each in
    lexicographic order.  ``lower`` is :func:`_trace_bound`.  A
    non-admissible graph yields an empty hyperedge.  Raises
    GraphFormatError above MAX_HYPERGRAPH_VERTICES vertices.
    """
    n = g.n
    if n > MAX_HYPERGRAPH_VERTICES:
        raise GraphFormatError(
            f"{n} vertices exceed the hypergraph limit of {MAX_HYPERGRAPH_VERTICES}"
            " (one hyperedge per vertex pair)"
        )
    fam = FAMILIES[kind]
    near = fam.total or not fam.open
    closed = g.closed_rows
    dom_rows = g.rows if fam.total else closed
    adj_rows = closed if fam.closed else g.rows
    non_rows = g.rows if fam.open else closed
    adjacent: list[int] = []
    nonadjacent: list[int] = []
    # The one pass over vertex pairs u < v.  With near, v runs over u's
    # radius-2 ball, the OR of the closed rows of N[u], or over every
    # v > u as soon as the ball holds them all (dense graphs).
    for u, row in enumerate(g.rows):
        au, nu = adj_rows[u], non_rows[u]
        others = range(u + 1, n)
        if near:
            above = (1 << n) - (2 << u)
            ball = 0
            for w in bit_ids(closed[u]):
                ball |= closed[w]
                if ball & above == above:
                    break
            else:
                others = bit_ids(ball & above)
        for v in others:
            if row >> v & 1:
                adjacent.append(au ^ adj_rows[v])
            else:
                nonadjacent.append(nu ^ non_rows[v])
    return Hypergraph(n, [*dom_rows, *adjacent, *nonadjacent], _trace_bound(g, kind))


def admissibility_failure(g: Graph, kind: CodeKind) -> str | None:
    """Why g has no code of this kind, or None if it does.

    Structural test: an empty hyperedge can only come from a zero row
    (an isolated vertex, when the kind is total), a closed-twin pair (when
    it is closed), or an open-twin pair (when it is open, which includes
    any two isolated vertices).  The reason names the first zero row or
    the lexicographically first such pair, found in one pass over the
    rows that lists no pairs.
    """
    fam = FAMILIES[kind]
    if fam.total and 0 in g.rows:
        return f"isolated vertex {g.rows.index(0)}"
    if fam.closed:
        twins = first_equal_row_pair(g.closed_rows)
        if twins:
            return f"closed twins {twins}"
    if fam.open:
        twins = first_equal_row_pair(g.rows)
        if twins:
            return f"open twins {twins}"
    return None


def is_admissible(g: Graph, kind: CodeKind) -> bool:
    """True iff g has a code of this kind."""
    return admissibility_failure(g, kind) is None


# --- definitional verifiers (no hypergraph involved) ----------------------


def _code_mask(g: Graph, c: VertexSet) -> int:
    """The mask of c, which must live on the vertices of g."""
    if c.n != g.n:
        raise UniverseMismatchError(f"code universe {c.n} != graph order {g.n}")
    return c.mask


def _separates(rows: Sequence[int], cm: int) -> bool:
    """The traces row & cm are pairwise distinct."""
    return len({row & cm for row in rows}) == len(rows)


def is_full_separating(g: Graph, c: VertexSet) -> bool:
    """Every pair u, v is separated by C within (N(u) sym N(v)) - {u,v}.

    For adjacent pairs that punctured difference is N[u] sym N[v], and for
    non-adjacent pairs it is N(u) sym N(v), so full separation is exactly
    closed separation plus open separation.  The other equivalent forms
    live in the test suite as independent oracles.
    """
    cm = _code_mask(g, c)
    return _separates(g.closed_rows, cm) and _separates(g.rows, cm)


def verify_code(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """Check c against the definition of a kind-code, trace by trace.

    Domination asks every closed row (when the kind is total: every open
    row) to meet c.  When the kind is closed, the closed traces N[v] & C
    must be distinct; when it is open, the open traces N(v) & C.  When it
    is neither (locating), the open traces of the vertices outside c must
    be distinct.  This path never touches the hypergraph encoding, so it
    serves as an independent oracle for the cover route.
    """
    cm = _code_mask(g, c)
    fam = FAMILIES[kind]
    if not all(row & cm for row in (g.rows if fam.total else g.closed_rows)):
        return False
    if not (fam.closed or fam.open):
        return _separates([row for v, row in enumerate(g.rows) if not cm >> v & 1], cm)
    return (not fam.closed or _separates(g.closed_rows, cm)) and (not fam.open or _separates(g.rows, cm))


def verify_code_fast(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """:func:`verify_code` behind a guard on the kind, FD or FTD: no faster
    check.  Not exported; like :func:`~sepcodes.hypergraphs.greedy_cover`, it
    stays only while ``bench/workloads.py`` reads it.

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
    open_rows, closed_rows = set(g.rows), set(g.closed_rows)
    degrees = {row.bit_count() for row in g.rows}
    forced = 0
    for row, closed in zip(g.rows, g.closed_rows):
        if row.bit_count() - 1 not in degrees:
            continue
        for w in bit_ids(row & ~forced):
            bit = 1 << w
            if row ^ bit in open_rows or closed ^ bit in closed_rows:
                forced |= bit
    return VertexSet(g.n, forced)


def x_number(g: Graph, kind: CodeKind, budget: int | None = None) -> CoverResult:
    """Exact X-number of g: minimum cover of the X-hypergraph.

    This is the one-kind pass of :func:`x_numbers`, where no other kind
    gives a bound or a first incumbent.  The cover search reads
    :func:`build_hypergraph` and stops at a cover meeting
    :func:`_trace_bound`.  Raises NotAdmissibleError when no code of this
    kind exists, GraphFormatError above MAX_HYPERGRAPH_VERTICES vertices.
    On budget exhaustion the result carries the best code found, flagged
    non-optimal.
    """
    [(_, result)] = x_numbers(g, (kind,), budget)
    return result


# The order in which x_numbers solves kinds.  Each kind follows the kinds
# below it in KIND_INEQUALITIES, except that OTD precedes OD and FTD
# precedes FD, so their codes can start the OD and FD searches.
LATTICE_ORDER = tuple(CodeKind[k] for k in "LD ID LTD ITD OTD OD FTD FD".split())


def x_numbers(g: Graph, kinds: Collection[CodeKind],
              budget: int | None = None) -> Iterator[tuple[CodeKind, CoverResult]]:
    """The X-number of each of the given kinds, solved one after the other
    in LATTICE_ORDER, each yielded once solved; :func:`x_number` is the
    pass over one kind.

    A kind's solve checks admissibility, searches
    :func:`build_hypergraph` and checks the witness against
    :func:`verify_code`.  Each search reads what the pass has settled.
    Its lower bound is the largest size proven for a kind below it in
    KIND_INEQUALITIES, for FD also a proven FTD - 1 (the paper's
    FTD - 1 <= FD), where that beats the trace bound.  Its first incumbent
    is the smallest code found for a kind above it, every such code being
    a code of this kind, where that beats the greedy cover.  Every search
    has its own budget, and visits no more nodes than alone.
    """
    proven: dict[CodeKind, int] = {}
    found: dict[CodeKind, int] = {}  # kind -> mask of its code
    for kind in LATTICE_ORDER:
        if kind not in kinds:
            continue
        lower = max([proven[lo] for lo, hi, _ in KIND_INEQUALITIES if hi is kind and lo in proven],
                    default=0)
        if kind is CodeKind.FD and CodeKind.FTD in proven:
            lower = max(lower, proven[CodeKind.FTD] - 1)
        start = min([found[hi] for lo, hi, _ in KIND_INEQUALITIES if lo is kind and hi in found],
                    key=int.bit_count, default=None)
        failure = admissibility_failure(g, kind)
        if failure is not None:
            raise NotAdmissibleError(kind, failure)
        h = build_hypergraph(g, kind)
        if lower > h.lower:
            h = replace(h, lower=lower)
        result = min_cover(h, budget, start)
        if not verify_code(g, kind, result.witness):
            raise CoverCodeMismatchError(
                f"cover {result.witness.sorted_ids()} of the {kind.value}-hypergraph "
                f"is not a {kind.value}-code"
            )
        found[kind] = result.witness.mask
        if result.optimal:
            proven[kind] = result.size
        yield kind, result

