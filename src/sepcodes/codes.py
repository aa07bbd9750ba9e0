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

This module also provides direct definitional verifiers (independent of
the hypergraph route), distance-2 fast verifiers for the full-separation
codes, full-separation forced vertices, and the end-to-end exact X-number
computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, VertexSet
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
    masks: list[int] = []
    if fam.domination is Nbhd.CLOSED:
        masks.extend(g.closed_neighbor_mask(v) for v in range(n))
    else:
        masks.extend(g.neighbor_mask(v) for v in range(n))
    for want_adjacent, flavor in ((True, fam.adjacent_pairs), (False, fam.nonadjacent_pairs)):
        closed = flavor is Nbhd.CLOSED
        for u in range(n):
            row = g.neighbor_mask(u)
            cu = row | 1 << u
            for v in range(u + 1, n):
                if (row >> v & 1 == 1) != want_adjacent:
                    continue
                if closed:
                    masks.append(cu ^ (g.neighbor_mask(v) | 1 << v))
                else:
                    masks.append(row ^ g.neighbor_mask(v))
    return Hypergraph(n, masks)


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
    """Check c against the definition of a kind-code, pair by pair.

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


def _separates_near_pairs(g: Graph, cm: int) -> bool:
    # Full separation restricted to pairs at distance <= 2 (adjacent or
    # sharing a neighbor), via the punctured symmetric difference.
    n = g.n
    for u in range(n):
        nu = g.neighbor_mask(u)
        for v in range(u + 1, n):
            nv = g.neighbor_mask(v)
            if not (nu >> v & 1 or nu & nv):
                continue
            if not (nu ^ nv) & ~(1 << u | 1 << v) & cm:
                return False
    return True


def verify_code_fast(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """Distance-2 shortcut verifier for the full-separation codes.

    Pairs at distance >= 3 have disjoint neighborhoods, so (total-)
    domination already separates them; only pairs at distance <= 2 need an
    explicit check.  Agrees with :func:`verify_code` on every input.
    """
    if kind not in (CodeKind.FD, CodeKind.FTD):
        raise ValueError("fast verification applies to the full-separation codes only")
    _check_universe(g, c)
    cm = c.mask
    if kind is CodeKind.FTD:
        if not is_total_dominating(g, c):
            return False
    else:
        if not is_dominating(g, c):
            return False
        unreached = sum(1 for v in range(g.n) if not g.neighbor_mask(v) & cm)
        if unreached > 1:
            return False
    return _separates_near_pairs(g, cm)


def forced_vertices(g: Graph) -> VertexSet:
    """Vertices that belong to every full-separating set of g.

    A vertex w is forced when it is the single element of the punctured
    symmetric difference (N(u)-{v}) sym (N(v)-{u}) of some pair u,v: that
    set must be hit, and w is the only candidate.
    """
    forced = 0
    n = g.n
    for u in range(n):
        nu = g.neighbor_mask(u)
        for v in range(u + 1, n):
            punctured = (nu ^ g.neighbor_mask(v)) & ~(1 << u | 1 << v)
            if punctured and punctured & (punctured - 1) == 0:
                forced |= punctured
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
