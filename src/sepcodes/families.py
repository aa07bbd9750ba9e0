"""Generators for the benchmark graph families and their known X-numbers.

Families: paths, cycles, half-graphs, and thin/thick headless spiders.
For parameter ranges where an exact X-number is known in closed form,
:func:`formula_x_number` returns it; outside those ranges it returns None
rather than extrapolating.  The explicit total-dominating full-separating
code for paths and cycles is produced by :func:`ftd_code_path_cycle`.

Canonical labelings
-------------------
* path/cycle: vertices 0..n-1 along the path (cycle closes n-1 to 0);
* half-graph on 2k vertices: the two sides are u_1..u_k -> 0..k-1 and
  w_1..w_k -> k..2k-1, with u_i adjacent to w_j exactly when i <= j;
* spiders on 2k vertices: clique q_1..q_k -> 0..k-1 and stable set
  s_1..s_k -> k..2k-1; thin wires s_i to q_i only, thick wires s_i to
  every q_j with j != i.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .codes import CodeKind
from .graphs import Graph, VertexSet, check_edge_count, check_vertex_count


class Family(enum.Enum):
    PATH = "path"
    CYCLE = "cycle"
    HALF_GRAPH = "half"
    THIN_SPIDER = "thin"
    THICK_SPIDER = "thick"


_MIN_SIZE = {
    Family.PATH: 1,
    Family.CYCLE: 3,
    Family.HALF_GRAPH: 1,
    Family.THIN_SPIDER: 2,
    Family.THICK_SPIDER: 2,
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its size parameter (n for path/cycle, else k)."""

    family: Family
    size: int

    def __post_init__(self):
        if self.size < _MIN_SIZE[self.family]:
            raise ValueError(
                f"{self.family.value} requires parameter >= {_MIN_SIZE[self.family]},"
                f" got {self.size}"
            )
        # Refused here, before generate() lists the edges.
        check_vertex_count(self.size if self.family in (Family.PATH, Family.CYCLE)
                           else 2 * self.size)

    def __str__(self) -> str:
        return f"{self.family.value}:{self.size}"


def generate(spec: FamilySpec) -> Graph:
    """Build the graph of a family spec under its canonical labeling.

    Raises GraphFormatError, before listing any edge, when the graph
    would have more than :data:`~sepcodes.graphs.MAX_EDGES` edges.
    """
    f, p = spec.family, spec.size
    check_edge_count({Family.PATH: p - 1, Family.CYCLE: p,
                      Family.HALF_GRAPH: p * (p + 1) // 2,
                      Family.THIN_SPIDER: p * (p - 1) // 2 + p,
                      Family.THICK_SPIDER: 3 * p * (p - 1) // 2}[f])
    if f is Family.PATH:
        return Graph.from_edges(p, [(i, i + 1) for i in range(p - 1)])
    if f is Family.CYCLE:
        edges = [(i, i + 1) for i in range(p - 1)]
        edges.append((p - 1, 0))
        return Graph.from_edges(p, edges)
    if f is Family.HALF_GRAPH:
        k = p
        edges = [(i - 1, k + j - 1) for i in range(1, k + 1) for j in range(i, k + 1)]
        return Graph.from_edges(2 * k, edges)
    k = p
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]  # clique
    if f is Family.THIN_SPIDER:
        edges.extend((i - 1, k + i - 1) for i in range(1, k + 1))
    else:
        edges.extend(
            (i - 1, k + j - 1)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if i != j
        )
    return Graph.from_edges(2 * k, edges)


def _path_cycle_base(n: int) -> int:
    q, r = divmod(n, 6)
    return 4 * q + (r if r <= 4 else 4)


def formula_x_number(spec: FamilySpec, kind: CodeKind) -> int | None:
    """Known closed-form X-number, or None when no formula covers the input.

    Absence is a value, not an error: the known results carry explicit
    parameter-range hypotheses and are not extrapolated below them.
    """
    f, p = spec.family, spec.size
    if f in (Family.PATH, Family.CYCLE):
        n = p
        if (f is Family.PATH and n < 4) or (f is Family.CYCLE and n < 5):
            return None
        if kind in (CodeKind.FD, CodeKind.FTD):
            return _path_cycle_base(n)
        if kind is CodeKind.OTD:
            if f is Family.PATH:
                return _path_cycle_base(n)
            q, r = divmod(n, 6)
            if r in (0, 1, 2, 4):
                return 4 * q + r
            return 4 * q + (2 if r == 3 else 4)
        return None
    if f is Family.HALF_GRAPH:
        k = p
        if kind is CodeKind.FD:
            return 2 * k - 1 if k >= 3 else None
        if kind is CodeKind.FTD:
            return 2 * k if k >= 2 else None
        if kind is CodeKind.OTD:
            return 2 * k
        return None
    k = p
    if f is Family.THIN_SPIDER:
        if kind is CodeKind.FD:
            return 2 * k - 2 if k >= 4 else None
        if kind is CodeKind.FTD:
            return 2 * k - 1 if k >= 4 else None
        if k < 3:
            return None
        if kind in (CodeKind.LD, CodeKind.LTD, CodeKind.OD, CodeKind.OTD):
            return k
        if kind is CodeKind.ID:
            return k + 1
        return 2 * k - 1  # ITD
    # thick spider
    if kind in (CodeKind.FD, CodeKind.FTD):
        return 2 * k - 2 if k >= 4 else None
    if kind is CodeKind.ITD:
        return k + 1 if k >= 4 else None
    if kind in (CodeKind.LD, CodeKind.LTD):
        # k-1 fails exhaustive verification below k=5 (both values are k there)
        return k - 1 if k >= 5 else None
    if k < 3:
        return None
    if kind in (CodeKind.OD, CodeKind.OTD):
        return k + 1
    return k  # ID


def ftd_code_path_cycle(n: int, cyclic: bool) -> VertexSet:
    """The explicit FTD-code of a path (n >= 4) or cycle (n >= 5).

    1-based pattern: four consecutive vertices v_{6k-4}..v_{6k-1} in each
    full block of six, then a tail of r extra vertices v_{6q}..v_{6q+r-1}
    when r in 1..4, or the shifted block v_{6q+1}..v_{6q+4} when r = 5.
    With no full block (n in 4..5) the code is v_1..v_4.  The result has
    exactly the known minimum cardinality.
    """
    if n < (5 if cyclic else 4):
        kind = "cycle" if cyclic else "path"
        raise ValueError(f"{kind} FTD pattern needs n >= {5 if cyclic else 4}, got {n}")
    q, r = divmod(n, 6)
    picks: list[int] = []
    if q == 0:
        picks.extend(range(1, 5))
    else:
        for k in range(1, q + 1):
            picks.extend(range(6 * k - 4, 6 * k))
        if 1 <= r <= 4:
            picks.extend(range(6 * q, 6 * q + r))
        elif r == 5:
            picks.extend(range(6 * q + 1, 6 * q + 5))
    return VertexSet.of(n, (v - 1 for v in picks))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; vertices of b are shifted up by a.n."""
    edges = list(a.edges())
    edges.extend((u + a.n, v + a.n) for u, v in b.edges())
    return Graph.from_edges(a.n + b.n, edges)


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Uniform G(n, p) sample, for randomized property tests."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse 'path:12', 'cycle:9', 'half:4', 'thin:5' or 'thick:5'."""
    name, sep, param = text.partition(":")
    if not sep:
        raise ValueError(f"family spec {text!r} must look like 'path:12'")
    try:
        family = Family(name.strip().lower())
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise ValueError(f"unknown family {name!r} (expected one of: {valid})") from None
    try:
        size = int(param)
    except ValueError:
        raise ValueError(f"family parameter {param!r} is not an integer") from None
    return FamilySpec(family, size)


def graph_from_spec_string(text: str) -> tuple[Graph, FamilySpec | None]:
    """CLI family syntax: a family spec with an optional '+k1' suffix.

    The suffix appends one isolated vertex.  The returned spec is None in
    that case, since the closed-form results apply to the bare family only.
    """
    base, plus, suffix = text.partition("+")
    spec = parse_family_spec(base)
    g = generate(spec)
    if not plus:
        return g, spec
    if suffix.strip().lower() != "k1":
        raise ValueError(f"unknown family suffix {suffix!r} (only '+k1' is supported)")
    return disjoint_union(g, Graph.from_edges(1, [])), None
