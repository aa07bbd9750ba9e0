"""Generators for the benchmark graph families and their known X-numbers.

Families: paths, cycles, half-graphs, and thin/thick headless spiders.
Two tables state every family fact once: ``_SHAPES`` holds each family's
least parameter, vertex count, closed-form edge count and edge list, and
``_X_NUMBERS`` maps (family, kind) to the least parameter and closed form
of a known X-number.  Below that parameter, or with no entry,
:func:`formula_x_number` returns None rather than extrapolating.  The
explicit FTD-code of paths and cycles is :func:`ftd_code_path_cycle`.

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
from typing import Callable, Iterable

from .codes import CodeKind
from .graphs import Graph, VertexSet, check_edge_count, check_vertex_count


class Family(enum.Enum):
    PATH = "path"
    CYCLE = "cycle"
    HALF_GRAPH = "half"
    THIN_SPIDER = "thin"
    THICK_SPIDER = "thick"


def _spider_edges(k: int, wires: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]  # clique
    edges.extend(wires)
    return edges


# family -> (least parameter, vertex count, edge count, edge list); the
# last three are functions of the parameter (n for path/cycle, else k).
_SHAPES = {
    Family.PATH: (1, lambda n: n, lambda n: n - 1,
                  lambda n: [(i, i + 1) for i in range(n - 1)]),
    Family.CYCLE: (3, lambda n: n, lambda n: n,
                   lambda n: [(i, (i + 1) % n) for i in range(n)]),
    Family.HALF_GRAPH: (1, lambda k: 2 * k, lambda k: k * (k + 1) // 2,
                        lambda k: [(i, k + j) for i in range(k) for j in range(i, k)]),
    Family.THIN_SPIDER: (2, lambda k: 2 * k, lambda k: k * (k - 1) // 2 + k,
                         lambda k: _spider_edges(k, ((i, k + i) for i in range(k)))),
    Family.THICK_SPIDER: (2, lambda k: 2 * k, lambda k: 3 * k * (k - 1) // 2,
                          lambda k: _spider_edges(k, ((i, k + j) for i in range(k)
                                                      for j in range(k) if i != j))),
}


def _path_cycle(n: int) -> int:
    return 4 * (n // 6) + min(n % 6, 4)


# One row per (family, kinds, least parameter, closed form).
_X_NUMBERS: dict[tuple[Family, CodeKind], tuple[int, Callable[[int], int]]] = {
    (family, kind): (least, form)
    for family, kinds, least, form in (
        (Family.PATH, (CodeKind.FD, CodeKind.FTD, CodeKind.OTD), 4, _path_cycle),
        (Family.CYCLE, (CodeKind.FD, CodeKind.FTD), 5, _path_cycle),
        (Family.CYCLE, (CodeKind.OTD,), 5, lambda n: 4 * (n // 6) + (0, 1, 2, 2, 4, 4)[n % 6]),
        (Family.HALF_GRAPH, (CodeKind.FD,), 3, lambda k: 2 * k - 1),
        (Family.HALF_GRAPH, (CodeKind.FTD,), 2, lambda k: 2 * k),
        (Family.HALF_GRAPH, (CodeKind.OTD,), 1, lambda k: 2 * k),
        (Family.THIN_SPIDER, (CodeKind.FD,), 4, lambda k: 2 * k - 2),
        (Family.THIN_SPIDER, (CodeKind.FTD,), 4, lambda k: 2 * k - 1),
        (Family.THIN_SPIDER, (CodeKind.LD, CodeKind.LTD, CodeKind.OD, CodeKind.OTD), 3, lambda k: k),
        (Family.THIN_SPIDER, (CodeKind.ID,), 3, lambda k: k + 1),
        (Family.THIN_SPIDER, (CodeKind.ITD,), 3, lambda k: 2 * k - 1),
        (Family.THICK_SPIDER, (CodeKind.FD, CodeKind.FTD), 4, lambda k: 2 * k - 2),
        (Family.THICK_SPIDER, (CodeKind.ITD,), 4, lambda k: k + 1),
        # k-1 fails exhaustive verification below k=5 (both values are k there)
        (Family.THICK_SPIDER, (CodeKind.LD, CodeKind.LTD), 5, lambda k: k - 1),
        (Family.THICK_SPIDER, (CodeKind.OD, CodeKind.OTD), 3, lambda k: k + 1),
        (Family.THICK_SPIDER, (CodeKind.ID,), 3, lambda k: k),
    )
    for kind in kinds
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its size parameter (n for path/cycle, else k)."""

    family: Family
    size: int

    def __post_init__(self):
        least, vertices, _, _ = _SHAPES[self.family]
        if self.size < least:
            raise ValueError(f"{self.family.value} requires parameter >= {least},"
                             f" got {self.size}")
        # Refused here, before generate() lists the edges.
        check_vertex_count(vertices(self.size))

    def __str__(self) -> str:
        return f"{self.family.value}:{self.size}"


def generate(spec: FamilySpec) -> Graph:
    """Build the graph of a family spec under its canonical labeling.

    Raises GraphFormatError, before listing any edge, when the graph
    would have more than :data:`~sepcodes.graphs.MAX_EDGES` edges.
    """
    _, vertices, edge_count, edges = _SHAPES[spec.family]
    check_edge_count(edge_count(spec.size))
    return Graph.from_edges(vertices(spec.size), edges(spec.size))


def formula_x_number(spec: FamilySpec, kind: CodeKind) -> int | None:
    """Known closed-form X-number, or None when no formula covers the input.

    Absence is a value, not an error: the known results carry explicit
    parameter-range hypotheses and are not extrapolated below them.
    """
    entry = _X_NUMBERS.get((spec.family, kind))
    if entry is None or spec.size < entry[0]:
        return None
    return entry[1](spec.size)


def ftd_code_path_cycle(n: int, cyclic: bool) -> VertexSet:
    """The explicit FTD-code of a path (n >= 4) or cycle (n >= 5).

    1-based pattern: four consecutive vertices v_{6k-4}..v_{6k-1} in each
    full block of six, then a tail of r extra vertices v_{6q}..v_{6q+r-1}
    when r in 1..4, or the shifted block v_{6q+1}..v_{6q+4} when r = 5.
    With no full block (n in 4..5) the code is v_1..v_4.  The result has
    exactly the known minimum cardinality.
    """
    family = Family.CYCLE if cyclic else Family.PATH
    least = _X_NUMBERS[family, CodeKind.FTD][0]
    if n < least:
        raise ValueError(f"{family.value} FTD pattern needs n >= {least}, got {n}")
    q, r = divmod(n, 6)
    picks = [v for b in range(1, q + 1) for v in range(6 * b - 4, 6 * b)]
    # With no full block the code is v_1..v_4, the r = 5 shift at q = 0.
    picks.extend(range(6 * q + 1, 6 * q + 5) if r == 5 or q == 0 else range(6 * q, 6 * q + r))
    return VertexSet.of(n, (v - 1 for v in picks))


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Uniform G(n, p) sample, for randomized property tests.

    Raises GraphFormatError above MAX_VERTICES before any draw, and as soon
    as the edges drawn exceed MAX_EDGES.
    """
    check_vertex_count(n)
    edges: list[tuple[int, int]] = []
    for u in range(n):
        edges += [(u, v) for v in range(u + 1, n) if rng.random() < p]
        check_edge_count(len(edges))
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

    The suffix appends one isolated vertex: a zero row, id n.  The spec is
    None then, since the closed-form results apply to the bare family only.
    """
    base, plus, suffix = text.partition("+")
    spec = parse_family_spec(base)
    g = generate(spec)
    if not plus:
        return g, spec
    if suffix.strip().lower() != "k1":
        raise ValueError(f"unknown family suffix {suffix!r} (only '+k1' is supported)")
    check_vertex_count(g.n + 1)
    return Graph(g.n + 1, g.rows + (0,)), None
