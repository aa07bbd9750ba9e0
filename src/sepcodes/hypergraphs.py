"""Hypergraphs over a fixed vertex universe and exact minimum-cover search.

A cover is a vertex subset intersecting every hyperedge; the covering
number tau is the minimum cover size.  The exact solver is a
branch-and-bound over int bitmasks:

* redundant (non-inclusion-minimal) hyperedges are removed up front,
* unit hyperedges force their vertex,
* the branching edge is an uncovered hyperedge of minimum remaining
  cardinality, tried member by member in ascending id order (members
  already tried are banned in later siblings, so subtrees are disjoint),
* the upper bound starts from the greedy cover,
* the lower bound is a greedy packing of pairwise-disjoint uncovered
  hyperedges.

The search is sequential and fully deterministic: the witness is the
first optimum reached under this fixed order.  A node budget caps the
search; exceeding it yields the best cover found so far, flagged
non-optimal (never silently truncated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import UniverseMismatchError, VertexSet

DEFAULT_NODE_BUDGET = 10_000_000


class EmptyHyperedgeError(ValueError):
    """The hypergraph contains an empty hyperedge, so no cover exists."""


@dataclass(frozen=True)
class Hypergraph:
    """Immutable list of hyperedges over universe {0..n-1}.

    Each hyperedge is an int bitmask: bit v is set iff vertex v belongs to
    it.  Edge order is preserved exactly as constructed, which makes
    downstream results (witness choice, dumps) deterministic.
    """

    n: int
    edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        for m in self.edges:
            if m < 0 or m >> self.n:
                raise ValueError(f"hyperedge mask {m:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, (VertexSet.of(n, s).mask for s in sets))

    def has_empty_edge(self) -> bool:
        return 0 in self.edges

    def dump_lines(self) -> list[str]:
        """Canonical dump: one line per edge, ids ascending, edges lex-sorted."""
        rows = sorted(VertexSet(self.n, m).sorted_ids() for m in self.edges)
        return [" ".join(map(str, row)) for row in rows]

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a cover computation.

    ``witness`` is always a valid cover of the input hypergraph; ``optimal``
    says whether ``size`` is proven equal to the covering number.
    """

    size: int
    witness: VertexSet
    optimal: bool
    nodes_explored: int


def is_cover(h: Hypergraph, c: VertexSet) -> bool:
    """True iff c intersects every hyperedge (vacuously true if none).

    A hypergraph containing the empty hyperedge has no cover at all.
    """
    if c.n != h.n:
        raise UniverseMismatchError(f"cover universe {c.n} != hypergraph universe {h.n}")
    cm = c.mask
    return all(e & cm for e in h.edges)


def _minimal_masks(masks: tuple[int, ...]) -> list[int]:
    """Indices-preserving inclusion-minimal filter with deduplication.

    Keeps exactly the inclusion-minimal masks, first occurrence wins on
    duplicates, and returns them in their original relative order.
    """
    order = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), i))
    kept_idx: list[int] = []
    kept_masks: list[int] = []
    for i in order:
        m = masks[i]
        if any(km & ~m == 0 for km in kept_masks):
            continue  # contains (or equals) an already-kept minimal edge
        kept_idx.append(i)
        kept_masks.append(m)
    return [masks[i] for i in sorted(kept_idx)]


def remove_redundant(h: Hypergraph) -> Hypergraph:
    """Drop every hyperedge that contains another hyperedge, and duplicates.

    The result has exactly the same covers as the input.
    """
    return Hypergraph(h.n, _minimal_masks(h.edges))


def _packing_lower_bound(masks: list[int]) -> int:
    """Greedy count of pairwise-disjoint masks; a lower bound on the cover."""
    used = 0
    count = 0
    for m in masks:
        if not m & used:
            used |= m
            count += 1
    return count


def _greedy_mask(n: int, masks: Iterable[int]) -> int:
    """Greedy cover mask: repeatedly take the vertex hitting the most
    uncovered edges, smallest id on ties."""
    chosen = 0
    uncovered = list(masks)
    while uncovered:
        best_v = -1
        best_hits = 0
        for v in range(n):
            bit = 1 << v
            if chosen & bit:
                continue
            hits = sum(1 for m in uncovered if m & bit)
            if hits > best_hits:
                best_hits = hits
                best_v = v
        if best_v < 0:  # pragma: no cover - impossible without empty edges
            raise EmptyHyperedgeError("uncoverable hyperedge")
        chosen |= 1 << best_v
        uncovered = [m for m in uncovered if not m & chosen]
    return chosen


def greedy_cover(h: Hypergraph) -> CoverResult:
    """Greedy max-coverage heuristic cover.

    Flagged optimal only when the greedy size matches the disjoint-packing
    lower bound of the hypergraph.
    """
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    chosen = _greedy_mask(h.n, h.edges)
    size = chosen.bit_count()
    proven = size == _packing_lower_bound(_minimal_masks(h.edges))
    return CoverResult(size, VertexSet(h.n, chosen), proven, 0)


def min_cover(h: Hypergraph, budget: int | None = None) -> CoverResult:
    """Exact minimum cover by branch-and-bound (see module docstring).

    Raises EmptyHyperedgeError if no cover exists.  If the node budget is
    exhausted, returns the best cover found with ``optimal=False``.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    reduced = _minimal_masks(h.edges)
    best_mask = _greedy_mask(h.n, reduced)
    best_size = best_mask.bit_count()
    nodes = 0
    exhausted = False

    def dfs(chosen: int, count: int, banned: int, uncov: list[int]) -> None:
        nonlocal best_mask, best_size, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        # Unit propagation: edges with a single allowed vertex force it.
        while True:
            uncov = [m for m in uncov if not m & chosen]
            if not uncov:
                if count < best_size:
                    best_size = count
                    best_mask = chosen
                return
            if count + 1 >= best_size:
                return
            forced = 0
            for m in uncov:
                rem = m & ~banned
                if rem == 0:
                    return  # every allowed vertex of this edge was banned
                if rem & (rem - 1) == 0:
                    forced |= rem
            if not forced:
                break
            chosen |= forced
            count += forced.bit_count()
            if count >= best_size:
                return
        effective = [m & ~banned for m in uncov]
        if count + _packing_lower_bound(effective) >= best_size:
            return
        # Branch on the smallest remaining edge, members ascending;
        # each sibling bans the members already tried.
        pick = min(effective, key=int.bit_count)
        tried = 0
        while pick:
            low = pick & -pick
            dfs(chosen | low, count + 1, banned | tried, uncov)
            if exhausted:
                return
            tried |= low
            pick ^= low

    dfs(0, 0, 0, reduced)
    return CoverResult(best_size, VertexSet(h.n, best_mask), not exhausted, nodes)


def precedes(h: Hypergraph, h2: Hypergraph) -> bool:
    """True iff every hyperedge of h2 contains some hyperedge of h.

    When this holds, every cover of h is also a cover of h2, hence
    tau(h2) <= tau(h).
    """
    if h.n != h2.n:
        raise UniverseMismatchError(f"universe sizes differ: {h.n} vs {h2.n}")
    for e2 in h2.edges:
        if not any(m & ~e2 == 0 for m in h.edges):
            return False
    return True
