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

Search, greedy cover and packing bound share one incidence-bitset kernel:
``inc[v]`` is the set of indices of the reduced edges containing vertex v
(the "transposed" bitsets of San Segundo, Rodriguez-Losada and Jimenez,
C&OR 2011).  The uncovered edges are one int, and taking v is
``live &= ~inc[v]``.  Each edge's count of allowed (unbanned) members is
kept bit-sliced in a few plane ints over edge indices, so dead edges,
unit edges and the branching edge each take a few whole-set operations,
and banning v is one borrow-chain decrement on ``inc[v] & live``.  The
search is an iterative depth-first loop over an explicit stack.

The search is sequential and fully deterministic: the witness is the
first optimum reached under this fixed order.  A node budget caps the
search; exceeding it yields the best cover found so far, flagged
non-optimal (never silently truncated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        rows = sorted(list(_ids(m)) for m in self.edges)
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
    duplicates, and returns them in their original relative order.  The
    empty mask is contained in every mask, so if one is present it is the
    only survivor.  Kept masks are bucketed by their lowest bit: a kept
    subset of m has its lowest bit inside m, so only those buckets are
    searched.
    """
    if 0 in masks:
        return [0]
    order = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), i))
    kept_idx: list[int] = []
    by_low: dict[int, list[int]] = {}
    for i in order:
        m = masks[i]
        outside = ~m
        rest = m
        dominated = False
        while rest and not dominated:
            low = rest & -rest
            rest ^= low
            for km in by_low.get(low, ()):
                if not km & outside:
                    dominated = True  # contains (or equals) an already-kept minimal edge
                    break
        if not dominated:
            kept_idx.append(i)
            by_low.setdefault(m & -m, []).append(m)
    return [masks[i] for i in sorted(kept_idx)]


def remove_redundant(h: Hypergraph) -> Hypergraph:
    """Drop every hyperedge that contains another hyperedge, and duplicates.

    The result has exactly the same covers as the input.
    """
    return Hypergraph(h.n, _minimal_masks(h.edges))


def _ids(m: int) -> Iterator[int]:
    """The set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _incidence(n: int, masks: Sequence[int]) -> list[int]:
    """Transposed bitsets: bit i of ``inc[v]`` is set iff vertex v is in masks[i]."""
    inc = [0] * n
    for i, m in enumerate(masks):
        for v in _ids(m):
            inc[v] |= 1 << i
    return inc


def _packing(masks: Sequence[int], inc: list[int], live: int, banned: int, limit: int) -> int:
    """Greedy count of pairwise-disjoint live edges, restricted to the
    unbanned vertices and taken lowest index first; a lower bound on the
    cover.  Counting stops once it reaches ``limit``."""
    packed = 0
    while live and packed < limit:
        packed += 1
        m = masks[(live & -live).bit_length() - 1] & ~banned
        hit = 0  # every edge sharing an allowed vertex with this one
        while m:
            low = m & -m
            hit |= inc[low.bit_length() - 1]
            m ^= low
        live &= ~hit
    return packed


def _greedy_mask(inc: list[int], live: int) -> int:
    """Greedy cover mask of the live edges: repeatedly take the vertex
    hitting the most uncovered edges, smallest id on ties."""
    chosen = 0
    while live:
        best_v = -1
        best_hits = 0
        for v, edges in enumerate(inc):
            hits = (live & edges).bit_count()
            if hits > best_hits:
                best_hits = hits
                best_v = v
        if best_v < 0:  # pragma: no cover - impossible without empty edges
            raise EmptyHyperedgeError("uncoverable hyperedge")
        chosen |= 1 << best_v
        live &= ~inc[best_v]
    return chosen


def greedy_cover(h: Hypergraph) -> CoverResult:
    """Greedy max-coverage heuristic cover of the inclusion-minimal edges.

    Flagged optimal only when the greedy size matches the disjoint-packing
    lower bound of the hypergraph.
    """
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    masks = _minimal_masks(h.edges)
    inc = _incidence(h.n, masks)
    live = (1 << len(masks)) - 1
    chosen = _greedy_mask(inc, live)
    size = chosen.bit_count()
    return CoverResult(size, VertexSet(h.n, chosen), size == _packing(masks, inc, live, 0, size), 0)


def _bit_slices(counts: list[int]) -> list[int]:
    """Planes over edge indices: bit i of plane j is bit j of counts[i]."""
    planes = [0] * max(counts, default=0).bit_length()
    for i, c in enumerate(counts):
        for j in _ids(c):
            planes[j] |= 1 << i
    return planes


def min_cover(h: Hypergraph, budget: int | None = None) -> CoverResult:
    """Exact minimum cover by branch-and-bound (see module docstring).

    Raises EmptyHyperedgeError if no cover exists.  If the node budget is
    exhausted, returns the best cover found with ``optimal=False``.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    masks = _minimal_masks(h.edges)
    inc = _incidence(h.n, masks)
    best_mask = _greedy_mask(inc, (1 << len(masks)) - 1)
    best_size = best_mask.bit_count()
    nodes = 0
    exhausted = False
    # A node is (chosen, count, banned, live, planes): the chosen vertices
    # and their number, the vertices banned by earlier siblings, the edges
    # not yet hit by chosen, and the bit-sliced count of each live edge's
    # allowed (unbanned) members.  Popping the last-pushed child first
    # visits nodes in the preorder of the recursive search.
    stack = [(0, 0, 0, (1 << len(masks)) - 1, _bit_slices([m.bit_count() for m in masks]))]
    while stack:
        chosen, count, banned, live, planes = stack.pop()
        nodes += 1
        if nodes > budget:
            exhausted = True
            break
        if not live:
            if count < best_size:
                best_size = count
                best_mask = chosen
            continue
        if count + 1 >= best_size:
            continue
        high = 0
        for p in planes[1:]:
            high |= p
        if live & ~(planes[0] | high):
            continue  # every allowed vertex of some live edge was banned
        allowed = ~banned
        unit = live & planes[0] & ~high
        if unit:  # unit propagation: an edge with one allowed vertex forces it
            forced = 0
            while unit:
                bit = masks[(unit & -unit).bit_length() - 1] & allowed
                forced |= bit
                hit = inc[bit.bit_length() - 1]
                unit &= ~hit
                live &= ~hit
            chosen |= forced
            count += forced.bit_count()
            if count >= best_size:
                continue
            if not live:
                best_size = count
                best_mask = chosen
                continue
            if count + 1 >= best_size:
                continue
        if count + _packing(masks, inc, live, banned, best_size - count) >= best_size:
            continue
        # Branch on the first live edge of minimum allowed count, members
        # ascending; each sibling bans the members already tried.
        least = live
        for p in reversed(planes):
            if least & ~p:
                least &= ~p
        pick = masks[(least & -least).bit_length() - 1] & allowed
        children = []
        while True:
            low = pick & -pick
            hit = inc[low.bit_length() - 1]
            children.append((chosen | low, count + 1, banned, live & ~hit, planes))
            pick ^= low
            if not pick:
                break
            banned |= low
            # Bit-sliced decrement of the allowed counts of the live edges
            # under low; every such count is >= 1, so the borrow dies out.
            borrow = live & hit
            planes = planes[:]
            j = 0
            while borrow:
                p = planes[j]
                planes[j] = p ^ borrow
                borrow &= ~p
                j += 1
        stack.extend(reversed(children))
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
