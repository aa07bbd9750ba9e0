"""Hypergraphs over a fixed vertex universe and exact minimum-cover search.

A cover is a vertex subset intersecting every hyperedge; the covering
number tau is the minimum cover size.  The exact solver is a
branch-and-bound over int bitmasks:

* redundant (non-inclusion-minimal) hyperedges are removed up front,
  the rest indexed by size, ties in input order,
* unit hyperedges force their vertex,
* the branching edge is an uncovered hyperedge of minimum remaining
  cardinality, tried member by member, first the member that hits the
  most uncovered edges, ties by least id (Chvatal's greedy rule as
  succeed-first value order; members already tried are banned in later
  siblings, so subtrees are disjoint),
* the upper bound starts from the greedy cover by Jeroslow and Wang's
  rule, each uncovered edge e weighing 2^-|e| (see :func:`_greedy_mask`),
  or from a smaller cover the caller gives,
* the lower bound is a greedy packing of pairwise-disjoint uncovered
  hyperedges, smallest edge first.

:func:`greedy_cover` is the search at budget 0.
Search, greedy cover and packing bound share one incidence-bitset kernel:
``inc[v]`` is the set of indices of the reduced edges containing vertex v
(the "transposed" bitsets of San Segundo, Rodriguez-Losada and Jimenez,
C&OR 2011).  The uncovered edges are one int, and taking v is
``live &= ~inc[v]``.  Each edge's count of allowed (unbanned) members is
kept bit-sliced in a few plane ints over edge indices, so unit edges
and the branching edge each take a few whole-set operations, and banning
v is one borrow-chain decrement on ``inc[v] & live``.  The search is a
depth-first loop over a stack of one child generator per branching node.

The set-up works on whole ints where the input is dense, that is where
the mean edge size exceeds n / 10 (see :func:`_dense`).  There the
redundancy filter transposes the size-ordered edges once and, for each
kept edge, removes the AND of the incidence rows of its members, which
is every edge containing it (see :func:`_minimal_masks`); ``inc`` is the
same transpose of the kept edges.  The count planes are read from one
string of binary digits on every input (see :func:`_transpose`).  Sparse
inputs keep the per-element loops, which are faster there.

No live edge ever runs out of allowed members, so the search needs no
dead-edge test: the root has no empty edge, the branching edge E has the
least allowed count c among the live edges, and child i bans only
i - 1 < c vertices, so each live edge of that child keeps one.

Each node propagates its unit edges first, then meets one cut chain:
``count + 1`` against the incumbent, the table, the packing bound.  Two
shortcuts make a node cheaper without changing which nodes are visited.
A branching node at ``best - 2`` chosen vertices has only leaf children,
each a cover or cut by the bound.  A member that hits every live edge
hits the most, so if any child covers, the first in the try order does:
the node takes it as the incumbent, counts every child against the
budget without visiting the others, and closes.
Packing caches conflict sets (the OR of ``inc[v]`` over an edge's
allowed members) keyed by those members, one lookup per packed edge,
and clears the cache at ``len(masks)`` entries.

A transposition table (branch-and-bound with caching, Kitching and
Bacchus, CP 2008) maps the live edges of each finished branching node
to ``best - count``, a lower bound on every cover R of them, banned
vertices included: ``chosen | R`` is a cover whose route down the tree
(to the child of its first member, in the node's try order, of each
branching edge) ends in that subtree or in an earlier sibling of an
ancestor, all searched already.  The try order is a function of the
node, so the route is too.
A later node with the same live edges is cut when ``count`` plus the
bound reaches the incumbent.  Cuts remove only subtrees without a
strictly better cover, so the incumbents, and the witness of a proven
search, are those of the search without the table.  A full table
(``TABLE_LIMIT`` entries) is cleared.

The search is sequential and fully deterministic: the witness is the
first optimum reached under this fixed order.  It has one stop rule, its
loop condition: it runs while nodes are open, ``nodes <= budget`` and the
incumbent is larger than ``lower``.  A hypergraph may carry ``lower``, a
lower bound on tau (0 stops nothing): a first incumbent no larger is
returned with 0 nodes, and a later one ends the search at the node that
found it, the nodes before it being those of the search without the
bound.  ``optimal`` is ``nodes <= budget``: an exhausted search yields
the best cover found so far (never silently truncated) with
``nodes_explored`` = ``budget + 1``, the node past the cap counted, not
visited.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heapreplace
from math import inf
from typing import Sequence

from .graphs import VertexSet, bit_ids

DEFAULT_NODE_BUDGET = 10_000_000

# Entry limit of min_cover's transposition table; a full table is cleared.
TABLE_LIMIT = 1024


class EmptyHyperedgeError(ValueError):
    """The hypergraph contains an empty hyperedge, so no cover exists."""


@dataclass(frozen=True)
class Hypergraph:
    """Immutable list of hyperedges over universe {0..n-1}.

    Each hyperedge is an int bitmask: bit v is set iff vertex v belongs to
    it.  Edge order is preserved exactly as constructed, which makes
    downstream results (witness choice, dumps) deterministic.  ``lower`` is
    a known lower bound on the covering number, 0 when none is known; it
    stops :func:`min_cover` early and takes no part in equality.
    """

    n: int
    edges: tuple[int, ...]
    lower: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"universe size must be non-negative, got {self.n}")
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        if edges and (min(edges) < 0 or max(edges) >> self.n):
            m = next(m for m in edges if m < 0 or m >> self.n)
            raise ValueError(f"hyperedge mask {m:#x} has bits outside 0..{self.n - 1}")

    def has_empty_edge(self) -> bool:
        return 0 in self.edges

    def dump_lines(self) -> list[str]:
        """Canonical dump: one line per edge, ids ascending, edges lex-sorted."""
        ids = [str(v) for v in range(self.n)]
        return [" ".join(map(ids.__getitem__, row)) for row in sorted(map(bit_ids, self.edges))]

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a cover computation.

    ``witness`` is always a valid cover of the input hypergraph; ``optimal``
    says whether ``size`` is proven equal to the covering number.
    ``nodes_explored`` counts the search nodes visited; when the budget
    ran out it is ``budget + 1``, the node that crossed the cap included
    (so a 50,000-node budget reports 50001).
    """

    size: int
    witness: VertexSet
    optimal: bool
    nodes_explored: int


def _minimal_masks(n: int, masks: Sequence[int]) -> list[int]:
    """Inclusion-minimal filter with deduplication, smallest edge first.

    Keeps the inclusion-minimal masks over vertices 0..n-1, the first of
    equal ones, in the order tried: by size, ties in input order.  An
    empty mask lies in every mask, so if present it alone survives.

    Dense input (see :func:`_dense`) is filtered by supersets: with the
    masks in that order and ``inc`` their :func:`_transpose`, the AND of
    ``inc[v]`` over the members v of a kept mask is the set of masks that
    contain it, later equal ones included, and all but its own are
    removed.  The AND stops once only the mask's own bit is left; a mask
    is kept unless an earlier kept one removed it.  Sparse input is
    filtered by subsets: kept masks are bucketed by their lowest bit, a
    kept subset of m has its lowest bit inside m, so only those buckets
    are searched.  On sparse input the superset AND would transpose many
    edges that are then dropped, and the buckets stay short.
    """
    if 0 in masks:
        return [0]
    masks = sorted(masks, key=int.bit_count)  # stable: ties keep input order
    kept: list[int] = []
    if _dense(n, list(map(int.bit_count, masks))):
        inc = _transpose(n, masks)
        removed = 0
        for j, m in enumerate(masks):
            bit = 1 << j
            if removed & bit:
                continue
            kept.append(m)
            supersets = -1
            while m and supersets != bit:
                low = m & -m
                supersets &= inc[low.bit_length() - 1]
                m ^= low
            removed |= supersets ^ bit
        return kept
    by_low: dict[int, list[int]] = {}
    for m in masks:
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
            kept.append(m)
            by_low.setdefault(m & -m, []).append(m)
    return kept


def remove_redundant(h: Hypergraph) -> Hypergraph:
    """Drop every hyperedge that contains another hyperedge, and duplicates.

    The result has exactly the same covers as the input, and its ``lower``;
    its edges go by size, ties in input order, so reduced input is unchanged.
    """
    return Hypergraph(h.n, _minimal_masks(h.n, h.edges), h.lower)


def _transpose(width: int, values: Sequence[int]) -> list[int]:
    """Bit i of ``result[j]`` is bit j of values[i], for j < width.  The
    values are written as one string of width binary digits each, last
    value first; every width-th digit from position width - 1 - j spells
    ``result[j]``, read by one ``int(_, 2)``.  Needs values if width > 0."""
    top = 1 << width
    digits = "".join([bin(v | top)[3:] for v in reversed(values)])
    return [int(digits[j::width], 2) for j in range(width - 1, -1, -1)]


def _dense(n: int, counts: Sequence[int]) -> bool:
    """The set-up kernels' density rule: edges of sizes ``counts`` over n
    vertices have a mean size above n / 10."""
    return 10 * sum(counts) > n * len(counts)


def _incidence(n: int, masks: Sequence[int], counts: Sequence[int]) -> list[int]:
    """Transposed bitsets: bit i of ``inc[v]`` is set iff vertex v is in masks[i].
    ``counts[i]`` is the size of masks[i]; dense input (see :func:`_dense`)
    is :func:`_transpose` of the masks, else each mask's members are walked."""
    if _dense(n, counts):
        return _transpose(n, masks)
    inc = [0] * n
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            inc[low.bit_length() - 1] |= bit
            m ^= low
    return inc


def _packing(masks: Sequence[int], inc: list[int], conf: dict[int, int], live: int, banned: int,
             limit: int) -> int:
    """Greedy count of pairwise-disjoint live edges, restricted to the
    unbanned vertices and taken smallest edge first (the filter's order);
    a lower bound on the cover.  Counting stops once it reaches ``limit``.

    ``conf`` maps the allowed members of an edge, banned members or not, to
    the edges sharing one of them; a miss walks them, and the dict is
    cleared before an insert once it holds ``len(masks)`` entries."""
    allowed = ~banned
    packed = 0
    while live and packed < limit:
        packed += 1
        key = m = masks[(live & -live).bit_length() - 1] & allowed
        hit = conf.get(key, 0)  # every edge sharing an allowed vertex with this one
        if not hit:
            while m:
                low = m & -m
                hit |= inc[low.bit_length() - 1]
                m ^= low
            if len(conf) >= len(masks):
                conf.clear()
            conf[key] = hit
        live &= ~hit
    return packed


def _greedy_mask(inc: list[int], counts: Sequence[int]) -> int:
    """Greedy cover mask of edges of sizes ``counts``, smallest first, by
    Jeroslow and Wang's rule: take the vertex of largest weight, the sum of
    2^-|e| over the uncovered edges e it hits, least id on ties.  Weights
    are exact: each run of equal sizes s is a class of edge indices, whose
    hits count 2^(top - s) for the largest size top.  Weights only fall, so
    a heap of stale (-weight, id) entries re-weighs only its top (Minoux's
    accelerated greedy) and takes it once its weight is current: every
    other weight is at most its stale one, so the pick is a full scan's."""
    classes = [((1 << bisect_right(counts, s)) - (1 << bisect_left(counts, s)), counts[-1] - s)
               for s in set(counts)]
    live = (1 << len(counts)) - 1
    heap = [(-inf, v) for v in range(len(inc))]  # every weight stale at first
    chosen = 0
    while live:  # a live edge's members weigh more than 0, so one tops the heap
        stale, v = heap[0]
        hit = live & inc[v]
        w = 0
        for cls, shift in classes:
            w += (hit & cls).bit_count() << shift
        if w == -stale:
            heappop(heap)
            chosen |= 1 << v
            live &= ~hit
        else:
            heapreplace(heap, (-w, v))
    return chosen


def greedy_cover(h: Hypergraph) -> CoverResult:
    """:func:`min_cover` at budget 0: its first incumbent, the
    Jeroslow-Wang greedy cover of the inclusion-minimal edges (see
    :func:`_greedy_mask`), flagged optimal only where it meets ``h.lower``
    (0 nodes), else with 1 node.  It stays only while
    ``bench/workloads.py`` reads it, in its greedy probe.
    """
    return min_cover(h, 0)


def _bit_slices(counts: list[int]) -> list[int]:
    """Planes over edge indices: bit i of plane j is bit j of counts[i]."""
    return _transpose(max(counts, default=0).bit_length(), counts)


def min_cover(h: Hypergraph, budget: int | None = None, start: int | None = None) -> CoverResult:
    """Exact minimum cover by branch-and-bound (see module docstring).

    ``start``, a cover mask, is the first incumbent in place of the greedy
    cover when it is smaller.  The search runs while nodes are open, the
    budget lasts and the incumbent is larger than ``h.lower``: a first
    incumbent no larger returns with 0 nodes, a later one after the nodes
    the search visits without the bound.  Raises
    EmptyHyperedgeError if no cover exists, ValueError if budget < 0 or
    if ``start`` misses an edge or holds a vertex outside the universe.
    ``optimal`` is ``nodes_explored <= budget`` (budget + 1 when exhausted).
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if budget < 0:
        raise ValueError(f"node budget must be non-negative, got {budget}")
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    masks = _minimal_masks(h.n, h.edges)
    counts = [m.bit_count() for m in masks]
    inc = _incidence(h.n, masks, counts)
    best_mask = _greedy_mask(inc, counts)
    if start is not None:
        if start < 0 or start >> h.n or not all(m & start for m in masks):
            raise ValueError(f"start {start:#x} is not a cover of the hypergraph")
        if start.bit_count() < best_mask.bit_count():
            best_mask = start
    best_size = best_mask.bit_count()
    lower = h.lower or -1  # no bound (0) stops nothing, not even a search with tau 0
    nodes = 0
    table: dict[int, int] = {}  # live -> lower bound on a cover of those edges
    conf: dict[int, int] = {}  # allowed members -> packing conflicts, filled on first use

    def children(chosen, count, banned, live, planes, order):
        # A branching node's children in the try order (from the end of order),
        # each banning those tried before; then the finished node enters the table.
        while order:
            v = order.pop()
            yield chosen | 1 << v, count + 1, banned, live & ~inc[v], planes
            if not order:
                break
            banned |= 1 << v
            # Bit-sliced decrement of the live counts under v: each is >= 1, so the borrow dies out.
            borrow = live & inc[v]
            planes = planes[:]
            j = 0
            while borrow:
                p = planes[j]
                planes[j] = p ^ borrow
                borrow &= ~p
                j += 1
        if len(table) >= TABLE_LIMIT:
            table.clear()
        table[live] = best_size - count

    # A node is (chosen, count, banned, live, planes): the chosen vertices and
    # their number, the vertices banned by earlier siblings, the uncovered edges
    # and their bit-sliced allowed counts.  One generator per open branching node.
    stack = [iter([(0, 0, 0, (1 << len(masks)) - 1, _bit_slices(counts))])]
    while stack and nodes <= budget and best_size > lower:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            continue  # counted, not visited: the loop ends
        chosen, count, banned, live, planes = node
        if live and count + 1 < best_size:
            high = 0
            for p in planes[1:]:
                high |= p
            unit = live & planes[0] & ~high
            while unit:  # unit propagation: an edge with one allowed vertex forces it
                bit = masks[(unit & -unit).bit_length() - 1] & ~banned
                chosen |= bit  # a new vertex: its edge is live
                count += 1
                hit = inc[bit.bit_length() - 1]
                unit &= ~hit
                live &= ~hit
        if not live:
            if count < best_size:
                best_size = count
                best_mask = chosen
            continue
        if (count + 1 >= best_size or count + table.get(live, 0) >= best_size
                or count + _packing(masks, inc, conf, live, banned, best_size - count) >= best_size):
            continue
        # Branch on the first live edge of minimum allowed count.  Its
        # members are tried by the most live edges hit, ties by least id.
        least = live
        for p in reversed(planes):
            least = least & ~p or least
        pick = masks[(least & -least).bit_length() - 1] & ~banned
        if count + 2 == best_size:
            # Every child is a leaf at best_size - 1.  Members that hit every
            # live edge, so lie in the last one, come first in the try order:
            # the first child is the incumbent if any covers, and the bound
            # cuts the others, or the stop comes after it.  A generator
            # without children closes the node.
            cover = pick & masks[live.bit_length() - 1]
            while cover and live & ~inc[(cover & -cover).bit_length() - 1]:
                cover &= cover - 1
            if cover and nodes < budget:
                best_size = count + 1
                best_mask = chosen | (cover & -cover)
            nodes = min(nodes + (pick.bit_count() if best_size > lower else 1), budget + 1)
            stack.append(children(chosen, count, banned, live, planes, []))
            continue
        order = sorted(bit_ids(pick), key=lambda v: ((live & inc[v]).bit_count(), -v))
        stack.append(children(chosen, count, banned, live, planes, order))
    return CoverResult(best_size, VertexSet(h.n, best_mask), nodes <= budget, nodes)
