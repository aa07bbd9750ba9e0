"""Shared test helpers: independent oracles and random instance samplers.

The oracles here deliberately avoid the package's bitmask kernels: they
work on plain Python sets and exhaustive enumeration, so agreement with
the fast paths is a real check, not a tautology.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from sepcodes import (
    DEFAULT_NODE_BUDGET,
    CodeKind,
    CoverResult,
    EmptyHyperedgeError,
    Graph,
    Hypergraph,
    VertexSet,
    random_gnp,
)


def ids(mask: int, n: int) -> set[int]:
    """The vertex ids of a bitmask, decoded without package code."""
    return {i for i in range(n) if mask >> i & 1}


def brute_force_tau(h: Hypergraph) -> int | None:
    """Minimum cover size by subset enumeration in increasing cardinality.

    None when no cover exists (empty hyperedge present).
    """
    edge_sets = [ids(e, h.n) for e in h.edges]
    if any(not e for e in edge_sets):
        return None
    for k in range(h.n + 1):
        for combo in itertools.combinations(range(h.n), k):
            chosen = set(combo)
            if all(chosen & e for e in edge_sets):
                return k
    return None


def naive_minimal_edges(h: Hypergraph) -> list[frozenset[int]]:
    """Inclusion-minimal hyperedges via the obvious quadratic set filter."""
    sets = [frozenset(ids(e, h.n)) for e in h.edges]
    kept: list[frozenset[int]] = []
    for i, s in enumerate(sets):
        dominated = any(
            (other < s) or (other == s and j < i)
            for j, other in enumerate(sets)
            if j != i
        )
        if not dominated:
            kept.append(s)
    return kept


def random_subset(n: int, rng: random.Random) -> VertexSet:
    return VertexSet(n, rng.getrandbits(n) if n else 0)


def random_hypergraph(rng: random.Random, n: int, m: int, allow_empty: bool = False) -> Hypergraph:
    edges = []
    for _ in range(m):
        mask = rng.getrandbits(n)
        if not allow_empty:
            while mask == 0:
                mask = rng.getrandbits(n)
        edges.append(mask)
    return Hypergraph(n, edges)


# --- list-based cover search: the reference engine ----------------------
#
# The search engine as it was before the incidence-bitset kernel, kept
# verbatim: Python lists of uncovered edge masks, rescanned at every node.
# The kernel must match it exactly, node for node, on every input and
# budget, so these are differential oracles for min_cover, the greedy
# upper bound, the packing lower bound and the redundancy filter.


def reference_minimal_masks(masks: tuple[int, ...]) -> list[int]:
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


def reference_packing_lower_bound(masks: list[int]) -> int:
    """Greedy count of pairwise-disjoint masks; a lower bound on the cover."""
    used = 0
    count = 0
    for m in masks:
        if not m & used:
            used |= m
            count += 1
    return count


def reference_greedy_mask(n: int, masks: Iterable[int]) -> int:
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


def reference_min_cover(h: Hypergraph, budget: int | None = None) -> CoverResult:
    """Exact minimum cover by branch-and-bound (see module docstring).

    Raises EmptyHyperedgeError if no cover exists.  If the node budget is
    exhausted, returns the best cover found with ``optimal=False``.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    reduced = reference_minimal_masks(h.edges)
    best_mask = reference_greedy_mask(h.n, reduced)
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
        if count + reference_packing_lower_bound(effective) >= best_size:
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


# --- full separation: four equivalent forms as independent oracles --------
#
# The library tests full separation as closed plus open separation.  These
# four forms check every pair u < v on plain Python sets instead.


def _open_nbhds(g: Graph) -> list[set[int]]:
    return [ids(g.neighbor_mask(v), g.n) for v in range(g.n)]


def full_separating_a(g: Graph, c: VertexSet) -> bool:
    """Punctured traces differ: (N(v) & C) - {u} != (N(u) & C) - {v}."""
    nb, code = _open_nbhds(g), ids(c.mask, g.n)
    return all(
        (nb[v] & code) - {u} != (nb[u] & code) - {v}
        for u, v in itertools.combinations(range(g.n), 2)
    )


def full_separating_b(g: Graph, c: VertexSet) -> bool:
    """C meets the punctured symmetric difference (N(u) ^ N(v)) - {u, v}."""
    nb, code = _open_nbhds(g), ids(c.mask, g.n)
    return all(
        ((nb[u] ^ nb[v]) - {u, v}) & code
        for u, v in itertools.combinations(range(g.n), 2)
    )


def full_separating_c(g: Graph, c: VertexSet) -> bool:
    """C meets N[u] ^ N[v] for adjacent pairs and N(u) ^ N(v) otherwise."""
    nb, code = _open_nbhds(g), ids(c.mask, g.n)
    for u, v in itertools.combinations(range(g.n), 2):
        if v in nb[u]:
            diff = (nb[u] | {u}) ^ (nb[v] | {v})
        else:
            diff = nb[u] ^ nb[v]
        if not diff & code:
            return False
    return True


def full_separating_d(g: Graph, c: VertexSet) -> bool:
    """Pairwise, both the closed and the open traces differ."""
    nb, code = _open_nbhds(g), ids(c.mask, g.n)
    return all(
        (nb[u] | {u}) & code != (nb[v] | {v}) & code and nb[u] & code != nb[v] & code
        for u, v in itertools.combinations(range(g.n), 2)
    )


FULL_SEPARATION_ORACLES = (full_separating_a, full_separating_b,
                           full_separating_c, full_separating_d)


# --- pair scans: twins and the distance-2 FD/FTD verifier ----------------
#
# The library finds twins by grouping equal neighborhood rows and verifies
# FD/FTD codes as domination plus closed and open separation.  These are
# the pair-by-pair formulations they replaced, kept as references.


def reference_closed_twins(g: Graph) -> list[tuple[int, int]]:
    """Adjacent pairs u < v with N[u] = N[v], by scanning every pair."""
    pairs = []
    for u in range(g.n):
        cu = g.neighbor_mask(u) | 1 << u
        for v in range(u + 1, g.n):
            if g.neighbor_mask(u) >> v & 1 and cu == g.neighbor_mask(v) | 1 << v:
                pairs.append((u, v))
    return pairs


def reference_open_twins(g: Graph) -> list[tuple[int, int]]:
    """Non-adjacent pairs u < v with N(u) = N(v), by scanning every pair."""
    pairs = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.neighbor_mask(u) >> v & 1 and g.neighbor_mask(u) == g.neighbor_mask(v):
                pairs.append((u, v))
    return pairs


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


def distance2_full_code(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """Distance-2 verifier for the full-separation codes FD and FTD.

    Pairs at distance >= 3 have disjoint neighborhoods, so (total-)
    domination already separates them, except that under FD at most one
    vertex may have no code neighbor; only pairs at distance <= 2 need an
    explicit check.
    """
    if kind not in (CodeKind.FD, CodeKind.FTD):
        raise ValueError("the distance-2 verifier applies to FD and FTD only")
    cm = c.mask
    if kind is CodeKind.FTD:
        if not all(g.neighbor_mask(v) & cm for v in range(g.n)):
            return False
    else:
        if not all(g.closed_neighbor_mask(v) & cm for v in range(g.n)):
            return False
        unreached = sum(1 for v in range(g.n) if not g.neighbor_mask(v) & cm)
        if unreached > 1:
            return False
    return _separates_near_pairs(g, cm)


def random_twin_free_graph(rng: random.Random, n: int, isolate_free: bool = True) -> Graph:
    """Rejection-sample a twin-free (and optionally isolate-free) graph."""
    while True:
        g = random_gnp(n, rng.uniform(0.25, 0.7), rng)
        if not g.is_twin_free():
            continue
        if isolate_free and g.isolated_vertices():
            continue
        return g


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, itertools.combinations(range(k), 2))


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Brute-force isomorphism check for tiny graphs (n <= 8)."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    edges_b = set(b.edges())
    for perm in itertools.permutations(range(a.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges_b for u, v in a.edges()):
            return True
    return False
