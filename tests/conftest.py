"""Shared test helpers: independent oracles and random instance samplers.

The oracles here deliberately avoid the package's bitmask kernels: they
work on plain Python sets and exhaustive enumeration, so agreement with
the fast paths is a real check, not a tautology.
"""

from __future__ import annotations

import itertools
import random

from sepcodes import Graph, Hypergraph, VertexSet, random_gnp


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
