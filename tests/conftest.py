"""Shared test helpers: independent oracles and random instance samplers.

The oracles here deliberately avoid the package's bitmask kernels: they
work on plain Python sets and exhaustive enumeration, so agreement with
the fast paths is a real check, not a tautology.  The one exception is
``reference_table_min_cover``, a frozen copy of an earlier search loop
that the engine must match node for node.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from sepcodes import (
    DEFAULT_NODE_BUDGET,
    CnfFormula,
    CodeKind,
    CoverResult,
    EmptyHyperedgeError,
    Family,
    FamilySpec,
    Graph,
    Hypergraph,
    UniverseMismatchError,
    VertexSet,
    is_admissible,
    random_gnp,
)
from sepcodes import hypergraphs
from sepcodes.graphs import bit_ids, check_edge_count, check_vertex_count
from sepcodes.hypergraphs import _bit_slices, _incidence, _minimal_masks
from sepcodes.sat_reduction import _CLAUSE_PARTS, _VAR_PARTS


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


def hypergraph_from_sets(n: int, sets: Iterable[Iterable[int]]) -> Hypergraph:
    """The hypergraph on {0..n-1} whose edges are the given id sets, in order."""
    return Hypergraph(n, [sum(1 << v for v in set(s)) for s in sets])


def is_cover(h: Hypergraph, c: VertexSet) -> bool:
    """True iff c meets every hyperedge (vacuously true if none), so never
    when h holds the empty hyperedge."""
    if c.n != h.n:
        raise UniverseMismatchError(f"cover universe {c.n} != hypergraph universe {h.n}")
    return all(e & c.mask for e in h.edges)


def precedes(h: Hypergraph, h2: Hypergraph) -> bool:
    """True iff every hyperedge of h2 contains some hyperedge of h.

    Then every cover of h also covers h2, hence tau(h2) <= tau(h).
    """
    if h.n != h2.n:
        raise UniverseMismatchError(f"universe sizes differ: {h.n} vs {h2.n}")
    return all(any(e & ~e2 == 0 for e in h.edges) for e2 in h2.edges)


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
    """Inclusion-minimal filter with deduplication, smallest edge first.

    Keeps exactly the inclusion-minimal masks, first occurrence wins on
    duplicates, and returns them by size, ties in input order.
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
    return [masks[i] for i in kept_idx]


def reference_incidence(n: int, masks: Sequence[int]) -> list[int]:
    """Transposed bitsets by membership tests: bit i of ``inc[v]`` is set
    iff vertex v is in masks[i]."""
    return [sum(1 << i for i, m in enumerate(masks) if m >> v & 1) for v in range(n)]


def reference_bit_slices(counts: list[int]) -> list[int]:
    """Count planes by a walk over each count's bits, as built before the
    string transpose: bit i of plane j is bit j of counts[i]."""
    planes = [0] * max(counts, default=0).bit_length()
    for i, c in enumerate(counts):
        for j in bit_ids(c):
            planes[j] |= 1 << i
    return planes


def reference_dump_lines(h: Hypergraph) -> list[str]:
    """Canonical dump through ``str`` per id, as built before the id-string
    table: one line per edge, ids ascending, edges lex-sorted."""
    rows = sorted(list(bit_ids(m)) for m in h.edges)
    return [" ".join(map(str, row)) for row in rows]


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
    """Jeroslow-Wang greedy cover mask by full scans over vertex sets:
    repeatedly take the vertex of largest weight, the sum of 2^-|e| over
    the uncovered edges e containing it, smallest id on ties.  Weights are
    exact, scaled by 2^top for the largest edge size top."""
    uncovered = [ids(m, n) for m in masks]
    top = max(map(len, uncovered), default=0)
    chosen = 0
    while uncovered:
        weight = [0] * n
        for e in uncovered:
            if not e:  # pragma: no cover - callers pass no empty edges
                raise EmptyHyperedgeError("uncoverable hyperedge")
            for v in e:
                weight[v] += 1 << (top - len(e))
        best_v = max(range(n), key=lambda v: (weight[v], -v))
        chosen |= 1 << best_v
        uncovered = [e for e in uncovered if best_v not in e]
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
        # Branch on the smallest remaining edge, trying first the member
        # in the most remaining edges, ties by least id; each sibling bans
        # the members already tried.
        pick = min(effective, key=int.bit_count)
        order = sorted(ids(pick, h.n), key=lambda v: (-sum(1 for m in uncov if m >> v & 1), v))
        tried = 0
        for v in order:
            dfs(chosen | 1 << v, count + 1, banned | tried, uncov)
            if exhausted:
                return
            tried |= 1 << v

    dfs(0, 0, 0, reduced)
    return CoverResult(best_size, VertexSet(h.n, best_mask), not exhausted, nodes)


# --- the table engine, node for node ----------------------------------------
#
# A copy of the transposition-table engine in the engine's try order.  It
# pushes every child of a branching node at once, each past the first with
# its own count planes, over a close marker; the engine makes one child at
# a time from a generator.  It recomputes packing conflicts per edge, shares
# the package's edge filter, incidence and bit-slice helpers and starts from
# the reference greedy, so the search loop, the packing bound and the lazy
# greedy are under test.


def reference_table_packing(masks: Sequence[int], inc: list[int], live: int, banned: int, limit: int) -> int:
    """Greedy count of pairwise-disjoint live edges, restricted to the
    unbanned vertices and taken smallest edge first (the filter's order);
    a lower bound on the cover.  Counting stops once it reaches ``limit``."""
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


def reference_table_min_cover(h: Hypergraph, budget: int | None = None) -> CoverResult:
    """The table engine before leaf children were expanded in place.

    The fast engine must match it node for node: same size, witness,
    optimal flag and ``nodes_explored`` for every input and budget.

    Raises EmptyHyperedgeError if no cover exists.  If the node budget is
    exhausted, returns the best cover found with ``optimal=False``.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if h.has_empty_edge():
        raise EmptyHyperedgeError("hypergraph has an empty hyperedge; no cover exists")
    masks = _minimal_masks(h.n, h.edges)
    counts = [m.bit_count() for m in masks]
    inc = _incidence(h.n, masks, counts)
    best_mask = reference_greedy_mask(h.n, masks)
    best_size = best_mask.bit_count()
    nodes = 0
    exhausted = False
    table: dict[int, int] = {}  # live -> lower bound on a cover of those edges
    # A node is (chosen, count, banned, live, planes): the chosen vertices
    # and their number, the vertices banned by earlier siblings, the edges
    # not yet hit by chosen, and the bit-sliced count of each live edge's
    # allowed (unbanned) members.  Popping the last-pushed child first
    # visits nodes in the preorder of the recursive search.
    stack = [(0, 0, 0, (1 << len(masks)) - 1, _bit_slices(counts))]
    while stack:
        chosen, count, banned, live, planes = stack.pop()
        if planes is None:  # close marker: the subtree above it is finished
            if len(table) >= hypergraphs.TABLE_LIMIT:
                table.clear()
            table[live] = best_size - count
            continue
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
        if count + table.get(live, 0) >= best_size:
            continue
        if count + reference_table_packing(masks, inc, live, banned, best_size - count) >= best_size:
            continue
        # Branch on the first live edge of minimum allowed count, trying
        # first the member that hits the most live edges, ties by least id;
        # each sibling bans the members already tried.
        least = live
        for p in reversed(planes):
            if least & ~p:
                least &= ~p
        pick = masks[(least & -least).bit_length() - 1] & allowed
        order = sorted(bit_ids(pick), key=lambda v: (-(live & inc[v]).bit_count(), v))
        stack.append((0, count, 0, live, None))  # close marker, popped after the children
        children = []
        for v in order:
            low = 1 << v
            hit = inc[v]
            children.append((chosen | low, count + 1, banned, live & ~hit, planes))
            if v == order[-1]:
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


# --- full separation: four equivalent forms as independent oracles --------
#
# The library tests full separation as closed plus open separation.  These
# four forms check every pair u < v on plain Python sets instead.


def _open_nbhds(g: Graph) -> list[set[int]]:
    return [ids(g.rows[v], g.n) for v in range(g.n)]


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


# --- pair scans -----------------------------------------------------------
#
# The library finds twins by grouping equal neighborhood rows, finds forced
# vertices by row lookup, builds the X-hypergraph in one pass over pairs
# and verifies FD/FTD codes as domination plus closed and open separation.
# These are the pair-by-pair formulations they replaced, kept as
# references.


def reference_closed_twins(g: Graph) -> list[tuple[int, int]]:
    """Adjacent pairs u < v with N[u] = N[v], by scanning every pair."""
    pairs = []
    for u in range(g.n):
        cu = g.rows[u] | 1 << u
        for v in range(u + 1, g.n):
            if g.rows[u] >> v & 1 and cu == g.rows[v] | 1 << v:
                pairs.append((u, v))
    return pairs


def reference_open_twins(g: Graph) -> list[tuple[int, int]]:
    """Non-adjacent pairs u < v with N(u) = N(v), by scanning every pair."""
    pairs = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.rows[u] >> v & 1 and g.rows[u] == g.rows[v]:
                pairs.append((u, v))
    return pairs


def reference_forced_vertices(g: Graph) -> VertexSet:
    """Vertices that belong to every full-separating set of g.

    A vertex w is forced when it is the single element of the punctured
    symmetric difference (N(u)-{v}) sym (N(v)-{u}) of some pair u,v: that
    set must be hit, and w is the only candidate.
    """
    forced = 0
    n = g.n
    for u in range(n):
        nu = g.rows[u]
        for v in range(u + 1, n):
            punctured = (nu ^ g.rows[v]) & ~(1 << u | 1 << v)
            if punctured and punctured & (punctured - 1) == 0:
                forced |= punctured
    return VertexSet(n, forced)


# The paper's recipe per kind, stated here apart from the library's
# FAMILIES: whether the domination rows, the adjacent pairs' differences
# and the non-adjacent pairs' differences use closed neighborhoods N[v]
# (else open N(v)).
RECIPES: dict[CodeKind, tuple[bool, bool, bool]] = {
    CodeKind.ID: (True, True, True),
    CodeKind.ITD: (False, True, True),
    CodeKind.LD: (True, False, True),
    CodeKind.LTD: (False, False, True),
    CodeKind.FD: (True, True, False),
    CodeKind.FTD: (False, True, False),
    CodeKind.OD: (True, False, False),
    CodeKind.OTD: (False, False, False),
}


def reference_build_hypergraph(g: Graph, kind: CodeKind) -> Hypergraph:
    """The X-hypergraph of g whose covers are exactly the X-codes of g.

    Edge order is deterministic: all neighborhoods by vertex id, then
    symmetric differences of all adjacent pairs in lexicographic order,
    then of all non-adjacent pairs in lexicographic order.  Non-admissible
    graphs simply yield a hypergraph containing an empty hyperedge.
    """
    dom_closed, adj_closed, non_closed = RECIPES[kind]
    n = g.n
    masks: list[int] = []
    if dom_closed:
        masks.extend(g.rows[v] | 1 << v for v in range(n))
    else:
        masks.extend(g.rows[v] for v in range(n))
    for want_adjacent, closed in ((True, adj_closed), (False, non_closed)):
        for u in range(n):
            row = g.rows[u]
            cu = row | 1 << u
            for v in range(u + 1, n):
                if (row >> v & 1 == 1) != want_adjacent:
                    continue
                if closed:
                    masks.append(cu ^ (g.rows[v] | 1 << v))
                else:
                    masks.append(row ^ g.rows[v])
    return Hypergraph(n, masks)


def reference_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges u < v in lexicographic order, shifting each row bit by bit."""
    out = []
    for u in range(g.n):
        rest = g.rows[u] >> (u + 1)
        v = u + 1
        while rest:
            if rest & 1:
                out.append((u, v))
            rest >>= 1
            v += 1
    return out


# --- per-flavor verifiers -------------------------------------------------
#
# The library verifies a code in one function over the stored open and
# closed rows.  These are the per-flavor predicates it replaced, each
# deriving its rows vertex by vertex, kept as a reference.


def _check_universe(g: Graph, c: VertexSet) -> None:
    if c.n != g.n:
        raise ValueError(f"code universe {c.n} != graph order {g.n}")


def is_dominating(g: Graph, c: VertexSet) -> bool:
    """Every vertex has a code vertex in its closed neighborhood."""
    _check_universe(g, c)
    cm = c.mask
    return all((g.rows[v] | 1 << v) & cm for v in range(g.n))


def is_total_dominating(g: Graph, c: VertexSet) -> bool:
    """Every vertex has a code vertex among its neighbors."""
    _check_universe(g, c)
    cm = c.mask
    return all(g.rows[v] & cm for v in range(g.n))


def is_closed_separating(g: Graph, c: VertexSet) -> bool:
    """The traces N[v] & C are pairwise distinct."""
    _check_universe(g, c)
    cm = c.mask
    traces = {(g.rows[v] | 1 << v) & cm for v in range(g.n)}
    return len(traces) == g.n


def is_open_separating(g: Graph, c: VertexSet) -> bool:
    """The traces N(v) & C are pairwise distinct."""
    _check_universe(g, c)
    cm = c.mask
    traces = {g.rows[v] & cm for v in range(g.n)}
    return len(traces) == g.n


def is_locating(g: Graph, c: VertexSet) -> bool:
    """The traces N(v) & C are pairwise distinct over vertices outside C."""
    _check_universe(g, c)
    cm = c.mask
    outside = [v for v in range(g.n) if not cm >> v & 1]
    traces = {g.rows[v] & cm for v in outside}
    return len(traces) == len(outside)


def reference_verify_code(g: Graph, kind: CodeKind, c: VertexSet) -> bool:
    """Check c against the definition of a kind-code, one predicate per flavor."""
    if RECIPES[kind][0]:
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
    return is_closed_separating(g, c) and is_open_separating(g, c)


def _separates_near_pairs(g: Graph, cm: int) -> bool:
    # Full separation restricted to pairs at distance <= 2 (adjacent or
    # sharing a neighbor), via the punctured symmetric difference.
    n = g.n
    for u in range(n):
        nu = g.rows[u]
        for v in range(u + 1, n):
            nv = g.rows[v]
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
        if not all(g.rows[v] & cm for v in range(g.n)):
            return False
    else:
        if not all((g.rows[v] | 1 << v) & cm for v in range(g.n)):
            return False
        unreached = sum(1 for v in range(g.n) if not g.rows[v] & cm)
        if unreached > 1:
            return False
    return _separates_near_pairs(g, cm)


def exhaustive_small_formulas(max_vars: int, max_clauses: int) -> Iterable[CnfFormula]:
    """Every formula (up to clause multiset equality) with each variable used.

    Clauses range over all sign patterns of all non-empty variable subsets
    of size <= 3; formulas where some variable never occurs are skipped,
    since their gadgets are inadmissible by construction.
    """
    for n in range(1, max_vars + 1):
        pool: list[tuple[int, ...]] = []
        for size in range(1, min(3, n) + 1):
            for vars_ in itertools.combinations(range(1, n + 1), size):
                for signs in itertools.product((1, -1), repeat=size):
                    pool.append(tuple(v * s for v, s in zip(vars_, signs)))
        for m in range(1, max_clauses + 1):
            for combo in itertools.combinations_with_replacement(pool, m):
                used = {abs(lit) for clause in combo for lit in clause}
                if len(used) == n:
                    yield CnfFormula(n, combo)


def reference_build_gadget(formula: CnfFormula) -> tuple[Graph, dict[str, int]]:
    """The gadget built through a stored name -> id dict and label lookups.

    Oracle for the arithmetic ids of sat_reduction.build_gadget: returns
    the graph and the label map, in id order.
    """
    n, m = formula.num_vars, formula.num_clauses
    check_vertex_count(10 * n + 3 * m)
    labels: dict[str, int] = {}
    for i in range(1, n + 1):
        base = (i - 1) * 10
        for offset, part in enumerate(_VAR_PARTS):
            labels[f"{part}^x{i}"] = base + offset
    for j in range(1, m + 1):
        base = 10 * n + (j - 1) * 3
        for offset, part in enumerate(_CLAUSE_PARTS):
            labels[f"{part}^y{j}"] = base + offset

    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        v1, v2, v3, w1, w2, s1, s2, s3, z1, z2 = (
            labels[f"{part}^x{i}"] for part in _VAR_PARTS
        )
        six = [v1, w1, w2, s1, s2, s3]
        missing = {frozenset((w1, w2)), frozenset((v1, s1)),
                   frozenset((v1, s2)), frozenset((v1, s3))}
        edges.extend(
            (a, b)
            for a, b in itertools.combinations(six, 2)
            if frozenset((a, b)) not in missing
        )
        edges.extend([(v1, v2), (v2, v3), (s1, z1), (s2, z2)])
    for j, clause in enumerate(formula.clauses, start=1):
        u1 = labels[f"u1^y{j}"]
        edges.append((u1, labels[f"u2^y{j}"]))
        edges.append((labels[f"u2^y{j}"], labels[f"u3^y{j}"]))
        for lit in clause:
            w = labels[f"{'w1' if lit > 0 else 'w2'}^x{abs(lit)}"]
            edges.append((u1, w))
    return Graph.from_edges(10 * n + 3 * m, edges), labels


# Frozen copies of the branching family code that the shape and X-number
# tables of sepcodes.families replaced; they are the oracles for the tables.
REFERENCE_MIN_SIZE = {
    Family.PATH: 1,
    Family.CYCLE: 3,
    Family.HALF_GRAPH: 1,
    Family.THIN_SPIDER: 2,
    Family.THICK_SPIDER: 2,
}


def reference_family_check(family: Family, size: int) -> None:
    """The parameter and vertex-count checks of FamilySpec, as branches."""
    if size < REFERENCE_MIN_SIZE[family]:
        raise ValueError(
            f"{family.value} requires parameter >= {REFERENCE_MIN_SIZE[family]},"
            f" got {size}"
        )
    check_vertex_count(size if family in (Family.PATH, Family.CYCLE)
                       else 2 * size)


def reference_generate(spec: FamilySpec) -> Graph:
    """The family graph built by one branch per family."""
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


def _reference_path_cycle_base(n: int) -> int:
    q, r = divmod(n, 6)
    return 4 * q + (r if r <= 4 else 4)


def reference_formula_x_number(spec: FamilySpec, kind: CodeKind) -> int | None:
    """The known closed-form X-numbers, one branch per family and kind."""
    f, p = spec.family, spec.size
    if f in (Family.PATH, Family.CYCLE):
        n = p
        if (f is Family.PATH and n < 4) or (f is Family.CYCLE and n < 5):
            return None
        if kind in (CodeKind.FD, CodeKind.FTD):
            return _reference_path_cycle_base(n)
        if kind is CodeKind.OTD:
            if f is Family.PATH:
                return _reference_path_cycle_base(n)
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


def reference_random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) drawn by one comprehension with no size checks."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def reference_disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union rebuilt from both edge lists, b shifted up by a.n."""
    edges = list(a.edges())
    edges.extend((u + a.n, v + a.n) for u, v in b.edges())
    return Graph.from_edges(a.n + b.n, edges)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled to 0..k-1 in
    ascending order of their original ids, rebuilt from the edge list."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex id {v} out of range")
    index = {v: i for i, v in enumerate(kept)}
    return Graph.from_edges(len(kept), [(index[u], index[v]) for u, v in g.edges()
                                        if u in index and v in index])


def isolated_vertices(g: Graph) -> VertexSet:
    """The vertices on no edge of the edge list."""
    touched = {v for edge in g.edges() for v in edge}
    return VertexSet.of(g.n, (v for v in range(g.n) if v not in touched))


def random_twin_free_graph(rng: random.Random, n: int, isolate_free: bool = True) -> Graph:
    """Rejection-sample a twin-free (and optionally isolate-free) graph.

    Raises ValueError for the orders that have no such graph, where the
    rejection loop would never end: no graph on 2 or 3 vertices is
    twin-free, and the one vertex of a 1-vertex graph is isolated.
    """
    if n in (2, 3) or (n == 1 and isolate_free):
        raise ValueError(f"no twin-free graph (isolate_free={isolate_free}) has {n} vertices")
    while True:
        g = random_gnp(n, rng.uniform(0.25, 0.7), rng)
        if not is_admissible(g, CodeKind.FD):  # twin-free
            continue
        if isolate_free and isolated_vertices(g):
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


# Malformed inputs with the message each parser gives for them; the parser
# tests and the CLI tests (which must exit 1 on each) share these cases.
MALFORMED_EDGE_LISTS = [
    ("3 1 2\n0 1\n", "line 1: expected header 'n m'"),
    ("x 1\n0 1\n", "line 1: non-integer header"),
    ("-3 1\n0 1\n", "line 1: negative header values"),
    ("3 1\n0 1 2\n", "line 2: expected edge 'u v'"),
]

MALFORMED_DIMACS = [
    ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate problem line"),
    ("p cnf 1\n1 0\n", "line 1: expected 'p cnf <vars> <clauses>'"),
    ("p cnf x 1\n1 0\n", "line 1: non-integer problem counts"),
    ("p cnf 1 1\n0\n", "line 2: empty clause"),
    ("c only a comment\n", "missing 'p cnf' header"),
    ("p cnf 0 0\n", "formula needs at least one variable"),
]
