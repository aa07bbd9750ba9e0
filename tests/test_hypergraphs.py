import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from sepcodes import (
    CodeKind,
    EmptyHyperedgeError,
    Family,
    FamilySpec,
    Hypergraph,
    UniverseMismatchError,
    VertexSet,
    build_hypergraph,
    generate,
    greedy_cover,
    min_cover,
    random_gnp,
    remove_redundant,
    x_number,
)

from sepcodes import hypergraphs
from sepcodes.codes import is_admissible, solver_hypergraph
from sepcodes.families import graph_from_spec_string
from sepcodes.hypergraphs import _bit_slices, _greedy_mask, _incidence, _minimal_masks

from conftest import (
    brute_force_tau,
    hypergraph_from_sets,
    ids,
    is_cover,
    naive_minimal_edges,
    precedes,
    random_hypergraph,
    random_subset,
    random_twin_free_graph,
    reference_bit_slices,
    reference_dump_lines,
    reference_greedy_mask,
    reference_incidence,
    reference_min_cover,
    reference_minimal_masks,
    reference_packing_lower_bound,
    reference_table_min_cover,
)


def hg(n, *sets):
    return hypergraph_from_sets(n, sets)


class TestConstruction:
    def test_bits_outside_universe_rejected(self):
        for bad in (0b100, -1):
            with pytest.raises(ValueError):
                Hypergraph(2, [bad])
        with pytest.raises(ValueError):
            hg(2, [2])

    @pytest.mark.parametrize("edges, named", [
        ([0b01, -1, 0b10], "-0x1"),
        ([0b01, 0b100, 0b10], "0x4"),
        ([0b11, 0b1000, -3, 0b100], "0x8"),  # the first offender, not the min or max
        ([-2, 0b100], "-0x2"),
    ])
    def test_out_of_range_message_names_first_offender(self, edges, named):
        with pytest.raises(ValueError) as info:
            Hypergraph(2, edges)
        assert str(info.value) == f"hyperedge mask {named} has bits outside 0..1"

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Hypergraph(-1, [])

    def test_value_semantics(self):
        h = hg(3, [0, 1], [2])
        assert h == Hypergraph(3, [0b011, 0b100])
        assert hash(h) == hash(Hypergraph(3, (0b011, 0b100)))
        assert h != Hypergraph(4, [0b011, 0b100])
        assert h == Hypergraph(3, [0b011, 0b100], lower=2)  # a bound is not part of the value
        assert repr(h) == "Hypergraph(n=3, edges=2)"


class TestIsCover:
    def test_basic(self):
        h = hg(2, [0], [1])
        assert is_cover(h, VertexSet.of(2, [0, 1]))
        assert not is_cover(h, VertexSet.of(2, [0]))

    def test_empty_hyperedge_never_covered(self):
        h = hg(2, [], [0])
        assert not is_cover(h, VertexSet.of(2, [0, 1]))

    def test_no_edges_vacuous(self):
        assert is_cover(Hypergraph(3, []), VertexSet(3))

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            is_cover(hg(2, [0]), VertexSet.of(3, [0]))


class TestRemoveRedundant:
    def test_superset_dropped(self):
        h = hg(2, [0], [0, 1])
        assert remove_redundant(h) == hg(2, [0])

    def test_duplicates_collapse(self):
        h = hg(2, [0, 1], [0, 1])
        assert remove_redundant(h) == hg(2, [0, 1])

    def test_half_graph_fd_pattern(self):
        # after reduction only the consecutive-pair singletons and the one
        # corner pair survive: {w_1..w_3}, {u_2..u_4} singletons, {u_1, w_4}
        g = generate(FamilySpec(Family.HALF_GRAPH, 4))
        reduced = remove_redundant(build_hypergraph(g, CodeKind.FD))
        got = {frozenset(ids(e, g.n)) for e in reduced.edges}
        expected = {frozenset({4}), frozenset({5}), frozenset({6}),
                    frozenset({1}), frozenset({2}), frozenset({3}),
                    frozenset({0, 7})}
        assert got == expected

    def test_agrees_with_naive_filter(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(1, 10), rng.randint(0, 14))
            got = sorted(tuple(sorted(ids(e, h.n))) for e in remove_redundant(h).edges)
            want = sorted(tuple(sorted(s)) for s in set(naive_minimal_edges(h)))
            assert got == want

    def test_idempotent_and_cover_preserving(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 9)
            h = random_hypergraph(rng, n, rng.randint(0, 12), allow_empty=True)
            reduced = remove_redundant(h)
            assert remove_redundant(reduced) == reduced
            for _ in range(20):
                c = random_subset(n, rng)
                assert is_cover(h, c) == is_cover(reduced, c)
        # reduced builds come back unchanged, edge order and lower bound too
        for _ in range(20):
            g = random_twin_free_graph(rng, rng.randint(4, 11))
            for kind in CodeKind:
                for build in (build_hypergraph, solver_hypergraph):
                    reduced = remove_redundant(build(g, kind))
                    again = remove_redundant(reduced)
                    assert (again.edges, again.lower) == (reduced.edges, reduced.lower), kind

    def test_preserves_min_cover_size(self):
        rng = random.Random(13)
        for _ in range(15):
            h = random_hypergraph(rng, rng.randint(1, 9), rng.randint(1, 10))
            assert min_cover(h).size == min_cover(remove_redundant(h)).size

    def test_smallest_edges_first(self):
        h = hg(4, [0, 1, 2], [2, 3], [1], [0, 3], [1, 2], [2, 3])
        assert remove_redundant(h) == hg(4, [1], [2, 3], [0, 3])

    def test_by_size_ties_in_input_order(self):
        rng = random.Random(14)
        for _ in range(400):
            h = awkward_hypergraph(rng)
            kept = _minimal_masks(h.n, h.edges)
            assert remove_redundant(h).edges == tuple(kept)
            first = {m: i for i, m in reversed(list(enumerate(h.edges)))}  # duplicates: first wins
            keys = [(m.bit_count(), first[m]) for m in kept]
            assert keys == sorted(keys), h.edges


class TestMinCover:
    def test_disjoint_singletons(self):
        assert min_cover(hg(2, [0], [1])).size == 2

    def test_triangle_of_pairs(self):
        # expected value frozen from subset enumeration: no single vertex
        # hits all three pairs, any two vertices do
        h = hg(3, [0, 1], [1, 2], [0, 2])
        assert brute_force_tau(h) == 2
        assert min_cover(h).size == 2

    def test_path12_ftd(self):
        g = generate(FamilySpec(Family.PATH, 12))
        assert min_cover(build_hypergraph(g, CodeKind.FTD)).size == 8

    def test_no_edges(self):
        res = min_cover(Hypergraph(4, []))
        assert res.size == 0 and res.optimal

    def test_empty_hyperedge_raises(self):
        with pytest.raises(EmptyHyperedgeError):
            min_cover(hg(2, [], [0]))

    def test_witness_is_cover_and_optimal_flag(self):
        rng = random.Random(21)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(1, 12), rng.randint(1, 16))
            res = min_cover(h)
            assert res.optimal
            assert is_cover(h, res.witness)
            assert len(res.witness) == res.size

    def test_matches_enumeration_oracle(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(1, 14))
            assert min_cover(h).size == brute_force_tau(h)

    def test_budget_exhaustion_reports_nonoptimal(self):
        rng = random.Random(3)
        h = random_hypergraph(rng, 14, 30)
        res = min_cover(h, budget=1)
        assert not res.optimal
        assert is_cover(h, res.witness)
        assert res.size >= brute_force_tau(h)

    def test_negative_budget_rejected(self):
        # no search can report budget + 1 nodes for a budget below 0
        with pytest.raises(ValueError, match="non-negative"):
            min_cover(hg(2, [0], [1]), budget=-2)
        g, _ = graph_from_spec_string("path:6")
        with pytest.raises(ValueError):
            x_number(g, CodeKind.FTD, budget=-2)

    def test_start_that_misses_an_edge_rejected(self):
        h = hg(3, [0, 1], [2])
        for start in (0b011, 0b100, 0b1101, -1):  # 0b1101 holds vertex 3, outside the universe
            with pytest.raises(ValueError, match="not a cover"):
                min_cover(h, start=start)

    def test_start_meeting_lower_returns_at_once(self):
        # the trace bound of path:72 FD is its optimum, 48; the greedy
        # cover is larger and the search does not reach 48 in 50,000 nodes,
        # but FTD's code is an FD code of size 48
        g, _ = graph_from_spec_string("path:72")
        h = solver_hypergraph(g, CodeKind.FD)
        assert h.lower == 48
        assert not min_cover(h, 50_000).optimal
        start = x_number(g, CodeKind.FTD).witness.mask
        res = min_cover(h, 0, start)
        assert (res.size, res.witness.mask, res.optimal, res.nodes_explored) == (48, start, True, 0)

    def test_start_replaces_only_a_larger_greedy_cover(self):
        # an optimal start is the witness, found or given, and saves the
        # nodes spent on finding it
        rng = random.Random(23)
        saved = 0
        for _ in range(60):
            h = random_hypergraph(rng, rng.randint(8, 20), rng.randint(10, 40))
            plain = min_cover(h)
            assert min_cover(h, None, (1 << h.n) - 1) == plain
            res = min_cover(h, None, plain.witness.mask)
            assert (res.size, res.witness, res.optimal) == (plain.size, plain.witness, True)
            assert res.nodes_explored <= plain.nodes_explored
            saved += res.nodes_explored < plain.nodes_explored
        assert saved >= 3  # 4 of 60

    def test_deterministic_witness(self):
        rng = random.Random(8)
        for _ in range(10):
            h = random_hypergraph(rng, 10, 12)
            a = min_cover(h)
            b = min_cover(h)
            assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


class TestGreedyCover:
    def test_disjoint_singletons(self):
        assert greedy_cover(hg(2, [0], [1])).size == 2

    def test_shared_vertex(self):
        res = greedy_cover(hg(3, [0, 1], [1, 2]))
        assert res.witness == VertexSet.of(3, [1])
        assert res.size == 1

    def test_upper_bounds_minimum(self):
        rng = random.Random(17)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(1, 10), rng.randint(1, 12))
            assert greedy_cover(h).size >= min_cover(h).size

    def test_optimal_flag_is_sound(self):
        # the flag is only set when the packing bound proves optimality
        rng = random.Random(18)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(1, 10), rng.randint(1, 12))
            res = greedy_cover(h)
            if res.optimal:
                assert res.size == min_cover(h).size

    def test_empty_hyperedge_raises(self):
        with pytest.raises(EmptyHyperedgeError):
            greedy_cover(hg(1, []))


class TestPrecedes:
    def test_basic(self):
        assert precedes(hg(2, [0]), hg(2, [0, 1]))
        assert not precedes(hg(3, [0, 1]), hg(3, [2]))

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            precedes(hg(2, [0]), hg(3, [0]))

    def test_id_precedes_ld_on_twin_free_graphs(self):
        # the closed-adjacent diffs sit inside the open-adjacent diffs, so
        # the ID-hypergraph precedes the LD one (tau_LD <= tau_ID)
        rng = random.Random(31)
        for _ in range(15):
            g = random_twin_free_graph(rng, rng.randint(4, 10))
            h_id = build_hypergraph(g, CodeKind.ID)
            h_ld = build_hypergraph(g, CodeKind.LD)
            assert precedes(h_id, h_ld)

    def test_cover_transfer_and_tau_inequality(self):
        # construct pairs guaranteed to satisfy the relation: every edge of
        # h2 is an edge of h padded with extra vertices
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(2, 10)
            h = random_hypergraph(rng, n, rng.randint(1, 8))
            h2 = Hypergraph(n, [e | rng.getrandbits(n) for e in h.edges])
            assert precedes(h, h2)
            res = min_cover(h)
            assert is_cover(h2, res.witness)
            assert min_cover(h2).size <= res.size

    def test_random_pairs_respect_cover_transfer(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 8)
            h = random_hypergraph(rng, n, rng.randint(1, 6))
            h2 = random_hypergraph(rng, n, rng.randint(1, 6))
            if precedes(h, h2):
                assert min_cover(h2).size <= min_cover(h).size
                assert is_cover(h2, min_cover(h).witness)


class TestDump:
    def test_lines_sorted_lexicographically(self):
        h = hg(4, [2, 3], [0], [0, 1], [])
        assert h.dump_lines() == ["", "0", "0 1", "2 3"]

    def test_ids_sort_as_numbers(self):
        h = hg(11, [6, 10], [6, 7, 8], [9])
        assert h.dump_lines() == ["6 7 8", "6 10", "9"]

    def test_matches_the_reference_dump(self):
        # n = 0, empty and duplicate edges, sparse and dense masks up to
        # bit 1999, two-digit ids against one-digit ones
        rng = random.Random(29)
        seen = Counter()
        for _ in range(1200):
            n = rng.choice((0, 1, 2, 10, 11, 12, 100, 2000))
            edges: list[int] = []
            for _ in range(rng.randint(0, 25)):
                roll = rng.random()
                if edges and roll < 0.1:
                    edges.append(rng.choice(edges))
                    seen["duplicate"] += 1
                elif not n or roll < 0.2:
                    edges.append(0)
                    seen["empty"] += 1
                elif roll < 0.8:
                    edges.append(sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 5)))))
                else:
                    edges.append(rng.getrandbits(n) & rng.getrandbits(n))
            if n and rng.random() < 0.5:
                edges.append(1 << n - 1)
            seen["bit 1999"] += any(m >> 1999 for m in edges)
            seen["n = 0"] += not n
            h = Hypergraph(n, edges)
            assert h.dump_lines() == reference_dump_lines(h), (n, edges)
        assert min(seen.values()) > 50, seen


def awkward_hypergraph(rng: random.Random) -> Hypergraph:
    """n <= 12, up to 20 edges, with duplicates, nested and empty edges."""
    n = rng.randint(0, 12)
    empty_rate = 0.05 if rng.random() < 0.1 else 0.0
    edges: list[int] = []
    for _ in range(rng.randint(0, 20)):
        roll = rng.random()
        if edges and roll < 0.08:
            edges.append(rng.choice(edges))  # duplicate
        elif edges and roll < 0.16:
            edges.append(rng.choice(edges) | rng.getrandbits(n))  # superset
        elif roll < 0.16 + empty_rate or not n:
            edges.append(0)
        else:
            size = min(n, rng.choice((2, 2, 3, 3, rng.randint(1, n))))
            edges.append(sum(1 << v for v in rng.sample(range(n), size)))
    return Hypergraph(n, edges)


def wide_hypergraphs(seed: int = 31, count: int = 5) -> list[Hypergraph]:
    """Seeded hypergraphs on 30-44 vertices whose 30-60 edges have 10-30
    members each, so branching nodes have many siblings; tau is 3 or 4."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(30, 44)
        cases.append(Hypergraph(n, [sum(1 << v for v in rng.sample(range(n), rng.randint(10, 30)))
                                    for _ in range(rng.randint(30, 60))]))
    return cases


def cover_outcome(solve, h, budget):
    try:
        res = solve(h, budget)
    except EmptyHyperedgeError:
        return "empty"
    return res.size, res.witness.mask, res.optimal, res.nodes_explored


def check_against_reference(h, budget) -> bool:
    """The engine matches the table engine node for node.  The table only
    cuts subtrees without a strictly better cover, so the engine meets the
    list-based reference's incumbents in the same order: the same answer
    wherever the reference proves, never a larger size and never more
    nodes.  Returns whether the table saved nodes."""
    got = cover_outcome(min_cover, h, budget)
    assert got == cover_outcome(reference_table_min_cover, h, budget), (h.n, h.edges, budget)
    want = cover_outcome(reference_min_cover, h, budget)
    if want == "empty":
        assert got == "empty"
        return False
    if want[2]:
        assert got[:3] == want[:3], (h.n, h.edges, budget)
    assert got[0] <= want[0] and got[3] <= want[3], (h.n, h.edges, budget)
    return got[3] < want[3]


FAMILY_SPECS = ("path:18", "path:24", "path:36", "cycle:18", "cycle:24", "cycle:36",
                "thick:9", "thick:12", "thick:18")


def family_build(spec, kind):
    """The X-hypergraph of a family graph without its trace bound: the
    reference engines have no stop, so the engine must search in full."""
    h = build_hypergraph(graph_from_spec_string(spec)[0], kind)
    return Hypergraph(h.n, h.edges)


def family_hypergraphs():
    for spec in FAMILY_SPECS:
        for kind in CodeKind:
            yield family_build(spec, kind)


class TestKernelMatchesReference:
    """The incidence-bitset kernel against the list-based reference engine."""

    def test_min_cover_same_incumbents_fewer_nodes(self):
        rng = random.Random(61)
        saved = 0
        for _ in range(1000):
            h = awkward_hypergraph(rng)
            for budget in (1, 2, 3, 10, 50, None):
                saved += check_against_reference(h, budget)
        assert saved > 0

    def test_family_hypergraphs_where_the_table_cuts(self):
        saved = sum(check_against_reference(h, budget)
                    for h in family_hypergraphs() for budget in (10, 50, 2000))
        assert saved == 49

    @pytest.mark.parametrize("limit", [1, 2])
    def test_tiny_table_limit_same_answer(self, monkeypatch, limit):
        rng = random.Random(63)
        cases = [awkward_hypergraph(rng) for _ in range(200)]
        for spec, kind in (("path:24", CodeKind.OD), ("cycle:24", CodeKind.OD),
                           ("thick:12", CodeKind.LD), ("path:24", CodeKind.OTD)):
            cases.append(family_build(spec, kind))
        want = [cover_outcome(min_cover, h, None) for h in cases]
        monkeypatch.setattr(hypergraphs, "TABLE_LIMIT", limit)
        got = [cover_outcome(min_cover, h, None) for h in cases]
        for h, g, w in zip(cases, got, want):
            assert g[:3] == w[:3], (h.n, h.edges)
        # the limit binds: these four take 375, 1433, 490 and 57 nodes at
        # the default limit
        nodes = {1: [379, 1473, 5895, 59], 2: [379, 1473, 5856, 59]}[limit]
        assert [g[3] for g in got[-4:]] == nodes

    def test_greedy_filter_and_packing(self):
        rng = random.Random(62)
        for _ in range(400):
            h = awkward_hypergraph(rng)
            assert _minimal_masks(h.n, h.edges) == reference_minimal_masks(h.edges), h.edges
            if h.has_empty_edge():
                continue
            # the greedy reads size classes from edges that run smallest first
            by_size = sorted(h.edges, key=int.bit_count)
            want = reference_greedy_mask(h.n, by_size)
            counts = [m.bit_count() for m in by_size]
            assert _greedy_mask(_incidence(h.n, by_size, counts), counts) == want, h.edges
            # greedy_cover runs greedy and packing on the reduced edges
            reduced = reference_minimal_masks(h.edges)
            want = reference_greedy_mask(h.n, reduced)
            res = greedy_cover(h)
            bound = reference_packing_lower_bound(reduced)
            assert (res.witness.mask, res.optimal) == (want, want.bit_count() == bound)

    def test_empty_masks_leave_one(self):
        assert _minimal_masks(2, (0b11, 0, 0b1, 0)) == [0]
        assert _minimal_masks(0, ()) == []

    @pytest.mark.parametrize("spec, kind, nodes", [
        ("thick:12", CodeKind.LD, 490),
        ("path:36", CodeKind.ID, 1),
        # far-pair kinds (solver build within distance 2) not pinned above
        ("path:48", CodeKind.FTD, 0),
        ("cycle:36", CodeKind.OTD, 0),
        ("thick:15", CodeKind.ITD, 43),
        ("thick:12", CodeKind.LTD, 485),
        # FD and OD where the trace bound is the optimum: the weighted
        # greedy meets it, where the most-hits greedy started above it
        ("path:36", CodeKind.FD, 0),
        ("path:36", CodeKind.OD, 0),
        ("cycle:24", CodeKind.FD, 0),
        ("cycle:24", CodeKind.OD, 0),
        ("cycle:36", CodeKind.FD, 0),
        ("cycle:36", CodeKind.OD, 0),
        # large sparse root proofs, where the lazy heap re-weighs few vertices
        ("path:2000", CodeKind.FTD, 0),
        ("cycle:2000", CodeKind.ID, 0),
    ])
    def test_x_number_node_counts_pinned(self, spec, kind, nodes):
        # the greedy, the branching order, the table's cuts and the trace
        # bound's stop are fixed; the root proofs return the greedy cover
        # (cycle:24 FD and OD, path:48 FTD and cycle:36 OTD take 183, 1433,
        # 203 and 1683 nodes without the bound)
        g, _ = graph_from_spec_string(spec)
        res = x_number(g, kind)
        assert res.optimal and res.nodes_explored == nodes


class TestSearchOnFilterOrder:
    """The search reads the filter's smallest-first order.  min_cover
    filters its input itself and the filter hands reduced input back
    unchanged, so a reduced build is searched node for node like the build
    (the bench's traced replay reduces first); and the sizes stay exact."""

    def test_min_cover_same_on_reduced_builds(self):
        rng = random.Random(66)
        graphs = [random_twin_free_graph(rng, rng.randint(4, 11)) for _ in range(40)]
        graphs.extend(graph_from_spec_string(spec)[0] for spec in ("path:24", "cycle:24", "thick:9"))
        for g in graphs:
            for kind in CodeKind:
                for build in (build_hypergraph, solver_hypergraph):
                    h = build(g, kind)
                    for budget in (5, None):
                        assert (cover_outcome(min_cover, h, budget)
                                == cover_outcome(min_cover, remove_redundant(h), budget)), (kind, budget)

    def test_x_number_is_brute_force_tau(self):
        rng = random.Random(67)
        for _ in range(150):
            g = random_twin_free_graph(rng, rng.randint(4, 11))
            for kind in CodeKind:
                if is_admissible(g, kind):
                    res = x_number(g, kind)
                    assert res.optimal and res.size == brute_force_tau(build_hypergraph(g, kind)), kind


class TestNodeForNode:
    """Unit propagation ahead of the single cut chain, children made one at
    a time by their branching node's generator, leaf children expanded in
    place and the node closed by a generator without children, and
    packing conflicts cached by allowed members (cleared once the cache
    holds one entry per edge) change no node: size, witness, flag and
    ``nodes_explored`` all match the table engine, which pushes every child
    and walks every packed edge, at every budget from 0 on."""

    @pytest.mark.parametrize("spec, kind", [("cycle:24", CodeKind.FD), ("thick:12", CodeKind.LD)])
    def test_every_budget(self, spec, kind):
        # every budget up to the unbounded count; some run out inside a run
        # of leaf children, some right after the one that covers
        nodes = {"cycle:24": 183, "thick:12": 490}[spec]
        h = remove_redundant(family_build(spec, kind))
        for budget in range(0, nodes + 1):
            got = cover_outcome(min_cover, h, budget)
            assert got == cover_outcome(reference_table_min_cover, h, budget), budget
            assert got[2:] == ((False, budget + 1) if budget < nodes else (True, nodes))

    def test_every_budget_on_wide_edges(self):
        # branching edges of 10-30 members: every budget up to the unbounded
        # count, so many run out between two siblings of one node
        for h in wide_hypergraphs():
            nodes = min_cover(h).nodes_explored
            assert nodes > 60, (h.n, h.edges)
            for budget in range(0, nodes + 1):
                got = cover_outcome(min_cover, h, budget)
                assert got == cover_outcome(reference_table_min_cover, h, budget), (h.n, h.edges, budget)

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_tiny_table_limit(self, monkeypatch, limit):
        # the table engine reads the patched limit too; at limit 3 a leaf
        # expansion that wrote without clearing a full table would keep
        # entries the table engine drops, and cut other nodes
        monkeypatch.setattr(hypergraphs, "TABLE_LIMIT", limit)
        for spec, kind in (("path:18", CodeKind.ITD), ("path:18", CodeKind.OD),
                           ("path:24", CodeKind.FD), ("cycle:24", CodeKind.FD)):
            h = family_build(spec, kind)
            got = cover_outcome(min_cover, h, None)
            assert got == cover_outcome(reference_table_min_cover, h, None), (spec, kind)

    def test_incumbent_from_a_popped_child(self):
        # a child made by its parent's generator covers every edge, so visiting it
        # improves the incumbent (greedy 5 -> 3)
        h = hypergraph_from_sets(10, [[1, 3, 7], [0, 2, 7], [3, 5, 6, 8], [0, 4, 6], [3, 4, 7],
                                      [0, 2, 5], [6, 9], [4, 5, 7], [5, 8], [3, 4, 6, 9],
                                      [2, 4, 6], [2, 4, 7], [2, 5, 9]])
        assert greedy_cover(h).size == 5
        got = cover_outcome(min_cover, h, None)
        assert got == (3, VertexSet.of(10, [5, 6, 7]).mask, True, 8)
        assert got == cover_outcome(reference_table_min_cover, h, None)
        assert got == cover_outcome(reference_min_cover, h, None)
        assert brute_force_tau(h) == 3

    def test_dense_gnp_pinned(self):
        # a seeded G(40, 0.3): the bench's dense ops run out of budget the
        # same way, and nodes_explored counts the node that crossed the cap
        g = random_gnp(40, 0.3, random.Random(0))
        h = build_hypergraph(g, CodeKind.ID)
        got = cover_outcome(min_cover, h, 50_000)
        assert got == cover_outcome(reference_table_min_cover, h, 50_000)
        assert (got[0], got[2], got[3]) == (8, False, 50_001)
        assert is_cover(h, VertexSet(h.n, got[1]))

    def test_dense_gnp_clears_the_conflict_cache(self, monkeypatch):
        # the case above meets more allowed-member sets than it has edges
        # (794), so the cache is cleared inside a search that still
        # matches the table engine node for node
        h = build_hypergraph(random_gnp(40, 0.3, random.Random(0)), CodeKind.ID)
        packing, sizes = hypergraphs._packing, []

        def recorded(masks, inc, conf, *rest):
            packed = packing(masks, inc, conf, *rest)
            sizes.append((len(conf), len(masks)))
            return packed

        monkeypatch.setattr(hypergraphs, "_packing", recorded)
        got = cover_outcome(min_cover, h, 50_000)
        assert got == cover_outcome(reference_table_min_cover, h, 50_000)
        assert {edges for _, edges in sizes} == {794}
        assert max(held for held, _ in sizes) == 794
        assert any(after < before for (before, _), (after, _) in zip(sizes, sizes[1:]))


# The search workload's family ops: (family, size, kinds).
SEARCH_FAMILY_OPS = (
    ("path", 36, "FTD FD OD ID LTD"),
    ("path", 48, "FTD ID LTD"),
    ("path", 60, "FTD LTD"),
    ("path", 72, "LTD"),
    ("cycle", 24, "FTD FD OD OTD ID LTD"),
    ("cycle", 36, "FTD FD OD OTD ID LTD"),
    ("cycle", 48, "FTD LTD"),
    ("thick", 12, "LD LTD ID ITD"),
    ("thick", 15, "LD LTD ID ITD"),
    ("thick", 20, "LD LTD ID ITD"),
)


class TestTryOrder:
    """A branching node tries first the member of its branching edge that
    hits the most live edges, ties by least id."""

    def test_most_hits_before_least_id(self):
        # the root branches on {2, 4, 7}, where 4 hits three edges and 2
        # and 7 two each: trying 4 first reaches the optimum {3, 4} (in
        # ascending id order the first optimum is {2, 3}); the greedy cover
        # has 3 vertices
        h = hg(8, [2, 4, 7], [1, 3, 5], [0, 3, 7], [0, 3, 4], [0, 2, 4])
        assert greedy_cover(h).size == 3
        got = cover_outcome(min_cover, h, None)
        assert got == (2, VertexSet.of(8, [3, 4]).mask, True, 7)
        assert got == cover_outcome(reference_table_min_cover, h, None)
        assert got == cover_outcome(reference_min_cover, h, None)
        assert brute_force_tau(h) == 2

    def test_search_family_ops_prove(self):
        total = 0
        for name, size, kinds in SEARCH_FAMILY_OPS:
            g = generate(FamilySpec(Family(name), size))
            for kind in kinds.split():
                res = x_number(g, CodeKind[kind], budget=50_000)
                assert res.optimal, (name, size, kind)
                total += res.nodes_explored
        assert total == 5918

    def test_runs_are_deterministic(self):
        def outcomes():
            cases = [(random_gnp(40, 0.3, random.Random(0)), CodeKind.ID, 2000),
                     (graph_from_spec_string("cycle:36")[0], CodeKind.OD, None),
                     (graph_from_spec_string("thick:12")[0], CodeKind.LD, None)]
            return [(res.size, res.witness.mask, res.optimal, res.nodes_explored)
                    for res in (x_number(g, kind, budget) for g, kind, budget in cases)]

        first = outcomes()
        assert first == outcomes()
        assert [o[3] for o in first] == [2001, 0, 490]


class TestWeightedGreedy:
    """The root greedy takes the vertex of largest weight, the sum of
    2^-|e| over the uncovered edges e it hits, least id on ties.  Its lazy
    heap must pick exactly as the reference's full scan."""

    def test_lazy_picks_match_the_full_scan_on_ties(self):
        # few vertices and sizes 1-3, so the largest weight is often shared
        rng = random.Random(69)
        tied = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            edges = [sum(1 << v for v in rng.sample(range(n), min(n, rng.choice((1, 2, 2, 3)))))
                     for _ in range(rng.randint(1, 14))]
            masks = _minimal_masks(n, edges)
            counts = [m.bit_count() for m in masks]
            got = _greedy_mask(_incidence(n, masks, counts), counts)
            assert got == reference_greedy_mask(n, masks), (n, edges)
            weight = Counter()
            for m in masks:
                for v in ids(m, n):
                    weight[v] += 1 << (3 - m.bit_count())
            tied += list(weight.values()).count(max(weight.values())) > 1
        assert tied > 300

    def test_search_family_hypergraphs(self):
        for name, size, kinds in SEARCH_FAMILY_OPS:
            g = generate(FamilySpec(Family(name), size))
            for kind in kinds.split():
                h = solver_hypergraph(g, CodeKind[kind])
                masks = _minimal_masks(h.n, h.edges)
                counts = [m.bit_count() for m in masks]
                got = _greedy_mask(_incidence(h.n, masks, counts), counts)
                assert got == reference_greedy_mask(h.n, masks), (name, size, kind)


class TestLowerBoundStop:
    """With ``lower`` = tau the search visits the nodes it visits without
    it, up to the first incumbent of size tau, and stops there."""

    @staticmethod
    def check_stop(h: Hypergraph) -> bool:
        """Checks the stop at several budgets; returns whether it comes
        before the plain search ends."""
        tau = min_cover(h).size
        # the least budget at which the plain search holds a tau-cover
        first = next(b for b in itertools.count() if min_cover(h, b).size == tau)
        bounded = Hypergraph(h.n, h.edges, lower=tau)
        for budget in (0, 1, 2, 3, 10, 50, None):
            plain, stopped = min_cover(h, budget), min_cover(bounded, budget)
            cap = hypergraphs.DEFAULT_NODE_BUDGET if budget is None else budget
            assert (stopped.size, stopped.witness) == (plain.size, plain.witness)
            assert stopped.nodes_explored == min(first, cap + 1), (h.n, h.edges, budget)
            assert stopped.optimal == (first <= cap)
        return 0 < first < min_cover(h).nodes_explored

    def test_stops_at_the_first_optimal_incumbent(self):
        rng = random.Random(64)
        cases = [awkward_hypergraph(rng) for _ in range(1000)]
        for spec in ("path:18", "cycle:18", "thick:6"):
            cases.extend(family_build(spec, kind) for kind in CodeKind)
        stopped_early = 0
        for h in cases:
            if h.has_empty_edge() or not h.edges:  # no cover, or tau = 0: no bound to pass
                continue
            stopped_early += self.check_stop(h)
        assert stopped_early >= 10

    def test_stops_inside_a_later_sibling_on_wide_edges(self, monkeypatch):
        # A node has a banned vertex only past the first dive, inside a
        # later sibling of one of its ancestors, and so is every node after
        # it.  The packing bound sees the banned vertices of the nodes it
        # runs at; a stop after such a node is inside a later sibling.
        packing, banned_seen = hypergraphs._packing, []

        def recorded(masks, inc, conf, live, banned, limit):
            banned_seen.append(banned)
            return packing(masks, inc, conf, live, banned, limit)

        monkeypatch.setattr(hypergraphs, "_packing", recorded)
        inside = 0
        for h in wide_hypergraphs(count=30):  # on most, the root greedy is optimal: no stop
            tau = min_cover(h).size
            banned_seen.clear()
            min_cover(Hypergraph(h.n, h.edges, lower=tau))
            stopped_in_a_later_sibling = any(banned_seen)
            inside += self.check_stop(h) and stopped_in_a_later_sibling
        assert inside >= 3  # 4 of the 10 that stop early


class TestSearchMemory:
    """A branching node makes its next child only when the search reaches
    it, so the stack holds no pending siblings with their count planes."""

    def test_wide_edges_peak(self):
        # 1,000 edges of 150 members over 400 vertices, budget 100: the
        # bound lies between the 1.38 MB peak of pushing every sibling up
        # front and the 0.88 MB of one child generator per branching node
        rng = random.Random(5)
        h = Hypergraph(400, [sum(1 << v for v in rng.sample(range(400), 150)) for _ in range(1000)])
        tracemalloc.start()
        try:
            res = min_cover(h, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.size, res.optimal, res.nodes_explored) == (8, False, 101)
        assert peak < 1_100_000, peak


def is_dense(n: int, masks) -> bool:
    """The set-up kernels' density rule: a mean edge size above n / 10."""
    return 10 * sum(m.bit_count() for m in masks) > n * len(masks)


class TestSupersetFilter:
    """Dense input is filtered by ANDing the incidence rows of each kept
    mask's members; the output must stay the reference filter's, bit for
    bit, on both sides of the density rule."""

    @pytest.mark.parametrize("n", [40, 50, 64])
    def test_dense_gnp_solver_builds(self, n):
        kinds = (CodeKind.ID, CodeKind.FD, CodeKind.FTD)
        rng = random.Random(n)
        g = random_gnp(n, 0.3, rng)
        while not all(is_admissible(g, k) for k in kinds):
            g = random_gnp(n, 0.3, rng)
        for kind in kinds:
            masks = solver_hypergraph(g, kind).edges
            assert is_dense(n, masks), kind
            assert _minimal_masks(n, masks) == reference_minimal_masks(masks), kind

    def test_duplicates_the_top_vertex_and_a_chain(self):
        n = 10

        def edge(*vs):
            return sum(1 << v for v in vs)

        first, dup = edge(0, 1), edge(0, 1)
        e1, e2, e3 = edge(4, 5), edge(4, 5, 6), edge(4, 5, 6, 9)  # e1's AND removes e2 and e3
        top = edge(7, 9)  # kept, holds vertex n - 1
        masks = (e3, e2, first, edge(2, 3), dup, e1, top, edge(1, 2), edge(3, 8, 9),
                 edge(2, 3, 7, 9))  # the last contains edge(2, 3) and top
        assert is_dense(n, masks)
        # the duplicate ties with edge(2, 3) and comes after it, so keeping
        # it instead of the first would move it behind edge(2, 3)
        want = [first, edge(2, 3), e1, top, edge(1, 2), edge(3, 8, 9)]
        assert reference_minimal_masks(masks) == want
        assert _minimal_masks(n, masks) == want

    def test_differential_on_both_sides_of_the_density_rule(self):
        rng = random.Random(71)
        sides = Counter()
        for _ in range(600):
            n = rng.randint(1, 30)
            size = rng.choice((1, 2, n // 2 + 1))
            pool = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(size, n))))
                    for _ in range(rng.randint(1, 2 * n))]
            masks = tuple(rng.choice(pool) | (1 << rng.randrange(n) if rng.random() < 0.3 else 0)
                          for _ in range(rng.randint(1, 4 * n)))  # duplicates and supersets
            sides[is_dense(n, masks)] += 1
            assert _minimal_masks(n, masks) == reference_minimal_masks(masks), (n, masks)
        assert min(sides[True], sides[False]) >= 100, sides


class TestIncidence:
    def test_both_sides_of_the_density_rule(self):
        rng = random.Random(13)
        sides = Counter()
        for _ in range(300):
            n = rng.randint(1, 40)
            size = rng.choice((1, n // 10 + 1, n))  # mean size below n / 10, or not
            masks = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, size)))
                     for _ in range(rng.randint(1, 60))]
            counts = [m.bit_count() for m in masks]
            sides[10 * sum(counts) > n * len(masks)] += 1
            assert _incidence(n, masks, counts) == reference_incidence(n, masks), (n, masks)
        assert min(sides[True], sides[False]) > 50

    @pytest.mark.parametrize("n, masks", [
        (0, []),
        (0, [0]),
        (5, []),
        (5, [0b10000]),  # dense: one member in five
        (5, [0b11111, 0b10000, 0b10001]),
        (40, [1 << 39, 1]),  # sparse, vertex n - 1 included
        (3, [0b100] * 7),
    ])
    def test_edge_cases(self, n, masks):
        counts = [m.bit_count() for m in masks]
        assert _incidence(n, masks, counts) == reference_incidence(n, masks)


class TestBitSlices:
    def test_matches_the_per_bit_walk(self):
        rng = random.Random(37)
        for _ in range(500):
            h = awkward_hypergraph(rng)
            for masks in (h.edges, _minimal_masks(h.n, h.edges)):
                counts = [m.bit_count() for m in masks]
                assert _bit_slices(counts) == reference_bit_slices(counts), counts

    @pytest.mark.parametrize("counts", [[], [0, 0], [1], [2000, 1, 0, 1023], [7] * 70])
    def test_edge_cases(self, counts):
        assert _bit_slices(counts) == reference_bit_slices(counts)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestDeepSearch:
    def test_branch_depth_needs_no_recursion(self):
        # 40 disjoint 5-cycles: tau = 3 each, the packing bound only 2 each,
        # so the search runs about 80 branch levels deep
        edges = [1 << (5 * c + i) | 1 << (5 * c + (i + 1) % 5)
                 for c in range(40) for i in range(5)]
        h = Hypergraph(200, edges)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            res = min_cover(h, budget=2000)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.size, res.optimal, res.nodes_explored) == (120, True, 315)
        assert is_cover(h, res.witness)
