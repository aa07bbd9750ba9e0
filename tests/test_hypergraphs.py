import random
import sys

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
    is_cover,
    min_cover,
    precedes,
    remove_redundant,
    x_number,
)

from sepcodes.families import graph_from_spec_string
from sepcodes.hypergraphs import _greedy_mask, _incidence, _minimal_masks

from conftest import (
    brute_force_tau,
    ids,
    naive_minimal_edges,
    random_hypergraph,
    random_subset,
    random_twin_free_graph,
    reference_greedy_mask,
    reference_min_cover,
    reference_minimal_masks,
    reference_packing_lower_bound,
)


def hg(n, *sets):
    return Hypergraph.from_sets(n, sets)


class TestConstruction:
    def test_bits_outside_universe_rejected(self):
        for bad in (0b100, -1):
            with pytest.raises(ValueError):
                Hypergraph(2, [bad])
        with pytest.raises(ValueError):
            hg(2, [2])

    def test_value_semantics(self):
        h = hg(3, [0, 1], [2])
        assert h == Hypergraph(3, [0b011, 0b100])
        assert hash(h) == hash(Hypergraph(3, (0b011, 0b100)))
        assert h != Hypergraph(4, [0b011, 0b100])
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

    def test_preserves_min_cover_size(self):
        rng = random.Random(13)
        for _ in range(15):
            h = random_hypergraph(rng, rng.randint(1, 9), rng.randint(1, 10))
            assert min_cover(h).size == min_cover(remove_redundant(h)).size


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


def cover_outcome(solve, h, budget):
    try:
        res = solve(h, budget)
    except EmptyHyperedgeError:
        return "empty"
    return res.size, res.witness.mask, res.optimal, res.nodes_explored


class TestKernelMatchesReference:
    """The incidence-bitset kernel against the list-based reference engine."""

    def test_min_cover_node_for_node(self):
        rng = random.Random(61)
        for _ in range(1000):
            h = awkward_hypergraph(rng)
            for budget in (1, 2, 3, 10, 50, None):
                assert cover_outcome(min_cover, h, budget) == \
                    cover_outcome(reference_min_cover, h, budget), (h.n, h.edges, budget)

    def test_greedy_filter_and_packing(self):
        rng = random.Random(62)
        for _ in range(400):
            h = awkward_hypergraph(rng)
            assert _minimal_masks(h.edges) == reference_minimal_masks(h.edges), h.edges
            if h.has_empty_edge():
                continue
            full = (1 << len(h.edges)) - 1
            want = reference_greedy_mask(h.n, h.edges)
            assert _greedy_mask(_incidence(h.n, h.edges), full) == want, h.edges
            # greedy_cover runs greedy and packing on the reduced edges
            reduced = reference_minimal_masks(h.edges)
            want = reference_greedy_mask(h.n, reduced)
            res = greedy_cover(h)
            bound = reference_packing_lower_bound(reduced)
            assert (res.witness.mask, res.optimal) == (want, want.bit_count() == bound)

    def test_empty_masks_leave_one(self):
        assert _minimal_masks((0b11, 0, 0b1, 0)) == [0]
        assert _minimal_masks(()) == []

    @pytest.mark.parametrize("spec, kind, nodes", [
        ("cycle:24", CodeKind.FD, 1093),
        ("cycle:24", CodeKind.OD, 4027),
        ("thick:12", CodeKind.LD, 6766),
        ("path:36", CodeKind.ID, 1415),
    ])
    def test_x_number_node_counts_pinned(self, spec, kind, nodes):
        # node counts of the list-based engine; the branching order is fixed
        g, _ = graph_from_spec_string(spec)
        res = x_number(g, kind)
        assert res.optimal and res.nodes_explored == nodes


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
        assert (res.size, res.optimal, res.nodes_explored) == (120, False, 2001)
        assert is_cover(h, res.witness)
