import math
import random

import pytest

from sepcodes import (
    Family,
    FamilySpec,
    Graph,
    GraphFormatError,
    UniverseMismatchError,
    VertexSet,
    disjoint_union,
    format_edge_list,
    generate,
    induced_subgraph,
    parse_edge_list,
    random_gnp,
)

from conftest import complete_graph, reference_closed_twins, reference_open_twins


def path(n):
    return generate(FamilySpec(Family.PATH, n))


def cycle(n):
    return generate(FamilySpec(Family.CYCLE, n))


class TestVertexSet:
    def test_of_and_iteration(self):
        s = VertexSet.of(6, [4, 1, 2])
        assert list(s) == [1, 2, 4]
        assert len(s) == 3
        assert 2 in s and 0 not in s
        assert frozenset(s) == frozenset({1, 2, 4})

    def test_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])

    def test_set_algebra(self):
        a = VertexSet.of(5, [0, 1])
        b = VertexSet.of(5, [1, 2])
        assert (a | b) == VertexSet.of(5, [0, 1, 2])
        assert (a & b) == VertexSet.of(5, [1])
        assert (a - b) == VertexSet.of(5, [0])
        assert a.issubset(a | b)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            VertexSet.of(3, [0]) ^ VertexSet.of(4, [0])


class TestSymDiff:
    def test_basic(self):
        a = VertexSet.of(4, [1, 2])
        b = VertexSet.of(4, [2, 3])
        assert a ^ b == VertexSet.of(4, [1, 3])

    def test_self_is_empty(self):
        a = VertexSet.of(4, [1, 2])
        assert not a ^ a

    def test_half_graph_consecutive_left_vertices(self):
        # consecutive left-side vertices differ in exactly one right vertex
        g = generate(FamilySpec(Family.HALF_GRAPH, 3))
        diff = g.open_neighborhood(1) ^ g.open_neighborhood(2)
        assert diff == VertexSet.of(6, [4])  # w_2


class TestNeighborhoods:
    def test_open_middle_and_endpoint(self):
        g = path(3)
        assert g.open_neighborhood(1) == VertexSet.of(3, [0, 2])
        assert g.open_neighborhood(0) == VertexSet.of(3, [1])

    def test_open_never_contains_self(self):
        g = cycle(5)
        for v in range(5):
            assert v not in g.open_neighborhood(v)

    def test_half_graph_left_bottom_sees_all_right(self):
        g = generate(FamilySpec(Family.HALF_GRAPH, 3))
        assert g.open_neighborhood(0) == VertexSet.of(6, [3, 4, 5])

    def test_closed(self):
        assert path(3).closed_neighborhood(1) == VertexSet.of(3, [0, 1, 2])
        single = Graph.from_edges(1, [])
        assert single.closed_neighborhood(0) == VertexSet.of(1, [0])

    def test_thin_spider_leg(self):
        g = generate(FamilySpec(Family.THIN_SPIDER, 4))
        # s_1 (id 4) is adjacent to q_1 (id 0) only
        assert g.closed_neighborhood(4) == VertexSet.of(8, [0, 4])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            path(3).open_neighborhood(3)


class TestTwins:
    def test_complete_graph_all_closed_twins(self):
        assert complete_graph(3).closed_twins() == [(0, 1), (0, 2), (1, 2)]

    def test_path4_has_none(self):
        assert path(4).closed_twins() == []
        assert path(4).open_twins() == []

    def test_path2_closed(self):
        assert path(2).closed_twins() == [(0, 1)]

    def test_path3_and_cycle4_open(self):
        assert path(3).open_twins() == [(0, 2)]
        assert cycle(4).open_twins() == [(0, 2), (1, 3)]

    def test_two_isolated_vertices_are_open_twins(self):
        g = Graph.from_edges(2, [])
        assert g.open_twins() == [(0, 1)]

    def test_twin_free(self):
        assert generate(FamilySpec(Family.HALF_GRAPH, 2)).is_twin_free()
        assert not cycle(3).is_twin_free()
        assert generate(FamilySpec(Family.THICK_SPIDER, 4)).is_twin_free()

    def test_twin_pairs_adjacency(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_gnp(rng.randint(2, 9), rng.random(), rng)
            for u, v in g.closed_twins():
                assert g.adjacent(u, v)
            for u, v in g.open_twins():
                assert not g.adjacent(u, v)

    def test_matches_pair_scan_reference(self):
        rng = random.Random(71)
        graphs = [complete_graph(k) for k in range(6)]
        graphs += [Graph.from_edges(k, []) for k in range(4)]  # isolated pairs
        graphs.append(disjoint_union(complete_graph(3), Graph.from_edges(2, [])))
        graphs.append(disjoint_union(path(3), path(3)))
        graphs.append(disjoint_union(cycle(4), complete_graph(2)))
        for _ in range(300):
            n = rng.randint(0, 12)
            g = random_gnp(n, rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
            if rng.random() < 0.3:  # disconnected, with twins across components
                g = disjoint_union(g, g)
            graphs.append(g)
        for g in graphs:
            assert g.closed_twins() == reference_closed_twins(g), format_edge_list(g)
            assert g.open_twins() == reference_open_twins(g), format_edge_list(g)
            assert g.is_twin_free() == (
                not reference_closed_twins(g) and not reference_open_twins(g)
            )
        assert sum(bool(g.closed_twins()) for g in graphs) > 50
        assert sum(bool(g.open_twins()) for g in graphs) > 50


class TestIsolatedAndDistance:
    def test_isolated(self):
        g = disjoint_union(path(4), Graph.from_edges(1, []))
        assert g.isolated_vertices() == VertexSet.of(5, [4])
        assert not cycle(5).isolated_vertices()
        assert Graph.from_edges(2, []).isolated_vertices() == VertexSet.of(2, [0, 1])

    def test_distance(self):
        g = path(4)
        assert g.distance(0, 3) == 3
        assert g.distance(2, 2) == 0
        two = Graph.from_edges(2, [])
        assert two.distance(0, 1) == math.inf

    def test_distance_cycle(self):
        g = cycle(6)
        assert g.distance(0, 3) == 3
        assert g.distance(0, 5) == 1


class TestGraphConstruction:
    def test_duplicate_edges_deduplicated(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 3)])

    def test_edge_order_independent(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        rng = random.Random(3)
        for _ in range(5):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            assert Graph.from_edges(4, shuffled) == Graph.from_edges(4, edges)

    def test_punctured_sym_diff_identity(self):
        # (N(u) sym N(v)) - {u,v} equals the closed diff on adjacent pairs
        # and the open diff on non-adjacent pairs
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 12)
            g = random_gnp(n, rng.random(), rng)
            for u in range(n):
                for v in range(u + 1, n):
                    punct = (g.open_neighborhood(u) ^ g.open_neighborhood(v)) - VertexSet.of(n, [u, v])
                    if g.adjacent(u, v):
                        assert punct == g.closed_neighborhood(u) ^ g.closed_neighborhood(v)
                    else:
                        assert punct == g.open_neighborhood(u) ^ g.open_neighborhood(v)


class TestInducedSubgraph:
    def test_relabels_ascending(self):
        g = path(5)
        sub = induced_subgraph(g, [0, 1, 2, 4])
        assert sub.n == 4
        assert set(sub.edges()) == {(0, 1), (1, 2)}

    def test_remove_isolated(self):
        g = disjoint_union(path(3), Graph.from_edges(1, []))
        sub = induced_subgraph(g, range(3))
        assert sub == path(3)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = generate(FamilySpec(Family.HALF_GRAPH, 4))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_blank_lines_crlf(self):
        text = "# header comment\r\n3 2\r\n\r\n0 1\r\n# mid\r\n1 2\r\n"
        assert parse_edge_list(text) == path(3)

    def test_header_missing(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("# nothing\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announced"):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_token_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 1\n1 1\n")
