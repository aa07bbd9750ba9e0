import dataclasses
import random
import re

import pytest

from sepcodes import (
    CodeKind,
    Family,
    FamilySpec,
    Graph,
    GraphFormatError,
    UniverseMismatchError,
    VertexSet,
    format_edge_list,
    generate,
    is_admissible,
    parse_edge_list,
    random_gnp,
)
from sepcodes.codes import admissibility_failure
from sepcodes.graphs import MAX_EDGES, MAX_VERTICES, bit_ids

from conftest import (
    MALFORMED_EDGE_LISTS,
    RECIPES,
    complete_graph,
    induced_subgraph,
    isolated_vertices,
    random_twin_free_graph,
    reference_closed_twins,
    reference_disjoint_union,
    reference_edges,
    reference_open_twins,
)


def path(n):
    return generate(FamilySpec(Family.PATH, n))


def cycle(n):
    return generate(FamilySpec(Family.CYCLE, n))


class TestBitIds:
    def test_returns_an_ascending_list(self):
        ids = bit_ids(0b101101)
        assert type(ids) is list and ids == [0, 2, 3, 5]

    def test_zero_has_no_ids(self):
        assert bit_ids(0) == []

    @pytest.mark.parametrize("v", [0, 1999])
    def test_single_bit(self, v):
        assert bit_ids(1 << v) == [v]

    def test_matches_a_naive_scan(self):
        rng = random.Random(43)
        for _ in range(400):
            width = rng.choice((1, 2, 63, 64, 65, 300, 2000))
            mask = rng.getrandbits(width)
            if rng.random() < 0.5:  # sparse
                mask &= rng.getrandbits(width) & rng.getrandbits(width)
            assert bit_ids(mask) == [v for v in range(width) if mask >> v & 1], mask


class TestVertexSet:
    def test_of_and_iteration(self):
        s = VertexSet.of(6, [4, 1, 2])
        assert list(s) == [1, 2, 4]
        assert len(s) == 3
        assert 2 in s and 0 not in s
        assert frozenset(s) == frozenset({1, 2, 4})

    def test_iterator_starts_at_the_least_id(self):
        assert next(iter(VertexSet.of(5, [3, 1]))) == 1

    def test_sorted_ids_ascending(self):
        ids = VertexSet.of(2000, [1999, 7, 0, 64, 63]).sorted_ids()
        assert ids == [0, 7, 63, 64, 1999] and VertexSet(4).sorted_ids() == []

    def test_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])

    def test_set_algebra(self):
        a = VertexSet.of(5, [0, 1])
        assert a.issubset(VertexSet.of(5, [0, 1, 2])) and a.issubset(a)
        assert not a.issubset(VertexSet.of(5, [1, 2]))
        assert VertexSet(5).issubset(a)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            VertexSet.of(3, [0]).issubset(VertexSet.of(4, [0]))

    def test_operand_must_be_a_vertex_set(self):
        with pytest.raises(TypeError):
            VertexSet.of(3, [0]).issubset(0b1)

    def test_constructor_validates(self):
        for n, mask in ((-1, 0), (3, 8), (3, -1)):
            with pytest.raises(ValueError):
                VertexSet(n, mask)
        assert VertexSet(3) == VertexSet(3, 0)

    def test_value_semantics_and_immutability(self):
        a, b = VertexSet.of(5, [0, 3]), VertexSet(5, 0b1001)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != VertexSet(6, 0b1001) and a != VertexSet(5, 0b1000)
        assert a != 0b1001
        for name, value in (("mask", 0), ("n", 9)):
            with pytest.raises(AttributeError):
                setattr(a, name, value)
        # slotted: no other attribute exists (CPython 3.11 raises TypeError)
        with pytest.raises((AttributeError, TypeError)):
            a.extra = 1
        assert a == b

    def test_repr_and_truthiness(self):
        # ids ascending whatever the input order; truthiness comes from len
        assert repr(VertexSet.of(5, [3, 0])) == "VertexSet(5, {0, 3})"
        assert repr(VertexSet(2)) == "VertexSet(2, {})"
        assert not VertexSet(3)
        assert bool(VertexSet.of(3, [2]))


class TestSymDiff:
    def test_half_graph_consecutive_left_vertices(self):
        # consecutive left-side vertices differ in exactly one right vertex
        g = generate(FamilySpec(Family.HALF_GRAPH, 3))
        assert g.rows[1] ^ g.rows[2] == VertexSet.of(6, [4]).mask  # w_2


class TestNeighborhoods:
    def test_open_middle_and_endpoint(self):
        g = path(3)
        assert g.rows[1] == VertexSet.of(3, [0, 2]).mask
        assert g.rows[0] == VertexSet.of(3, [1]).mask

    def test_open_never_contains_self(self):
        g = cycle(5)
        for v in range(5):
            assert not g.rows[v] >> v & 1

    def test_half_graph_left_bottom_sees_all_right(self):
        g = generate(FamilySpec(Family.HALF_GRAPH, 3))
        assert g.rows[0] == VertexSet.of(6, [3, 4, 5]).mask

    def test_closed(self):
        assert path(3).closed_rows[1] == VertexSet.of(3, [0, 1, 2]).mask
        single = Graph.from_edges(1, [])
        assert single.closed_rows[0] == VertexSet.of(1, [0]).mask

    def test_thin_spider_leg(self):
        g = generate(FamilySpec(Family.THIN_SPIDER, 4))
        # s_1 (id 4) is adjacent to q_1 (id 0) only
        assert g.closed_rows[4] == VertexSet.of(8, [0, 4]).mask


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
        # a graph has an FD-code exactly when it is twin-free
        assert is_admissible(generate(FamilySpec(Family.HALF_GRAPH, 2)), CodeKind.FD)
        assert not is_admissible(cycle(3), CodeKind.FD)
        assert is_admissible(generate(FamilySpec(Family.THICK_SPIDER, 4)), CodeKind.FD)

    def test_twin_pairs_adjacency(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_gnp(rng.randint(2, 9), rng.random(), rng)
            for u, v in g.closed_twins():
                assert g.rows[u] >> v & 1
            for u, v in g.open_twins():
                assert not g.rows[u] >> v & 1

    def test_matches_pair_scan_reference(self):
        rng = random.Random(71)
        graphs = [complete_graph(k) for k in range(6)]
        graphs += [Graph.from_edges(k, []) for k in range(4)]  # isolated pairs
        graphs.append(reference_disjoint_union(complete_graph(3), Graph.from_edges(2, [])))
        graphs.append(reference_disjoint_union(path(3), path(3)))
        graphs.append(reference_disjoint_union(cycle(4), complete_graph(2)))
        for _ in range(300):
            n = rng.randint(0, 12)
            g = random_gnp(n, rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
            if rng.random() < 0.3:  # disconnected, with twins across components
                g = reference_disjoint_union(g, g)
            graphs.append(g)
        for g in graphs:
            closed, open_ = reference_closed_twins(g), reference_open_twins(g)
            assert g.closed_twins() == closed, format_edge_list(g)
            assert g.open_twins() == open_, format_edge_list(g)
            assert is_admissible(g, CodeKind.FD) == (not closed and not open_)
            # each kind's refusal names the least isolated vertex or the
            # first reference twin pair of the flavor it checks
            isolated = [v for v in range(g.n) if not g.rows[v]]
            for kind, (dom_closed, adj_closed, non_closed) in RECIPES.items():
                if not dom_closed and isolated:
                    want = f"isolated vertex {isolated[0]}"
                elif adj_closed and closed:
                    want = f"closed twins {closed[0]}"
                elif not non_closed and open_:
                    want = f"open twins {open_[0]}"
                else:
                    want = None
                assert admissibility_failure(g, kind) == want, (format_edge_list(g), kind)
        assert sum(bool(g.closed_twins()) for g in graphs) > 50
        assert sum(bool(g.open_twins()) for g in graphs) > 50


class TestRandomTwinFreeGraph:
    @pytest.mark.parametrize("isolate_free", [True, False])
    def test_refuses_exactly_the_orders_without_such_graph(self, isolate_free):
        # every graph on n <= 5 vertices decides whether the sampler can end
        rng = random.Random(7)
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            exists = any(
                is_admissible(g, CodeKind.FD) and not (isolate_free and isolated_vertices(g))
                for bits in range(1 << len(pairs))
                for g in [Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])]
            )
            if exists:
                g = random_twin_free_graph(rng, n, isolate_free)
                assert g.n == n and is_admissible(g, CodeKind.FD)
                assert not (isolate_free and isolated_vertices(g))
            else:
                with pytest.raises(ValueError, match=f"has {n} vertices"):
                    random_twin_free_graph(rng, n, isolate_free)


class TestIsolated:
    def test_isolated(self):
        # an isolated vertex is a zero row: the rows and the edge list agree
        g = reference_disjoint_union(path(4), Graph.from_edges(1, []))
        assert isolated_vertices(g) == VertexSet.of(5, [4]) and g.rows[4] == 0
        assert not isolated_vertices(cycle(5)) and 0 not in cycle(5).rows
        assert isolated_vertices(Graph.from_edges(2, [])) == VertexSet.of(2, [0, 1])
        rng = random.Random(72)
        for _ in range(100):
            g = random_gnp(rng.randint(0, 12), rng.choice([0.05, 0.2, 0.5]), rng)
            zero_rows = [v for v, row in enumerate(g.rows) if row == 0]
            assert isolated_vertices(g).sorted_ids() == zero_rows, format_edge_list(g)


class TestGraphConstruction:
    def test_duplicate_edges_deduplicated(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(1, 1)])

    def test_negative_vertex_count(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            Graph.from_edges(-1, [])

    def test_out_of_range_edge(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 3)])

    def test_rows(self):
        g = path(4)
        assert g.rows == (0b0010, 0b0101, 0b1010, 0b0100)
        assert g.closed_rows == (0b0011, 0b0111, 0b1110, 0b1100)
        assert Graph(4, g.rows) == g and Graph(4, g.rows).closed_rows == g.closed_rows
        # rows given as a list are stored as a tuple: equal and hashable
        listed = Graph(4, list(g.rows))
        assert listed == g and hash(listed) == hash(g)

    @pytest.mark.parametrize("n, rows, message", [
        (3, (0b010, 0b001), "2 rows for 3 vertices"),
        (2, (0b10, 0b01, 0b0), "3 rows for 2 vertices"),
        (3, (0b110, 0b000, 0b1000), "row 2 has bits outside 0..2"),
        (2, (-1, 0b01), "row 0 has bits outside 0..1"),
        (3, (0b010, 0b011, 0b000), "self-loop at vertex 1"),
    ], ids=["too-few-rows", "too-many-rows", "bit-at-n", "negative-row", "own-bit"])
    def test_rows_that_are_not_a_graph_refused(self, n, rows, message):
        # before the check, Graph(3, (0b110, 0, 0b1000)) listed the edge
        # (2, 3) and failed only later, inside Hypergraph
        with pytest.raises(GraphFormatError, match=message):
            Graph(n, rows)

    def test_value_semantics_and_immutability(self):
        a = Graph.from_edges(4, [(0, 1), (2, 3)])
        b = Graph.from_edges(4, [(3, 2), (1, 0)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Graph.from_edges(5, [(0, 1), (2, 3)])
        assert a != Graph.from_edges(4, [(0, 1)])
        assert repr(a) == "Graph(n=4, m=2)"
        for name, value in (("n", 3), ("rows", ()), ("closed_rows", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, value)
        with pytest.raises((AttributeError, TypeError)):
            a.extra = 1
        assert a == b

    def test_edges_match_bitwise_reference(self):
        rng = random.Random(12)
        for _ in range(200):
            g = random_gnp(rng.randint(0, 40), rng.choice((0.05, 0.2, 0.5, 0.9)), rng)
            assert list(g.edges()) == reference_edges(g)
            assert len(list(g.edges())) == g.num_edges

    def test_edges_long_range_matching(self):
        # each row's one neighbor is 10,000 bits above it
        n = 20_000
        matching = [(u, u + n // 2) for u in range(n // 2)]
        g = Graph.from_edges(n, reversed(matching))
        assert list(g.edges()) == matching
        assert format_edge_list(g).splitlines()[1:3] == ["0 10000", "1 10001"]

    def test_vertex_count_limit(self):
        assert Graph.from_edges(MAX_VERTICES, []).n == MAX_VERTICES
        with pytest.raises(GraphFormatError, match="exceeds the limit"):
            Graph.from_edges(MAX_VERTICES + 1, [])
        with pytest.raises(GraphFormatError, match="exceeds the limit"):
            parse_edge_list("1000000000 0\n")

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
                    punct = (g.rows[u] ^ g.rows[v]) & ~(1 << u | 1 << v)
                    if g.rows[u] >> v & 1:
                        assert punct == g.closed_rows[u] ^ g.closed_rows[v]
                    else:
                        assert punct == g.rows[u] ^ g.rows[v]


class TestInducedSubgraph:
    def test_relabels_ascending(self):
        g = path(5)
        sub = induced_subgraph(g, [0, 1, 2, 4])
        assert sub.n == 4
        assert set(sub.edges()) == {(0, 1), (1, 2)}

    def test_out_of_range_vertex(self):
        g = path(3)
        with pytest.raises(IndexError):
            induced_subgraph(g, [g.n])

    def test_remove_isolated(self):
        g = reference_disjoint_union(path(3), Graph.from_edges(1, []))
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

    def test_edge_lines_past_the_header_count_refused(self):
        # refused at the first edge line past m: the extra edges are never
        # held, and the malformed last line is never read
        text = "3 1\n" + "0 1\n" * 100_000 + "x\n"
        with pytest.raises(GraphFormatError,
                           match=r"^line 3: more edges than the header announced \(1\)$"):
            parse_edge_list(text)

    def test_bad_token_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 1\n1 1\n")

    def test_edge_count_limit(self, monkeypatch):
        # refused from the header, before any edge line is read
        with pytest.raises(GraphFormatError,
                           match=f"edge count {MAX_EDGES + 1} exceeds the limit of {MAX_EDGES}"):
            parse_edge_list(f"5 {MAX_EDGES + 1}\n0 1\n")
        monkeypatch.setattr("sepcodes.graphs.MAX_EDGES", 2)
        assert parse_edge_list("3 2\n0 1\n1 2\n") == path(3)
        with pytest.raises(GraphFormatError, match="edge count 3 exceeds the limit of 2"):
            parse_edge_list("3 3\n0 1\n1 2\n0 2\n")

    @pytest.mark.parametrize("text, message", MALFORMED_EDGE_LISTS)
    def test_malformed_lines_refused(self, text, message):
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            parse_edge_list(text)
