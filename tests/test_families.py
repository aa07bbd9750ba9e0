import itertools
import random

import pytest

from sepcodes import (
    CodeKind,
    Family,
    FamilySpec,
    Graph,
    VertexSet,
    formula_x_number,
    ftd_code_path_cycle,
    generate,
    random_gnp,
    verify_code,
    x_number,
)
from sepcodes.families import graph_from_spec_string, parse_family_spec
from sepcodes.graphs import MAX_EDGES, MAX_VERTICES, GraphFormatError

from conftest import (
    REFERENCE_MIN_SIZE,
    graphs_isomorphic,
    isolated_vertices,
    reference_disjoint_union,
    reference_family_check,
    reference_formula_x_number,
    reference_generate,
    reference_random_gnp,
)


def spec(family, size):
    return FamilySpec(family, size)


class TestGenerate:
    def test_half_graph_1_is_single_edge(self):
        g = generate(spec(Family.HALF_GRAPH, 1))
        assert g.n == 2 and set(g.edges()) == {(0, 1)}

    def test_half_graph_2_is_path4(self):
        g = generate(spec(Family.HALF_GRAPH, 2))
        assert graphs_isomorphic(g, generate(spec(Family.PATH, 4)))

    def test_thin_spider_2_is_path4(self):
        g = generate(spec(Family.THIN_SPIDER, 2))
        assert graphs_isomorphic(g, generate(spec(Family.PATH, 4)))

    def test_half_graph_canonical_labels(self):
        g = generate(spec(Family.HALF_GRAPH, 3))
        # u_i -> i-1, w_j -> k+j-1; u_i ~ w_j iff i <= j
        assert g.rows[0] == VertexSet.of(6, [3, 4, 5]).mask
        assert g.rows[2] == VertexSet.of(6, [5]).mask
        assert g.rows[5] == VertexSet.of(6, [0, 1, 2]).mask

    def test_thick_spider_labels(self):
        k = 4
        g = generate(spec(Family.THICK_SPIDER, k))
        # s_1 (id k) sees every clique vertex except q_1
        assert g.rows[k] == VertexSet.of(2 * k, [1, 2, 3]).mask

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            spec(Family.CYCLE, 2)
        with pytest.raises(ValueError):
            spec(Family.THIN_SPIDER, 1)
        with pytest.raises(ValueError):
            spec(Family.PATH, 0)

    def test_vertex_count_limit(self):
        # path/cycle parameters count vertices; the others count k of 2k.
        spec(Family.CYCLE, MAX_VERTICES)
        spec(Family.THICK_SPIDER, MAX_VERTICES // 2)
        for family, size in ((Family.PATH, MAX_VERTICES + 1),
                             (Family.HALF_GRAPH, MAX_VERTICES // 2 + 1)):
            with pytest.raises(GraphFormatError, match="exceeds the limit"):
                spec(family, size)

    @pytest.mark.parametrize("family", list(Family))
    def test_edge_count_limit_is_exact(self, family, monkeypatch):
        # generate() refuses from its closed-form edge count, before listing edges.
        m = generate(spec(family, 7)).num_edges
        monkeypatch.setattr("sepcodes.graphs.MAX_EDGES", m)
        assert generate(spec(family, 7)).num_edges == m
        monkeypatch.setattr("sepcodes.graphs.MAX_EDGES", m - 1)
        with pytest.raises(GraphFormatError, match=f"edge count {m} exceeds the limit of {m - 1}"):
            generate(spec(family, 7))

    def test_dense_specs_refused(self):
        # Just past MAX_EDGES, so a missing check allocates ~1e6 edges, not 1.5e8.
        for text, m in (("half:1414", 1_000_405), ("thin:1414+k1", 1_000_405),
                        ("thick:818", 1_002_459)):
            with pytest.raises(GraphFormatError,
                               match=f"edge count {m} exceeds the limit of {MAX_EDGES}"):
                graph_from_spec_string(text)


class TestFormulas:
    def test_pinned_values(self):
        assert formula_x_number(spec(Family.PATH, 17), CodeKind.FTD) == 12
        assert formula_x_number(spec(Family.PATH, 12), CodeKind.FTD) == 8
        assert formula_x_number(spec(Family.PATH, 13), CodeKind.FD) == 9
        assert formula_x_number(spec(Family.THIN_SPIDER, 5), CodeKind.FD) == 8
        assert formula_x_number(spec(Family.CYCLE, 9), CodeKind.OTD) == 6
        assert formula_x_number(spec(Family.PATH, 4), CodeKind.FD) == 4
        assert formula_x_number(spec(Family.HALF_GRAPH, 3), CodeKind.FD) == 5
        assert formula_x_number(spec(Family.HALF_GRAPH, 2), CodeKind.FTD) == 4
        assert formula_x_number(spec(Family.HALF_GRAPH, 1), CodeKind.OTD) == 2
        assert formula_x_number(spec(Family.THICK_SPIDER, 5), CodeKind.ITD) == 6
        assert formula_x_number(spec(Family.THICK_SPIDER, 5), CodeKind.LD) == 4

    def test_absent_outside_proven_ranges(self):
        assert formula_x_number(spec(Family.HALF_GRAPH, 2), CodeKind.FD) is None
        assert formula_x_number(spec(Family.PATH, 3), CodeKind.FTD) is None
        assert formula_x_number(spec(Family.CYCLE, 4), CodeKind.FD) is None
        assert formula_x_number(spec(Family.THIN_SPIDER, 3), CodeKind.FD) is None
        assert formula_x_number(spec(Family.THICK_SPIDER, 3), CodeKind.ITD) is None
        assert formula_x_number(spec(Family.THIN_SPIDER, 2), CodeKind.LD) is None
        assert formula_x_number(spec(Family.PATH, 10), CodeKind.ID) is None
        # enumeration shows the locating numbers of small thick spiders are
        # k, not k-1, so the closed form only starts at k=5
        assert formula_x_number(spec(Family.THICK_SPIDER, 4), CodeKind.LD) is None
        assert formula_x_number(spec(Family.THICK_SPIDER, 4), CodeKind.LTD) is None

    def test_thick_spider_locating_numbers_small_cases(self):
        # pinned from exhaustive enumeration: the locating numbers equal k
        # at k=3,4 and settle at k-1 from k=5 on
        for k, expect in ((3, 3), (4, 4), (5, 4), (6, 5)):
            g = generate(spec(Family.THICK_SPIDER, k))
            assert x_number(g, CodeKind.LD).size == expect
            assert x_number(g, CodeKind.LTD).size == expect

    def test_solver_agreement_paths_cycles_otd(self):
        for n in range(4, 25):
            for family in (Family.PATH, Family.CYCLE):
                if family is Family.CYCLE and n < 5:
                    continue
                s = spec(family, n)
                expect = formula_x_number(s, CodeKind.OTD)
                assert x_number(generate(s), CodeKind.OTD).size == expect

    def test_solver_agreement_half_graphs(self):
        for k in range(1, 6):
            s = spec(Family.HALF_GRAPH, k)
            g = generate(s)
            for kind in CodeKind:
                expect = formula_x_number(s, kind)
                if expect is not None:
                    assert x_number(g, kind).size == expect, (k, kind)

    def test_solver_agreement_spiders(self):
        for family in (Family.THIN_SPIDER, Family.THICK_SPIDER):
            for k in range(2, 7):
                s = spec(family, k)
                g = generate(s)
                for kind in CodeKind:
                    expect = formula_x_number(s, kind)
                    if expect is not None:
                        assert x_number(g, kind).size == expect, (family, k, kind)


class TestTablesMatchBranchingReference:
    @pytest.mark.parametrize("family", list(Family))
    def test_checks_rows_and_closed_forms(self, family):
        # Every parameter from 0 (below each family's least) to 80, plus
        # the first sizes past the vertex limit: the same refusal, the same
        # rows up to 40 and the same closed form (None included) per kind.
        for p in [*range(81), MAX_VERTICES // 2 + 1, MAX_VERTICES + 1]:
            try:
                reference_family_check(family, p)
            except ValueError as expected:
                with pytest.raises(type(expected)) as got:
                    FamilySpec(family, p)
                assert str(got.value) == str(expected)
                continue
            s = FamilySpec(family, p)
            if p <= 40:
                assert generate(s).rows == reference_generate(s).rows, p
            for kind in CodeKind:
                assert formula_x_number(s, kind) == reference_formula_x_number(s, kind), (p, kind)


class TestConstructiveCode:
    def test_pattern_n12(self):
        assert ftd_code_path_cycle(12, cyclic=False) == VertexSet.of(
            12, [1, 2, 3, 4, 7, 8, 9, 10]
        )

    def test_pattern_small(self):
        assert ftd_code_path_cycle(5, cyclic=False) == VertexSet.of(5, [0, 1, 2, 3])

    def test_pattern_n13_size(self):
        assert len(ftd_code_path_cycle(13, cyclic=False)) == 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ftd_code_path_cycle(3, cyclic=False)
        with pytest.raises(ValueError):
            ftd_code_path_cycle(4, cyclic=True)

    def test_verifies_and_matches_formula_spot(self):
        for n in range(4, 31):
            for cyclic, family in ((False, Family.PATH), (True, Family.CYCLE)):
                if cyclic and n < 5:
                    continue
                code = ftd_code_path_cycle(n, cyclic)
                g = generate(spec(family, n))
                assert verify_code(g, CodeKind.FTD, code), (n, cyclic)
                assert verify_code(g, CodeKind.FD, code), (n, cyclic)
                assert len(code) == formula_x_number(spec(family, n), CodeKind.FTD)


class TestDisjointUnion:
    """G + K1 through the '+k1' suffix, which appends a zero row."""

    def test_sizes_add(self):
        g, _ = graph_from_spec_string("path:4+k1")
        assert g.n == 5 and g.num_edges == 3

    def test_matches_edge_built_union(self):
        k1 = Graph.from_edges(1, [])
        for family in Family:
            least = REFERENCE_MIN_SIZE[family]
            for size in (least, least + 1, least + 2, least + 5, least + 11):
                s = spec(family, size)
                g, parsed = graph_from_spec_string(f"{s}+k1")
                assert parsed is None
                assert g == reference_disjoint_union(generate(s), k1), s

    def test_half3_plus_isolated_fd_number(self):
        g, _ = graph_from_spec_string("half:3+k1")
        assert x_number(g, CodeKind.FD).size == 7


class TestUniqueMinimumCodesOfHalfGraphs:
    @pytest.mark.parametrize("k", [3, 4])
    def test_exactly_two_minimum_fd_codes(self, k):
        g = generate(spec(Family.HALF_GRAPH, k))
        size = 2 * k - 1
        found = {
            frozenset(combo)
            for combo in itertools.combinations(range(2 * k), size)
            if verify_code(g, CodeKind.FD, VertexSet.of(2 * k, combo))
        }
        everything = frozenset(range(2 * k))
        assert found == {everything - {2 * k - 1}, everything - {0}}


class TestSpecParsing:
    def test_parse(self):
        assert parse_family_spec("path:12") == FamilySpec(Family.PATH, 12)
        assert parse_family_spec("Half:4") == FamilySpec(Family.HALF_GRAPH, 4)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_family_spec("path")
        with pytest.raises(ValueError):
            parse_family_spec("blob:4")
        with pytest.raises(ValueError):
            parse_family_spec("path:x")

    def test_plus_k1_suffix(self):
        g, s = graph_from_spec_string("half:3+k1")
        assert s is None
        assert g.n == 7 and isolated_vertices(g) == VertexSet.of(7, [6])
        with pytest.raises(ValueError):
            graph_from_spec_string("half:3+k2")


class TestRandomGnp:
    def test_seeded_reproducibility(self):
        a = random_gnp(10, 0.4, random.Random(5))
        b = random_gnp(10, 0.4, random.Random(5))
        assert a == b

    def test_extremes(self):
        assert random_gnp(6, 0.0, random.Random(1)).num_edges == 0
        assert random_gnp(6, 1.0, random.Random(1)).num_edges == 15

    def test_rows_match_reference_draws(self):
        for seed in range(20):
            got = random_gnp(40, 0.3, random.Random(seed))
            assert got.rows == reference_random_gnp(40, 0.3, random.Random(seed)).rows

    def test_too_many_vertices_refused_before_any_draw(self):
        rng = random.Random(1)
        with pytest.raises(GraphFormatError, match=f"vertex count {MAX_VERTICES + 1} exceeds"):
            random_gnp(MAX_VERTICES + 1, 0.0, rng)
        assert rng.getstate() == random.Random(1).getstate()

    def test_too_many_edges_refused_after_the_first_row(self, monkeypatch):
        monkeypatch.setattr("sepcodes.graphs.MAX_EDGES", 10)
        # Row 0 of G(30, 1.0) already holds 29 edges; the graph would hold 435.
        with pytest.raises(GraphFormatError, match="edge count 29 exceeds the limit of 10"):
            random_gnp(30, 1.0, random.Random(1))
