import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sepcodes import (
    CodeKind,
    CoverCodeMismatchError,
    CoverResult,
    Family,
    FamilySpec,
    Graph,
    KIND_INEQUALITIES,
    NotAdmissibleError,
    VertexSet,
    build_hypergraph,
    disjoint_union,
    format_edge_list,
    forced_vertices,
    ftd_code_path_cycle,
    generate,
    induced_subgraph,
    is_admissible,
    is_cover,
    is_full_separating,
    precedes,
    random_gnp,
    verify_code,
    verify_code_fast,
    x_number,
)
from sepcodes import codes
from sepcodes.codes import admissibility_failure, is_closed_separating, is_open_separating
from sepcodes.sat_reduction import CnfFormula, build_gadget

from conftest import (
    FULL_SEPARATION_ORACLES,
    complete_graph,
    distance2_full_code,
    ids,
    random_subset,
    random_twin_free_graph,
)

ALL_KINDS = list(CodeKind)


def path(n):
    return generate(FamilySpec(Family.PATH, n))


def cycle(n):
    return generate(FamilySpec(Family.CYCLE, n))


def half(k):
    return generate(FamilySpec(Family.HALF_GRAPH, k))


class TestCodeKind:
    def test_parse_case_insensitive(self):
        assert CodeKind.parse("ftd") is CodeKind.FTD
        assert CodeKind.parse(" Id ") is CodeKind.ID

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown code kind"):
            CodeKind.parse("xyz")


class TestBuildHypergraph:
    def test_path3_fd_exact_edges_and_order(self):
        # closed neighborhoods by id, then adjacent closed diffs lex, then
        # the single non-adjacent open diff (empty: 0 and 2 are open twins)
        h = build_hypergraph(path(3), CodeKind.FD)
        assert [sorted(ids(e, h.n)) for e in h.edges] == [
            [0, 1], [0, 1, 2], [1, 2],  # N[0], N[1], N[2]
            [2], [0],                   # N[0]^N[1], N[1]^N[2]
            [],                         # N(0)^N(2)
        ]

    def test_thin_spider_fd_contains_expected_families(self):
        k = 4
        g = generate(FamilySpec(Family.THIN_SPIDER, k))
        edges = {frozenset(ids(e, g.n)) for e in build_hypergraph(g, CodeKind.FD).edges}
        for i in range(k):
            assert frozenset({i, k + i}) in edges            # N[s_i]
        for i in range(k):
            for j in range(i + 1, k):
                assert frozenset({k + i, k + j}) in edges    # N[q_i]^N[q_j]
                assert frozenset({i, j}) in edges            # N(s_i)^N(s_j)

    def test_isolated_vertex_gives_empty_edge_for_total_domination(self):
        g = disjoint_union(path(4), Graph.from_edges(1, []))
        assert build_hypergraph(g, CodeKind.FTD).has_empty_edge()
        assert not build_hypergraph(g, CodeKind.FD).has_empty_edge()

    def test_closed_twins_give_empty_edge_for_id(self):
        assert build_hypergraph(path(2), CodeKind.ID).has_empty_edge()


class TestAdmissibility:
    def test_examples(self):
        assert not is_admissible(path(3), CodeKind.FD)
        g = disjoint_union(path(4), Graph.from_edges(1, []))
        assert is_admissible(g, CodeKind.FD)
        assert not is_admissible(g, CodeKind.FTD)

    def test_every_graph_is_ld_admissible(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_gnp(rng.randint(1, 8), rng.random(), rng)
            assert is_admissible(g, CodeKind.LD)

    def test_structural_matches_hypergraph_emptiness(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_gnp(rng.randint(1, 9), rng.random(), rng)
            for kind in ALL_KINDS:
                assert is_admissible(g, kind) == (
                    not build_hypergraph(g, kind).has_empty_edge()
                )

    def test_failure_reasons(self):
        assert "open twins" in admissibility_failure(path(3), CodeKind.FD)
        assert "closed twins" in admissibility_failure(path(2), CodeKind.ID)
        g = disjoint_union(path(4), Graph.from_edges(1, []))
        assert "isolated" in admissibility_failure(g, CodeKind.LTD)

    def test_failure_names_lexicographically_first_twins(self):
        # twin pairs (0, 3) and (1, 2): the lexicographically first pair is
        # named, not the one with the smaller larger vertex
        closed = Graph.from_edges(4, [(0, 3), (1, 2)])
        assert admissibility_failure(closed, CodeKind.ID) == "closed twins (0, 3)"
        open_ = Graph.from_edges(6, [(0, 4), (3, 4), (1, 5), (2, 5)])
        assert admissibility_failure(open_, CodeKind.FD) == "open twins (0, 3)"


class TestVerifyCode:
    def test_path4_full_vertex_set_is_fd_code(self):
        g = path(4)
        assert verify_code(g, CodeKind.FD, VertexSet.of(4, range(4)))

    def test_empty_set_never_verifies(self):
        for kind in ALL_KINDS:
            assert not verify_code(path(4), kind, VertexSet(4))

    def test_half3_named_minimum_fd_code(self):
        # everything except the top-right vertex w_3
        g = half(3)
        assert verify_code(g, CodeKind.FD, VertexSet.of(6, [0, 1, 2, 3, 4]))

    def test_cover_iff_code(self):
        rng = random.Random(14)
        for _ in range(80):
            n = rng.randint(1, 10)
            g = random_gnp(n, rng.random(), rng)
            kind = rng.choice(ALL_KINDS)
            h = build_hypergraph(g, kind)
            c = random_subset(n, rng)
            assert is_cover(h, c) == verify_code(g, kind, c)


class TestFullSeparatingVariants:
    VARIANTS = (is_full_separating, *FULL_SEPARATION_ORACLES)

    def test_all_variants_agree_random(self):
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_gnp(n, rng.random(), rng)
            c = random_subset(n, rng)
            answers = {check.__name__: check(g, c) for check in self.VARIANTS}
            assert len(set(answers.values())) == 1, answers

    def test_full_vertex_set_on_twin_free(self):
        rng = random.Random(26)
        for _ in range(10):
            g = random_twin_free_graph(rng, rng.randint(4, 9), isolate_free=False)
            full = VertexSet.of(g.n, range(g.n))
            for check in self.VARIANTS:
                assert check(g, full)

    def test_empty_set_fails_on_path4(self):
        for check in self.VARIANTS:
            assert not check(path(4), VertexSet(4))

    def test_variant_e_is_conjunction_of_independent_checks(self):
        rng = random.Random(27)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_gnp(n, rng.random(), rng)
            c = random_subset(n, rng)
            assert is_full_separating(g, c) == (
                is_closed_separating(g, c) and is_open_separating(g, c)
            )


class TestVerifyCodeFast:
    def test_agrees_with_definition(self):
        # the definitional verifier against the distance-2 oracle; codes
        # are drawn dense so that both verdicts occur often
        rng = random.Random(33)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(0, 12)
            g = random_gnp(n, rng.random(), rng)
            if rng.random() < 0.25:
                g = disjoint_union(g, Graph.from_edges(rng.randint(1, 2), []))
            kind = rng.choice([CodeKind.FD, CodeKind.FTD])
            full = (1 << g.n) - 1
            c = VertexSet(g.n, full & ~(rng.getrandbits(g.n) & rng.getrandbits(g.n)))
            want = distance2_full_code(g, kind, c)
            assert verify_code(g, kind, c) == want, (format_edge_list(g), kind, c)
            assert verify_code_fast(g, kind, c) == want
            verdicts[want] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_cycle12_constructive_code(self):
        g = cycle(12)
        code = ftd_code_path_cycle(12, cyclic=True)
        assert verify_code_fast(g, CodeKind.FTD, code)
        assert distance2_full_code(g, CodeKind.FTD, code)

    def test_two_unreached_vertices_fail_fd(self):
        # {0,3} dominates the path but leaves both endpoints without a
        # neighbor in the code
        g = path(4)
        c = VertexSet.of(4, [0, 3])
        assert not verify_code_fast(g, CodeKind.FD, c)
        assert not verify_code(g, CodeKind.FD, c)
        assert not distance2_full_code(g, CodeKind.FD, c)

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            verify_code_fast(path(4), CodeKind.ID, VertexSet(4))


class TestForcedVertices:
    def test_clause_widget_head_forced(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        forced = forced_vertices(gg.graph)
        assert gg.clause_vertex(1, "u1") in forced

    def test_variable_widget_forced_trio(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        forced = forced_vertices(gg.graph)
        for part in ("v1", "z1", "z2"):
            assert gg.var_vertex(1, part) in forced

    def test_complete_graph_has_none(self):
        assert not forced_vertices(complete_graph(4))

    def test_forced_subset_of_every_solved_code(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_twin_free_graph(rng, rng.randint(4, 9))
            forced = forced_vertices(g)
            for kind in (CodeKind.FD, CodeKind.FTD):
                witness = x_number(g, kind).witness
                assert forced.issubset(witness)


class TestXNumber:
    def test_thick_spider_itd(self):
        g = generate(FamilySpec(Family.THICK_SPIDER, 4))
        assert x_number(g, CodeKind.ITD).size == 5

    def test_half_graph_otd(self):
        assert x_number(half(3), CodeKind.OTD).size == 6
        assert x_number(half(4), CodeKind.OTD).size == 8

    def test_path5_fd(self):
        assert x_number(path(5), CodeKind.FD).size == 4

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissibleError):
            x_number(cycle(3), CodeKind.FD)

    def test_witness_verifies(self):
        rng = random.Random(50)
        for _ in range(15):
            g = random_twin_free_graph(rng, rng.randint(4, 8))
            for kind in ALL_KINDS:
                res = x_number(g, kind)
                assert verify_code(g, kind, res.witness)

    def test_non_code_cover_raises(self, monkeypatch):
        # a search defect must surface as an internal error, never as an
        # answer or as a usage error
        monkeypatch.setattr(codes, "min_cover",
                            lambda h, budget: CoverResult(0, VertexSet(h.n), True, 1))
        with pytest.raises(CoverCodeMismatchError) as info:
            x_number(path(5), CodeKind.FD)
        assert not isinstance(info.value, ValueError)

    def test_non_code_check_survives_optimize(self):
        script = (
            "import sepcodes.codes as c\n"
            "c.min_cover = lambda h, budget: c.CoverResult(0, c.VertexSet(h.n), True, 1)\n"
            "try:\n"
            "    c.x_number(c.Graph.from_edges(2, [(0, 1)]), c.CodeKind.LD)\n"
            "except c.CoverCodeMismatchError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(codes.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-O", "-c", script], env=env).returncode == 0


class TestKnownInequalities:
    def test_arrows_imply_precedes(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_gnp(rng.randint(2, 8), rng.random(), rng)
            for lo, hi, _case in KIND_INEQUALITIES:
                assert precedes(build_hypergraph(g, hi), build_hypergraph(g, lo))

    def test_ld_is_global_minimum_ftd_global_maximum(self):
        rng = random.Random(62)
        for _ in range(12):
            g = random_twin_free_graph(rng, rng.randint(4, 8))
            sizes = {kind: x_number(g, kind).size for kind in ALL_KINDS}
            assert all(sizes[CodeKind.LD] <= s for s in sizes.values())
            assert all(s <= sizes[CodeKind.FTD] for s in sizes.values())

    def test_ld_minimum_among_admissible_kinds_only(self):
        # also on graphs where some kinds are inadmissible
        rng = random.Random(68)
        for _ in range(25):
            g = random_gnp(rng.randint(2, 8), rng.random(), rng)
            ld = x_number(g, CodeKind.LD).size
            for kind in ALL_KINDS:
                if is_admissible(g, kind):
                    assert ld <= x_number(g, kind).size

    def test_arrow_inequalities_hold(self):
        rng = random.Random(63)
        for _ in range(12):
            g = random_twin_free_graph(rng, rng.randint(4, 8))
            sizes = {kind: x_number(g, kind).size for kind in ALL_KINDS}
            for lo, hi, _case in KIND_INEQUALITIES:
                assert sizes[lo] <= sizes[hi]


class TestGapAndLowerBounds:
    def test_gap_without_isolated_vertex(self):
        rng = random.Random(64)
        for _ in range(15):
            g = random_twin_free_graph(rng, rng.randint(4, 8))
            fd = x_number(g, CodeKind.FD).size
            ftd = x_number(g, CodeKind.FTD).size
            assert ftd - 1 <= fd <= ftd

    def test_gap_with_isolated_vertex(self):
        rng = random.Random(65)
        for _ in range(10):
            base = random_twin_free_graph(rng, rng.randint(4, 7))
            g = disjoint_union(base, Graph.from_edges(1, []))
            if not g.is_twin_free():
                continue
            fd = x_number(g, CodeKind.FD).size
            sub = induced_subgraph(g, range(base.n))
            assert fd == x_number(sub, CodeKind.FTD).size + 1

    def test_lower_bounds_on_full_separation_numbers(self):
        rng = random.Random(66)
        for _ in range(12):
            g = random_twin_free_graph(rng, rng.randint(4, 8))
            sizes = {kind: x_number(g, kind).size for kind in ALL_KINDS}
            assert sizes[CodeKind.FTD] >= max(
                sizes[CodeKind.ITD], sizes[CodeKind.OTD], sizes[CodeKind.FD]
            )
            assert sizes[CodeKind.FD] >= max(
                sizes[CodeKind.ID],
                sizes[CodeKind.OD],
                sizes[CodeKind.LTD] - 1,
                sizes[CodeKind.ITD] - 1,
                sizes[CodeKind.OTD] - 1,
            )

    def test_ftd_witness_is_a_code_of_every_kind(self):
        rng = random.Random(67)
        for _ in range(12):
            g = random_twin_free_graph(rng, rng.randint(4, 8))
            witness = x_number(g, CodeKind.FTD).witness
            for kind in ALL_KINDS:
                assert verify_code(g, kind, witness)
