import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from sepcodes import (
    CodeKind,
    CoverCodeMismatchError,
    CoverResult,
    Family,
    FamilySpec,
    Graph,
    GraphFormatError,
    Hypergraph,
    KIND_INEQUALITIES,
    NotAdmissibleError,
    UniverseMismatchError,
    VertexSet,
    build_hypergraph,
    format_edge_list,
    forced_vertices,
    formula_x_number,
    ftd_code_path_cycle,
    generate,
    is_admissible,
    is_full_separating,
    min_cover,
    random_gnp,
    remove_redundant,
    verify_code,
    x_number,
)
from sepcodes import codes
from sepcodes.codes import (
    LATTICE_ORDER,
    MAX_HYPERGRAPH_VERTICES,
    _trace_bound,
    admissibility_failure,
    verify_code_fast,
    x_numbers,
)
from sepcodes.families import graph_from_spec_string
from sepcodes.sat_reduction import CnfFormula, build_gadget

from conftest import (
    FULL_SEPARATION_ORACLES,
    brute_force_tau,
    complete_graph,
    distance2_full_code,
    exhaustive_small_formulas,
    ids,
    induced_subgraph,
    is_closed_separating,
    is_cover,
    is_open_separating,
    precedes,
    random_subset,
    random_twin_free_graph,
    reference_build_hypergraph,
    reference_disjoint_union,
    reference_forced_vertices,
    reference_verify_code,
)

ALL_KINDS = list(CodeKind)


def path(n):
    return generate(FamilySpec(Family.PATH, n))


def cycle(n):
    return generate(FamilySpec(Family.CYCLE, n))


def half(k):
    return generate(FamilySpec(Family.HALF_GRAPH, k))


def with_isolated_and_pendants(g, rng):
    """g plus 1-3 pendant paths of 1-3 vertices, each hung from a random
    vertex of g (or left free if g is empty), plus 1-3 isolated vertices."""
    edges = list(g.edges())
    n = g.n
    for _ in range(rng.randint(1, 3)):
        prev = rng.randrange(g.n) if g.n else None
        for _ in range(rng.randint(1, 3)):
            if prev is not None:
                edges.append((prev, n))
            prev = n
            n += 1
    return Graph.from_edges(n + rng.randint(1, 3), edges)


def seeded_graphs(seed, count):
    """Seeded G(n, p) graphs, n = 0..12, every other one with isolated
    vertices and pendant paths added, every third one doubled into two
    components."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        g = random_gnp(i % 13, rng.choice((0.1, 0.3, 0.5, 0.8)), rng)
        if i % 2:
            g = with_isolated_and_pendants(g, rng)
        if i % 3 == 0:
            g = reference_disjoint_union(g, random_gnp(rng.randint(0, 5), 0.5, rng))
        graphs.append(g)
    return graphs


def assert_matches_oracle(g):
    """build_hypergraph against the all-pairs oracle: FD and OD keep every
    pair, so the build is the oracle's; the other kinds keep the n rows and
    the pairs within distance 2, and reduce to the oracle's edges in order
    with the trace bound as ``lower``."""
    # u, v are within distance 2 iff N[u] and N[v] meet
    balls = [g.rows[v] | 1 << v for v in range(g.n)]
    near_pairs = sum(1 for a, b in itertools.combinations(balls, 2) if a & b)
    for kind in ALL_KINDS:
        h, oracle = build_hypergraph(g, kind), reference_build_hypergraph(g, kind)
        if kind in (CodeKind.FD, CodeKind.OD):
            assert h == oracle, (kind, format_edge_list(g))
            continue
        reduced = remove_redundant(h)
        assert (reduced.edges, reduced.lower) == (
            remove_redundant(oracle).edges, _trace_bound(g, kind)), (kind, format_edge_list(g))
        assert len(h.edges) == g.n + near_pairs, (kind, format_edge_list(g))


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
        g = reference_disjoint_union(path(4), Graph.from_edges(1, []))
        assert build_hypergraph(g, CodeKind.FTD).has_empty_edge()
        assert not build_hypergraph(g, CodeKind.FD).has_empty_edge()

    def test_closed_twins_give_empty_edge_for_id(self):
        assert build_hypergraph(path(2), CodeKind.ID).has_empty_edge()

    def test_matches_two_pass_reference(self):
        graphs = [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(3, []),
                  path(2), cycle(5), half(3), reference_disjoint_union(cycle(4), path(3)),
                  *seeded_graphs(61, 300)]
        for g in graphs:
            assert_matches_oracle(g)

    def test_vertex_limit(self, monkeypatch):
        # refused before the pair loop, so this is instant
        g = path(MAX_HYPERGRAPH_VERTICES + 1)
        for kind in (CodeKind.FTD, CodeKind.ID):
            with pytest.raises(GraphFormatError, match=f"limit of {MAX_HYPERGRAPH_VERTICES}"):
                build_hypergraph(g, kind)
        with pytest.raises(GraphFormatError, match="hypergraph limit"):
            x_number(g, CodeKind.FTD)
        monkeypatch.setattr(codes, "MAX_HYPERGRAPH_VERTICES", 5)
        assert_matches_oracle(path(5))
        with pytest.raises(GraphFormatError, match="6 vertices exceed the hypergraph limit of 5"):
            build_hypergraph(path(6), CodeKind.FTD)


def family_graphs():
    """Every family at its small parameters, each also with an isolated vertex."""
    sizes = {"path": range(1, 13), "cycle": range(3, 13), "half": range(1, 7),
             "thin": range(2, 7), "thick": range(2, 7)}
    for family, params in sizes.items():
        for size in params:
            for suffix in ("", "+k1"):
                yield graph_from_spec_string(f"{family}:{size}{suffix}")[0]


class TestSolverHypergraph:
    """The build the solver reads, which skips far pairs for six kinds,
    against the definitional all-pairs build of the test oracle."""

    def test_reduces_to_the_reference_edges_in_order(self):
        for g in [*seeded_graphs(71, 400), *family_graphs()]:
            assert_matches_oracle(g)

    def test_builds_carry_the_trace_bound(self):
        # so a search stops alike on either build, reduced or not
        for g in family_graphs():
            for kind in ALL_KINDS:
                h = build_hypergraph(g, kind)
                assert h.lower == remove_redundant(h).lower == _trace_bound(g, kind), (
                    kind, format_edge_list(g))

    def test_only_fd_and_od_keep_every_pair(self):
        every_pair = 6 + 15
        assert [k for k in ALL_KINDS if len(build_hypergraph(path(6), k).edges) == every_pair] == [
            CodeKind.FD, CodeKind.OD]

    def test_x_number_matches_the_definitional_build(self):
        rng = random.Random(72)
        graphs = [*(random_twin_free_graph(rng, rng.randint(4, 10)) for _ in range(60)),
                  *seeded_graphs(73, 120), *family_graphs()]
        for g in graphs:
            for kind in ALL_KINDS:
                if not is_admissible(g, kind):
                    continue
                for budget in (None, 3):
                    # size, witness, optimal and nodes_explored
                    oracle = replace(reference_build_hypergraph(g, kind), lower=_trace_bound(g, kind))
                    assert x_number(g, kind, budget) == min_cover(oracle, budget), (
                        kind, budget, format_edge_list(g))

    def test_vertex_limit(self):
        g = path(MAX_HYPERGRAPH_VERTICES + 1)
        for kind in (CodeKind.FD, CodeKind.ID):
            with pytest.raises(GraphFormatError, match=(
                    f"{MAX_HYPERGRAPH_VERTICES + 1} vertices exceed the hypergraph limit of "
                    f"{MAX_HYPERGRAPH_VERTICES} \\(one hyperedge per vertex pair\\)")):
                x_number(g, kind)


class TestAdmissibility:
    def test_examples(self):
        assert not is_admissible(path(3), CodeKind.FD)
        g = reference_disjoint_union(path(4), Graph.from_edges(1, []))
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
        g = reference_disjoint_union(path(4), Graph.from_edges(1, []))
        assert "isolated" in admissibility_failure(g, CodeKind.LTD)

    def test_failure_names_lexicographically_first_twins(self):
        # twin pairs (0, 3) and (1, 2): the lexicographically first pair is
        # named, not the one with the smaller larger vertex
        closed = Graph.from_edges(4, [(0, 3), (1, 2)])
        assert admissibility_failure(closed, CodeKind.ID) == "closed twins (0, 3)"
        open_ = Graph.from_edges(6, [(0, 4), (3, 4), (1, 5), (2, 5)])
        assert admissibility_failure(open_, CodeKind.FD) == "open twins (0, 3)"

    def test_large_twin_class_refused_without_listing_pairs(self):
        # a 2,001-vertex star has 2,000 open twins and a 2,001-clique 2,001
        # closed twins: about two million pairs each, which listing them
        # all would cost over 100 MB before naming the first
        n = 2001
        star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        full = (1 << n) - 1
        clique = Graph(n, [full & ~(1 << v) for v in range(n)])
        for g, kind, reason in ((star, CodeKind.FD, "open twins (1, 2)"),
                                (clique, CodeKind.ID, "closed twins (0, 1)")):
            tracemalloc.start()
            try:
                with pytest.raises(NotAdmissibleError) as refused:
                    x_number(g, kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert refused.value.reason == reason
            assert peak < 2_000_000, (kind, peak)


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


    def test_matches_reference_verifiers(self):
        # one verifier over the stored rows against the per-flavor
        # predicates, on V, every V - v, random subsets and the empty set
        rng = random.Random(15)
        verdicts = {True: 0, False: 0}
        for g in seeded_graphs(16, 300):
            full = (1 << g.n) - 1
            cands = [VertexSet(g.n, full), VertexSet(g.n)]
            cands += [VertexSet(g.n, full & ~(1 << v)) for v in range(g.n)]
            cands += [random_subset(g.n, rng) for _ in range(4)]
            for kind in ALL_KINDS:
                for c in cands:
                    want = reference_verify_code(g, kind, c)
                    assert verify_code(g, kind, c) == want, (format_edge_list(g), kind, c)
                    verdicts[want] += 1
        assert min(verdicts.values()) > 1000, verdicts

    def test_universe_mismatch_raises(self):
        g, c = path(4), VertexSet.of(5, [0, 1, 2, 3])
        for kind in ALL_KINDS:
            with pytest.raises(UniverseMismatchError, match="code universe"):
                verify_code(g, kind, c)
        with pytest.raises(UniverseMismatchError, match="code universe"):
            is_full_separating(g, c)


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
                g = reference_disjoint_union(g, Graph.from_edges(rng.randint(1, 2), []))
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

    def test_isolated_vertex_forces_pendant_neighbor(self):
        # In P3 the middle vertex is forced by no pair; an isolated vertex
        # z makes {1} the punctured difference of the pairs (0, z), (2, z).
        assert 1 not in forced_vertices(path(3))
        g = reference_disjoint_union(path(3), Graph.from_edges(1, []))
        assert 1 in forced_vertices(g)
        assert forced_vertices(g) == reference_forced_vertices(g)

    def test_matches_pair_scan_reference(self):
        graphs = seeded_graphs(67, 600)
        assert sum(bool(reference_forced_vertices(g)) for g in graphs) > 300
        for g in graphs:
            assert forced_vertices(g) == reference_forced_vertices(g), format_edge_list(g)

    def test_gadgets_match_reference(self):
        formulas = list(exhaustive_small_formulas(2, 2))[::7]
        formulas.append(CnfFormula(3, ((1, -2, 3), (-1, 2, -3), (2, 3))))
        for f in formulas:
            g = build_gadget(f).graph
            assert forced_vertices(g) == reference_forced_vertices(g), f

    def test_families_match_reference(self):
        for spec in ("path:400", "cycle:600", "half:150", "thin:150", "thick:100"):
            g = graph_from_spec_string(spec)[0]
            assert forced_vertices(g) == reference_forced_vertices(g), spec

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
                            lambda h, budget, start: CoverResult(0, VertexSet(h.n), True, 1))
        with pytest.raises(CoverCodeMismatchError) as info:
            x_number(path(5), CodeKind.FD)
        assert not isinstance(info.value, ValueError)

    def test_non_code_check_survives_optimize(self):
        script = (
            "import sepcodes.codes as c\n"
            "c.min_cover = lambda h, budget, start: c.CoverResult(0, c.VertexSet(h.n), True, 1)\n"
            "try:\n"
            "    c.x_number(c.Graph.from_edges(2, [(0, 1)]), c.CodeKind.LD)\n"
            "except c.CoverCodeMismatchError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(codes.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-O", "-c", script], env=env).returncode == 0

    @pytest.mark.parametrize("spec, kind", [
        ("path:96", CodeKind.FTD),
        ("cycle:48", CodeKind.FD),
        ("thick:20", CodeKind.LD),
    ])
    def test_closed_forms_proven_on_banded_graphs(self, spec, kind):
        g, family_spec = graph_from_spec_string(spec)
        res = x_number(g, kind, budget=100_000)
        assert res.optimal and res.size == formula_x_number(family_spec, kind)
        assert verify_code(g, kind, res.witness)

    def test_same_answer_under_any_hash_seed(self):
        # the table is a dict keyed by ints; neither its order nor string
        # hashing may reach the witness or the node count
        script = (
            "from sepcodes import CodeKind, x_number\n"
            "from sepcodes.families import graph_from_spec_string\n"
            "r = x_number(graph_from_spec_string('cycle:36')[0], CodeKind.OD)\n"
            "print(r.size, r.witness.mask, r.nodes_explored)\n"
        )
        src = str(Path(codes.__file__).parents[1])
        outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                               check=True).stdout
                for seed in ("1", "2")]
        assert outs[0] == outs[1] and outs[0].startswith("24 ")


class TestXNumbers:
    """The one pass over several kinds against one x_number per kind.  The
    inequalities feed the pass's bounds, so the `relations` checks alone
    could no longer catch a wrong bound; this comparison does."""

    def test_lattice_order(self):
        # each kind after the kinds below it, but OTD before OD and FTD
        # before FD, whose searches start from their codes
        at = {kind: i for i, kind in enumerate(LATTICE_ORDER)}
        assert at.keys() == set(ALL_KINDS)
        late = {(lo, hi) for lo, hi, _case in KIND_INEQUALITIES if at[lo] > at[hi]}
        assert late == {(CodeKind.OD, CodeKind.OTD), (CodeKind.FD, CodeKind.FTD)}

    @pytest.mark.parametrize("budget", [3, 10, 50_000])
    def test_matches_one_search_per_kind(self, budget):
        rng = random.Random(300 + budget)
        pairs = nodes_pass = nodes_alone = 0
        for i in range(300):
            g = random_gnp(rng.randint(3, 12), (0.2, 0.3, 0.5)[i % 3], rng)
            kinds = [kind for kind in ALL_KINDS if is_admissible(g, kind)]
            solved = list(x_numbers(g, kinds, budget))
            assert [kind for kind, _ in solved] == [k for k in LATTICE_ORDER if k in kinds]
            proven = {}
            for kind, res in solved:
                alone = x_number(g, kind, budget)
                assert verify_code(g, kind, res.witness) and len(res.witness) == res.size
                assert res.optimal or not alone.optimal  # no proof lost
                if res.optimal and alone.optimal:
                    assert res.size == alone.size
                assert res.size <= alone.size and res.nodes_explored <= alone.nodes_explored
                if res.optimal:
                    proven[kind] = res.size
                pairs += 1
                nodes_pass += res.nodes_explored
                nodes_alone += alone.nodes_explored
            for lo, hi, _case in KIND_INEQUALITIES:
                if lo in proven and hi in proven:
                    assert proven[lo] <= proven[hi]
            if CodeKind.FD in proven and CodeKind.FTD in proven:
                assert proven[CodeKind.FTD] - 1 <= proven[CodeKind.FD] <= proven[CodeKind.FTD]
        assert pairs > 1000 and nodes_pass < nodes_alone

    def test_one_kind_is_x_number(self):
        for g in seeded_graphs(69, 26):
            for kind in ALL_KINDS:
                if is_admissible(g, kind):
                    assert list(x_numbers(g, {kind}, 5)) == [(kind, x_number(g, kind, 5))]

    def test_inadmissible_kind_raises(self):
        with pytest.raises(NotAdmissibleError):
            list(x_numbers(path(3), ALL_KINDS))


class TestTraceBound:
    """The degree-budget trace bound never exceeds the X-number, and meets
    the closed forms on paths and cycles exactly where the counting allows."""

    def test_at_most_tau_on_every_graph_up_to_five_vertices(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
                for kind in ALL_KINDS:
                    if is_admissible(g, kind):
                        tau = brute_force_tau(build_hypergraph(g, kind))
                        assert _trace_bound(g, kind) <= tau, (kind, format_edge_list(g))

    def test_at_most_the_proven_number_on_seeded_twin_free_graphs(self):
        # searched without the bound, which an unsound bound could stop early
        rng = random.Random(74)
        tight = 0
        for _ in range(200):
            g = random_twin_free_graph(rng, rng.randint(4, 11))
            for kind in ALL_KINDS:
                res = min_cover(Hypergraph(g.n, build_hypergraph(g, kind).edges))
                bound = _trace_bound(g, kind)
                assert res.optimal and bound <= res.size, (kind, format_edge_list(g))
                tight += bound == res.size
        assert tight >= 700  # 741 of the 1,600

    def test_closed_forms_on_paths_and_cycles(self):
        # equal to the closed form, or exactly one below it, so an
        # off-by-one in the trace sizes or in the traces needed shows
        for n in range(4, 80):
            low = n == 4 or n % 6 in (3, 4)
            want = formula_x_number(FamilySpec(Family.PATH, n), CodeKind.FTD) - low
            assert _trace_bound(path(n), CodeKind.FTD) == want, n
        for n in range(5, 80):
            want = formula_x_number(FamilySpec(Family.CYCLE, n), CodeKind.OTD) - (n % 6 == 4)
            assert _trace_bound(cycle(n), CodeKind.OTD) == want, n
        # gamma^ID(C_n) = n/2 for even n >= 6, proven here up to 24
        for n in range(6, 80, 2):
            assert _trace_bound(cycle(n), CodeKind.ID) == n // 2, n
            if n <= 24:
                res = min_cover(Hypergraph(n, build_hypergraph(cycle(n), CodeKind.ID).edges))
                assert res.optimal and res.size == n // 2, n


class TestKnownInequalities:
    def test_twelve_arrows_in_order(self):
        # derived from FAMILIES; the order fixes the order of `relations` checks
        assert [(lo.value, hi.value, case) for lo, hi, case in KIND_INEQUALITIES] == [
            ("ID", "ITD", "domination"), ("LD", "LTD", "domination"),
            ("FD", "FTD", "domination"), ("OD", "OTD", "domination"),
            ("LD", "ID", "adjacent"), ("LTD", "ITD", "adjacent"),
            ("OD", "FD", "adjacent"), ("OTD", "FTD", "adjacent"),
            ("ID", "FD", "nonadjacent"), ("ITD", "FTD", "nonadjacent"),
            ("LD", "OD", "nonadjacent"), ("LTD", "OTD", "nonadjacent"),
        ]

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
            g = reference_disjoint_union(base, Graph.from_edges(1, []))
            if not is_admissible(g, CodeKind.FD):  # twin-free
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
