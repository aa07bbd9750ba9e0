import itertools
import random
import re

import pytest

from sepcodes import (
    CnfFormula,
    CodeKind,
    DimacsError,
    VertexSet,
    assignment_from_code,
    brute_force_sat,
    build_gadget,
    code_from_assignment,
    forced_vertices,
    is_admissible,
    parse_dimacs,
    verify_code,
    x_number,
)
from sepcodes.sat_reduction import _CLAUSE_PARTS, _VAR_PARTS, BRUTE_FORCE_VAR_CAP, satisfies

from conftest import (
    MALFORMED_DIMACS,
    exhaustive_small_formulas,
    isolated_vertices,
    reference_build_gadget,
)


class TestParseDimacs:
    def test_single_positive_clause(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        assert f.num_vars == 1 and f.clauses == ((1,),)

    def test_mixed_clause(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.clauses == ((1, -2),)

    def test_comments_and_multiline_clause(self):
        f = parse_dimacs("c a comment\np cnf 3 2\n1 2\n3 0\nc another\n-1 0\n")
        assert f.clauses == ((1, 2, 3), (-1,))

    def test_arity_over_three_rejected(self):
        with pytest.raises(DimacsError, match="literals"):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")

    def test_bad_token_reports_line(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p cnf 1 1\n1 x 0\n")

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="announced"):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="terminated"):
            parse_dimacs("p cnf 1 1\n1\n")

    def test_repeated_variable_rejected(self):
        with pytest.raises(DimacsError, match="twice"):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    @pytest.mark.parametrize("text, message", MALFORMED_DIMACS)
    def test_malformed_input_refused(self, text, message):
        with pytest.raises(DimacsError, match=re.escape(message)):
            parse_dimacs(text)


class TestCnfFormula:
    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            CnfFormula(1, ((2,),))

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(1, ((),))


class TestBruteForceSat:
    def test_single_literal(self):
        assert brute_force_sat(CnfFormula(1, ((1,),))) == (True,)

    def test_contradiction(self):
        assert brute_force_sat(CnfFormula(1, ((1,), (-1,)))) is None

    def test_lexicographic_first(self):
        # (x1 or x2) is already satisfied with x1=False, x2=True
        assert brute_force_sat(CnfFormula(2, ((1, 2),))) == (False, True)

    def test_agrees_with_inline_truth_table(self):
        rng = random.Random(77)
        for _ in range(20):
            n, m = 4, 6
            clauses = []
            for _ in range(m):
                vars_ = rng.sample(range(1, n + 1), 3)
                clauses.append(tuple(v * rng.choice((1, -1)) for v in vars_))
            f = CnfFormula(n, tuple(clauses))
            # independent truth-table check, written out longhand
            expected_sat = False
            for bits in range(2 ** n):
                values = [(bits >> (n - 1 - i)) & 1 == 1 for i in range(n)]
                ok = True
                for clause in clauses:
                    clause_true = False
                    for lit in clause:
                        val = values[abs(lit) - 1]
                        if (lit > 0 and val) or (lit < 0 and not val):
                            clause_true = True
                            break
                    if not clause_true:
                        ok = False
                        break
                if ok:
                    expected_sat = True
                    break
            got = brute_force_sat(f)
            assert (got is not None) == expected_sat
            if got is not None:
                assert satisfies(f, got)

    def test_variable_cap(self):
        cap = BRUTE_FORCE_VAR_CAP
        with pytest.raises(ValueError, match=f"capped at {cap} variables, got {cap + 1}"):
            brute_force_sat(CnfFormula(cap + 1, ((1,),)))


class TestBuildGadget:
    def test_vertex_count(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        assert gg.graph.n == 13
        gg = build_gadget(CnfFormula(2, ((1, -2), (-1, 2))))
        assert gg.graph.n == 26

    def test_pendants(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        g = gg.graph
        z1 = gg.var_vertex(1, "z1")
        assert g.rows[z1] == VertexSet.of(g.n, [gg.var_vertex(1, "s1")]).mask
        assert g.rows[gg.clause_vertex(1, "u3")].bit_count() == 1
        assert g.rows[gg.var_vertex(1, "v3")].bit_count() == 1

    def test_degree_sequence_golden(self):
        # formula (x1) & (not x1): one variable widget wired to two clauses
        gg = build_gadget(CnfFormula(1, ((1,), (-1,))))
        degrees = sorted(row.bit_count() for row in gg.graph.rows)
        # widget: v1=3 v2=2 v3=1 s1=s2=5 s3=4 z1=z2=1, w1=w2=4+1 wired;
        # clauses: u1=2 u2=2 u3=1 each
        assert degrees == [1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 4, 5, 5, 5, 5]

    def test_literal_wiring(self):
        f = CnfFormula(2, ((1, -2), (2,)))
        gg = build_gadget(f)
        g = gg.graph
        assert g.rows[gg.clause_vertex(1, "u1")] >> gg.var_vertex(1, "w1") & 1
        assert g.rows[gg.clause_vertex(1, "u1")] >> gg.var_vertex(2, "w2") & 1
        assert g.rows[gg.clause_vertex(2, "u1")] >> gg.var_vertex(2, "w1") & 1
        assert not g.rows[gg.clause_vertex(2, "u1")] >> gg.var_vertex(1, "w1") & 1

    def test_labels_bijective(self):
        gg = build_gadget(CnfFormula(2, ((1, 2),)))
        assert len(gg.labels) == gg.graph.n
        assert sorted(gg.labels.values()) == list(range(gg.graph.n))

    def test_matches_label_dict_reference(self):
        rng = random.Random(17)
        formulas = list(exhaustive_small_formulas(2, 2))
        for _ in range(30):
            n, m = rng.randint(1, 12), rng.randint(1, 40)
            formulas.append(CnfFormula(n, tuple(
                tuple(v * rng.choice((1, -1))
                      for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
                for _ in range(m))))
        formulas.append(_random_formulas(rng, 1, num_vars=12, num_clauses=40)[0])
        for f in formulas:
            gg = build_gadget(f)
            graph, labels = reference_build_gadget(f)
            assert gg.graph == graph, f
            assert list(gg.labels.items()) == list(labels.items()), f
            for i in range(1, f.num_vars + 1):
                for part in _VAR_PARTS:
                    assert gg.var_vertex(i, part) == labels[f"{part}^x{i}"]
            for j in range(1, f.num_clauses + 1):
                for part in _CLAUSE_PARTS:
                    assert gg.clause_vertex(j, part) == labels[f"{part}^y{j}"]

    def test_unknown_vertex_name_raises(self):
        gg = build_gadget(CnfFormula(2, ((1, 2),)))
        for var, part in ((0, "v1"), (3, "v1"), (1, "u1")):
            with pytest.raises(KeyError):
                gg.var_vertex(var, part)
        for clause, part in ((0, "u1"), (2, "u1"), (1, "w1")):
            with pytest.raises(KeyError):
                gg.clause_vertex(clause, part)

    def test_twin_free_and_isolate_free(self):
        rng = random.Random(5)
        for f in _random_formulas(rng, 5):
            g = build_gadget(f).graph
            assert is_admissible(g, CodeKind.FD)  # twin-free
            assert not isolated_vertices(g)

    def test_forced_vertices_include_widget_anchors(self):
        f = CnfFormula(2, ((1, -2), (2,)))
        gg = build_gadget(f)
        forced = forced_vertices(gg.graph)
        for j in range(1, f.num_clauses + 1):
            assert gg.clause_vertex(j, "u1") in forced
        for i in range(1, f.num_vars + 1):
            for part in ("v1", "z1", "z2"):
                assert gg.var_vertex(i, part) in forced


def _random_formulas(rng, count, num_vars=3, num_clauses=3):
    out = []
    while len(out) < count:
        clauses = []
        for _ in range(num_clauses):
            size = rng.choice((1, 2, 3))
            vars_ = rng.sample(range(1, num_vars + 1), size)
            clauses.append(tuple(v * rng.choice((1, -1)) for v in vars_))
        f = CnfFormula(num_vars, tuple(clauses))
        if len({abs(lit) for c in f.clauses for lit in c}) == num_vars:
            out.append(f)
    return out


class TestCodeFromAssignment:
    def test_sizes(self):
        f = CnfFormula(2, ((1, -2), (-1, 2)))
        gg = build_gadget(f)
        a = brute_force_sat(f)
        assert len(code_from_assignment(gg, a, CodeKind.FTD)) == 7 * 2 + 2 * 2
        assert len(code_from_assignment(gg, a, CodeKind.FD)) == 7 * 2 + 2 * 2 - 1

    def test_single_clause_verified_ftd_code_of_size_9(self):
        f = CnfFormula(1, ((1,),))
        gg = build_gadget(f)
        code = code_from_assignment(gg, (True,), CodeKind.FTD)
        assert len(code) == 9
        assert verify_code(gg.graph, CodeKind.FTD, code)

    def test_codes_verify_for_random_satisfiable_formulas(self):
        rng = random.Random(8)
        for f in _random_formulas(rng, 6):
            a = brute_force_sat(f)
            if a is None:
                continue
            gg = build_gadget(f)
            for kind in (CodeKind.FD, CodeKind.FTD):
                code = code_from_assignment(gg, a, kind)
                assert verify_code(gg.graph, kind, code), (f, kind)

    def test_rejects_other_kinds(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        with pytest.raises(ValueError):
            code_from_assignment(gg, (True,), CodeKind.ID)

    def test_rejects_wrong_length(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        with pytest.raises(ValueError, match="assignment length 2 != 1"):
            code_from_assignment(gg, (True, False), CodeKind.FTD)


class TestAssignmentFromCode:
    def test_round_trip_satisfies(self):
        rng = random.Random(9)
        for f in _random_formulas(rng, 6):
            a = brute_force_sat(f)
            if a is None:
                continue
            gg = build_gadget(f)
            code = code_from_assignment(gg, a, CodeKind.FTD)
            decoded = assignment_from_code(gg, code)
            assert decoded == a
            assert satisfies(f, decoded)

    def test_both_literal_vertices_selected_gives_none(self):
        f = CnfFormula(1, ((1,),))
        gg = build_gadget(f)
        code = code_from_assignment(gg, (True,), CodeKind.FTD)
        both = VertexSet(gg.graph.n, code.mask | 1 << gg.var_vertex(1, "w2"))
        assert assignment_from_code(gg, both) is None

    def test_non_separating_set_gives_none(self):
        gg = build_gadget(CnfFormula(1, ((1,),)))
        assert assignment_from_code(gg, VertexSet(gg.graph.n)) is None


class TestMinimumCodeStructure:
    def test_all_minimum_ftd_codes_respect_widget_quotas(self):
        # tiny instance: enumerate every optimal-size subset and check the
        # per-widget lower bounds on all that verify
        f = CnfFormula(1, ((1,),))
        gg = build_gadget(f)
        g = gg.graph
        target = 7 * 1 + 2 * 1
        clause_vs = {gg.clause_vertex(1, p) for p in ("u1", "u2", "u3")}
        widget_core = {
            gg.var_vertex(1, p) for p in ("v1", "v2", "v3", "s1", "s2", "s3", "z1", "z2")
        }
        found = 0
        for combo in itertools.combinations(range(g.n), target):
            c = VertexSet.of(g.n, combo)
            if not verify_code(g, CodeKind.FTD, c):
                continue
            found += 1
            chosen = set(combo)
            assert len(chosen & clause_vs) >= 2
            assert len(chosen & widget_core) >= 6
        assert found > 0

    def test_size_correspondence_small(self):
        # spot checks plus the m=4 corner; the acceptance suite runs the
        # exhaustive small sweep
        rng = random.Random(31337)
        cases = [
            CnfFormula(1, ((1,),)),
            CnfFormula(1, ((1,), (-1,))),
            CnfFormula(2, ((1, -2), (-1, 2))),
            CnfFormula(3, ((1,), (-1,), (2, 3), (-2, -3))),
        ]
        cases.extend(_random_formulas(rng, 8, num_vars=3, num_clauses=4))
        for f in cases:
            gg = build_gadget(f)
            n, m = f.num_vars, f.num_clauses
            sat = brute_force_sat(f) is not None
            ftd = x_number(gg.graph, CodeKind.FTD).size
            fd = x_number(gg.graph, CodeKind.FD).size
            assert (ftd == 7 * n + 2 * m) == sat
            assert (fd == 7 * n + 2 * m - 1) == sat
            if not sat:
                assert ftd > 7 * n + 2 * m and fd > 7 * n + 2 * m - 1


class TestExhaustiveFormulaGenerator:
    def test_counts_and_coverage(self):
        formulas = list(exhaustive_small_formulas(2, 2))
        assert all(
            len({abs(lit) for c in f.clauses for lit in c}) == f.num_vars for f in formulas
        )
        # n=1: clauses {x1},{not x1}: 2 single + 3 multisets of two = 5;
        # n=2: both variables must occur: 4 two-literal singles + 30 pairs
        n1 = [f for f in formulas if f.num_vars == 1]
        n2 = [f for f in formulas if f.num_vars == 2]
        assert len(n1) == 5
        assert len(n2) == 34
