"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (bypassing
pytest's capture, so the lines are visible in any run mode) and asserts
exact integer equality throughout.

Criterion 5 note: the two thick-spider locating entries at k=4 assert the
stated closed form k-1, which exhaustive enumeration refutes (the true
value there is k; the form only holds from k=5 on).  Those two assertions
fail honestly rather than being silently corrected here.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout

import pytest

from sepcodes import (
    CnfFormula,
    CodeKind,
    Family,
    FamilySpec,
    Graph,
    KIND_INEQUALITIES,
    VertexSet,
    brute_force_sat,
    build_gadget,
    build_hypergraph,
    disjoint_union,
    formula_x_number,
    ftd_code_path_cycle,
    generate,
    induced_subgraph,
    is_admissible,
    is_cover,
    is_full_separating,
    min_cover,
    random_gnp,
    verify_code,
    x_number,
)
from sepcodes.cli import main as cli_main
from sepcodes.codes import is_closed_separating, is_open_separating
from sepcodes.sat_reduction import exhaustive_small_formulas

from conftest import (
    FULL_SEPARATION_ORACLES,
    brute_force_tau,
    random_subset,
    random_twin_free_graph,
)


@pytest.fixture
def report(capfd):
    """Print one PASS/FAIL line per criterion on the real terminal."""

    def _report(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)

    return _report


def _spec(family, size):
    return FamilySpec(family, size)


def test_criterion_1_path_cycle_numbers(report):
    started = time.perf_counter()
    failures = []
    for family, start in ((Family.PATH, 4), (Family.CYCLE, 5)):
        for n in range(start, 25):
            spec = _spec(family, n)
            g = generate(spec)
            expect = formula_x_number(spec, CodeKind.FTD)
            for kind in (CodeKind.FD, CodeKind.FTD):
                got = x_number(g, kind).size
                if got != expect:
                    failures.append(f"{spec} {kind.value}: {got} != {expect}")
    elapsed = time.perf_counter() - started
    report(1, not failures,
            f"paths 4..24 and cycles 5..24, FD/FTD vs closed form ({elapsed:.1f}s)"
            + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


def test_criterion_2_constructive_code(report):
    started = time.perf_counter()
    failures = []
    for cyclic, family, start in ((False, Family.PATH, 4), (True, Family.CYCLE, 5)):
        for n in range(start, 61):
            code = ftd_code_path_cycle(n, cyclic)
            g = generate(_spec(family, n))
            expect = formula_x_number(_spec(family, n), CodeKind.FTD)
            if not verify_code(g, CodeKind.FTD, code):
                failures.append(f"{family.value}:{n} does not verify")
            if len(code) != expect:
                failures.append(f"{family.value}:{n} size {len(code)} != {expect}")
    elapsed = time.perf_counter() - started
    report(2, not failures,
            f"explicit FTD pattern verifies at matching size for n=4..60 ({elapsed:.1f}s)"
            + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


def test_criterion_3_half_graph_fd(report):
    started = time.perf_counter()
    failures = []
    for k in (3, 4, 5):
        got = x_number(generate(_spec(Family.HALF_GRAPH, k)), CodeKind.FD).size
        if got != 2 * k - 1:
            failures.append(f"half:{k} FD {got} != {2 * k - 1}")
    for k in (3, 4):
        g = generate(_spec(Family.HALF_GRAPH, k))
        size = 2 * k - 1
        found = {
            frozenset(combo)
            for combo in itertools.combinations(range(2 * k), size)
            if verify_code(g, CodeKind.FD, VertexSet.of(2 * k, combo))
        }
        everything = frozenset(range(2 * k))
        expected = {everything - {2 * k - 1}, everything - {0}}
        if found != expected:
            failures.append(f"half:{k} minimum codes {sorted(map(sorted, found))}")
    elapsed = time.perf_counter() - started
    report(3, not failures,
            f"half-graph FD numbers 2k-1 and their two unique minimum codes ({elapsed:.1f}s)"
            + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


def test_criterion_4_half_graph_ftd_and_union_gap(report):
    started = time.perf_counter()
    failures = []
    for k in (3, 4):
        g = generate(_spec(Family.HALF_GRAPH, k))
        ftd = x_number(g, CodeKind.FTD).size
        if ftd != 2 * k:
            failures.append(f"half:{k} FTD {ftd} != {2 * k}")
        plus = disjoint_union(g, Graph.from_edges(1, []))
        fd = x_number(plus, CodeKind.FD).size
        if fd != 2 * k + 1:
            failures.append(f"half:{k}+k1 FD {fd} != {2 * k + 1}")
    elapsed = time.perf_counter() - started
    report(4, not failures,
            f"FTD(B_k)=2k and FD(B_k+K_1)=2k+1 for k=3,4 ({elapsed:.1f}s)"
            + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


# the full stated table for criterion 5; the two thick LD/LTD entries at
# k=4 are known-unattainable (enumeration gives k, not k-1)
def _criterion_5_table(k: int):
    return {
        (Family.THIN_SPIDER, CodeKind.FD): 2 * k - 2,
        (Family.THIN_SPIDER, CodeKind.FTD): 2 * k - 1,
        (Family.THIN_SPIDER, CodeKind.LD): k,
        (Family.THIN_SPIDER, CodeKind.LTD): k,
        (Family.THIN_SPIDER, CodeKind.OD): k,
        (Family.THIN_SPIDER, CodeKind.OTD): k,
        (Family.THIN_SPIDER, CodeKind.ID): k + 1,
        (Family.THIN_SPIDER, CodeKind.ITD): 2 * k - 1,
        (Family.THICK_SPIDER, CodeKind.ITD): k + 1,
        (Family.THICK_SPIDER, CodeKind.FD): 2 * k - 2,
        (Family.THICK_SPIDER, CodeKind.FTD): 2 * k - 2,
        (Family.THICK_SPIDER, CodeKind.LD): k - 1,
        (Family.THICK_SPIDER, CodeKind.LTD): k - 1,
        (Family.THICK_SPIDER, CodeKind.OD): k + 1,
        (Family.THICK_SPIDER, CodeKind.OTD): k + 1,
        (Family.THICK_SPIDER, CodeKind.ID): k,
    }


def test_criterion_5_spider_numbers(report):
    started = time.perf_counter()
    failures = []
    for k in (4, 5):
        table = _criterion_5_table(k)
        for (family, kind), expect in table.items():
            got = x_number(generate(_spec(family, k)), kind).size
            if got != expect:
                failures.append(f"{family.value}:{k} {kind.value}: solver {got} != stated {expect}")
    elapsed = time.perf_counter() - started
    report(5, not failures,
            f"spider X-numbers for k=4,5 against the stated table ({elapsed:.1f}s)"
            + (f"; failures: {failures}" if failures else ""))
    assert not failures, (
        "stated closed forms not reproduced; exhaustive enumeration confirms the "
        f"solver values, so the stated small-k entries are unattainable: {failures}"
    )


def _random_n3m3_formulas(rng: random.Random, count: int):
    out = []
    while len(out) < count:
        clauses = []
        for _ in range(3):
            size = rng.choice((1, 2, 3))
            vars_ = rng.sample(range(1, 4), size)
            clauses.append(tuple(v * rng.choice((1, -1)) for v in vars_))
        f = CnfFormula(3, tuple(clauses))
        if len({abs(lit) for c in f.clauses for lit in c}) == 3:
            out.append(f)
    return out


def test_criterion_6_reduction_correspondence(report):
    started = time.perf_counter()
    rng = random.Random(2024)
    formulas = list(exhaustive_small_formulas(2, 2)) + _random_n3m3_formulas(rng, 10)
    # crafted unsatisfiable instance at the largest size, so the strict
    # inequality branch is exercised there too
    formulas.append(CnfFormula(3, ((1,), (-1,), (2, 3))))
    budget = 100_000_000
    failures = []
    sat_count = 0
    for f in formulas:
        n, m = f.num_vars, f.num_clauses
        gg = build_gadget(f)
        sat = brute_force_sat(f) is not None
        sat_count += sat
        ftd = x_number(gg.graph, CodeKind.FTD, budget)
        fd = x_number(gg.graph, CodeKind.FD, budget)
        if not (ftd.optimal and fd.optimal):
            failures.append(f"{f}: budget exhausted")
            continue
        target_ftd, target_fd = 7 * n + 2 * m, 7 * n + 2 * m - 1
        if sat != (ftd.size == target_ftd) or sat != (fd.size == target_fd):
            failures.append(
                f"{f.clauses}: sat={sat} FTD={ftd.size}/{target_ftd} FD={fd.size}/{target_fd}"
            )
        if not sat and not (ftd.size > target_ftd and fd.size > target_fd):
            failures.append(f"{f.clauses}: unsat but sizes not strictly larger")
    elapsed = time.perf_counter() - started
    report(6, not failures,
            f"{len(formulas)} formulas ({sat_count} satisfiable), size correspondence "
            f"({elapsed:.1f}s)" + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


def test_criterion_7_characterization_equivalence(report):
    started = time.perf_counter()
    rng = random.Random(7)
    failures = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_gnp(n, rng.random(), rng)
        c = random_subset(n, rng)
        answers = [oracle(g, c) for oracle in FULL_SEPARATION_ORACLES]
        answers.append(is_closed_separating(g, c) and is_open_separating(g, c))
        answers.append(is_full_separating(g, c))
        if len(set(answers)) != 1:
            failures += 1
    elapsed = time.perf_counter() - started
    report(7, failures == 0,
            f"500 random pairs, all five characterizations and the library agree "
            f"({elapsed:.1f}s)")
    assert failures == 0


def test_criterion_8_cover_code_oracle(report):
    started = time.perf_counter()
    rng = random.Random(8)
    failures = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_gnp(n, rng.random(), rng)
        kind = rng.choice(list(CodeKind))
        c = random_subset(n, rng)
        if is_cover(build_hypergraph(g, kind), c) != verify_code(g, kind, c):
            failures += 1
    enum_checked = 0
    while enum_checked < 50:
        n = rng.randint(1, 9)
        g = random_gnp(n, rng.random(), rng)
        kind = rng.choice(list(CodeKind))
        if not is_admissible(g, kind):
            continue
        h = build_hypergraph(g, kind)
        if min_cover(h).size != brute_force_tau(h):
            failures += 1
        enum_checked += 1
    elapsed = time.perf_counter() - started
    report(8, failures == 0,
            f"300 cover/code agreements and 50 enumeration cross-checks ({elapsed:.1f}s)")
    assert failures == 0


def test_criterion_9_relation_diagram(report):
    started = time.perf_counter()
    rng = random.Random(9)
    failures = []
    for index in range(100):
        g = random_twin_free_graph(rng, rng.randint(4, 9))
        sizes = {kind: x_number(g, kind).size for kind in CodeKind}
        for lo, hi, case in KIND_INEQUALITIES:
            if sizes[lo] > sizes[hi]:
                failures.append(f"graph {index}: {lo.value}<={hi.value} [{case}]")
        fd, ftd = sizes[CodeKind.FD], sizes[CodeKind.FTD]
        if not (ftd - 1 <= fd <= ftd):
            failures.append(f"graph {index}: gap {fd} vs {ftd}")
        if ftd < max(sizes[CodeKind.ITD], sizes[CodeKind.OTD], fd):
            failures.append(f"graph {index}: FTD lower bound")
        if fd < max(sizes[CodeKind.ID], sizes[CodeKind.OD], sizes[CodeKind.LTD] - 1,
                    sizes[CodeKind.ITD] - 1, sizes[CodeKind.OTD] - 1):
            failures.append(f"graph {index}: FD lower bound")
    elapsed = time.perf_counter() - started
    report(9, not failures,
            f"100 random twin-free isolate-free graphs, all relations ({elapsed:.1f}s)"
            + (f"; failures: {failures}" if failures else ""))
    assert not failures, failures


def _criterion_10_invocations():
    for family, start in ((Family.PATH, 4), (Family.CYCLE, 5)):
        for n in range(start, 25):
            for kind in ("fd", "ftd"):
                yield ("solve", "--family", f"{family.value}:{n}", "--kind", kind)
    for k in (3, 4, 5):
        yield ("solve", "--family", f"half:{k}", "--kind", "fd")
    for fam in ("thin", "thick"):
        for k in (4, 5):
            for kind in CodeKind:
                yield ("solve", "--family", f"{fam}:{k}", "--kind", kind.value.lower())


def test_criterion_10_deterministic_reports(report):
    started = time.perf_counter()

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli_main(list(argv) + ["--deterministic", "--json"])
        return buf.getvalue()

    mismatches = 0
    count = 0
    for argv in _criterion_10_invocations():
        count += 1
        if run(argv) != run(argv):
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(10, mismatches == 0,
            f"{count} solver invocations byte-identical across two runs ({elapsed:.1f}s)")
    assert mismatches == 0
