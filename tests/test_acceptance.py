"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each. The n <= 12 catalog sweeps run once per session."""

import random
import time
from fractions import Fraction

import pytest

from cubicmatch.brick_brace import decompose, pm_affine_dimension
from cubicmatch.connectivity import cyclic_edge_connectivity, edge_connectivity
from cubicmatch.harness import bound_table, bridgeless_cubic_catalog
from cubicmatch.klee import enumerate_klee, expand_and_check, klee_stats, vertex_type, DANGEROUS
from cubicmatch.matching import (
    boundary_profile,
    count_perfect_matchings,
    count_perfect_matchings_oracle,
    matching_profile,
)
from cubicmatch.multigraph import canonical_form, four_cut_completion_vertices
from cubicmatch.connectivity import enumerate_cuts
from cubicmatch.named_graphs import exceptional_graph, petersen

SWEEP_ORDERS = (2, 4, 6, 8, 10, 12)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


@pytest.fixture(scope="module")
def sweep():
    return {n: bridgeless_cubic_catalog(n) for n in SWEEP_ORDERS}


def test_criterion_01_petersen_suite():
    start = time.perf_counter()
    g = petersen()
    ok = True
    detail = []
    profile = matching_profile(g)
    ok &= profile.total == 6
    ok &= all(c == 2 for c in profile.per_edge.values())
    ok &= cyclic_edge_connectivity(g) == 5
    corollary_bound = Fraction(3 * 10, 4) - Fraction(3, 2)
    ok &= Fraction(profile.total) - corollary_bound == 0
    for e in range(15):
        ok &= count_perfect_matchings(g, forbidden=(e,)) == 10 // 2 - 1
    dec = decompose(g)
    dim = len(g.edges) - g.vertex_count + 1 - dec.brick_count
    ok &= dec.brick_count == 1 and dim == 5 and pm_affine_dimension(g) == 5
    ok &= count_perfect_matchings_oracle(g) == 6
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "petersen suite", ok, f"{elapsed:.2f}s")


def test_criterion_02_exceptional_uniqueness(sweep):
    ex = exceptional_graph()
    ex_count = count_perfect_matchings(ex)
    ok = ex_count == ex.vertex_count // 2 == 6
    equality_cases = []
    for n, graphs in sweep.items():
        for g in graphs:
            if count_perfect_matchings(g) == n // 2:
                equality_cases.append((n, canonical_form(g)))
    ok &= equality_cases == [(12, canonical_form(ex))]
    _report(2, "exceptional graph uniqueness", ok,
            f"{sum(len(v) for v in sweep.values())} graphs swept")


def test_criterion_03_table_one():
    bt = bound_table(8)
    ok = [bt.g[k] for k in range(3, 9)] == [4, 6, 8, 11, 15, 20]
    ok &= [bt.f[k] for k in range(3, 9)] == [6, 9, 12, 17, 23, 30]
    _report(3, "bipartite bound table", ok)


def test_criterion_04_bipartite_bound(sweep):
    violations = 0
    checked = 0
    for n, graphs in sweep.items():
        for g in graphs:
            if not g.is_bipartite():
                continue
            checked += 1
            if count_perfect_matchings(g) < Fraction(3 * n, 2) - 9:
                violations += 1
    _report(4, "bipartite 3n/2-9 bound", violations == 0,
            f"{checked} bipartite graphs")


def test_criterion_05_main_theorem_sweeps(sweep):
    violations = 0
    for n, graphs in sweep.items():
        for g in graphs:
            pm = count_perfect_matchings(g)
            if Fraction(pm) < Fraction(3 * n, 4) - 10:
                violations += 1
            if edge_connectivity(g) >= 3 and Fraction(pm) < Fraction(3 * n, 4) - 9:
                violations += 1
    klee_checked = 0
    for n in (4, 6, 8, 10, 12, 14):
        for g in enumerate_klee(n):
            klee_checked += 1
            if Fraction(count_perfect_matchings(g)) < Fraction(3 * n, 4) - 6:
                violations += 1
    _report(5, "main theorem sweeps", violations == 0,
            f"klee classes checked: {klee_checked}")


def test_criterion_06_polytope_cross_check(sweep):
    ok = True
    checked = 0
    for n in (2, 4, 6, 8, 10):
        for g in sweep[n]:
            checked += 1
            if decompose(g).dimension != pm_affine_dimension(g):
                ok = False
    _report(6, "dimension formula vs affine rank", ok, f"{checked} graphs")


def test_criterion_07_klee_calculus():
    ok = True
    expansions = 0
    for n in (4, 6, 8, 10, 12, 14):
        for g in enumerate_klee(n):
            for v in range(g.vertex_count):
                _, report = expand_and_check(g, v)
                expansions += 1
                if not report.ok:
                    ok = False
    tens = enumerate_klee(10)
    ok &= len(tens) == 3
    ok &= sorted(count_perfect_matchings(g) for g in tens) == [6, 6, 7]
    for n in (12, 14):
        for g in enumerate_klee(n):
            for v in range(n):
                if vertex_type(g, v).vertex_class == DANGEROUS:
                    ok = False
    ok &= any(
        (s.matchings, s.alpha, s.beta) == (10, 4, 6)
        for s in map(klee_stats, enumerate_klee(12))
    )
    _report(7, "klee expansion calculus", ok, f"{expansions} expansions")


def test_criterion_08_oracle_equivalence(sweep):
    rnd = random.Random(20260808)
    ok = True
    checked = 0
    for n in (2, 4, 6, 8, 10):
        for g in sweep[n]:
            if count_perfect_matchings(g) != count_perfect_matchings_oracle(g):
                ok = False
            m = len(g.edges)
            for _ in range(100):
                forced = set()
                used = set()
                for e in rnd.sample(range(m), min(3, m)):
                    u, v = g.edges[e]
                    if u not in used and v not in used and rnd.random() < 0.5:
                        forced.add(e)
                        used.update((u, v))
                forbidden = {
                    e for e in rnd.sample(range(m), min(3, m)) if e not in forced
                }
                checked += 1
                if count_perfect_matchings(g, forced, forbidden) != \
                        count_perfect_matchings_oracle(g, forced, forbidden):
                    ok = False
    _report(8, "oracle equivalence", ok, f"{checked} constrained pairs")


def _completion_eligible(g, cut):
    # distinct attachment vertices on side_b, the side kept by G^B_(ij)
    att = []
    for e in cut.cut_edges:
        u, v = g.edges[e]
        att.append(v if u in cut.side_a else u)
    return len(set(att)) == 4


def test_criterion_09_cut_identities(sweep):
    rnd = random.Random(441)
    pool3 = []
    pool4 = []
    for n in (8, 10, 12):
        for g in sweep[n]:
            for cut in enumerate_cuts(g, 4):
                if cut.size == 3:
                    pool3.append((g, cut))
                elif cut.size == 4 and _completion_eligible(g, cut):
                    pool4.append((g, cut))
    sample = rnd.sample(pool3, 100) + rnd.sample(pool4, 100)
    ok = True
    completions = 0
    for g, cut in sample:
        profile = boundary_profile(g, cut)
        total = sum(profile.m_a[x] * profile.m_b[x] for x in profile.m_a)
        if total != count_perfect_matchings(g):
            ok = False
        if cut.size == 4:
            completions += 1
            i, j, k, l = 0, 1, 2, 3
            completion = four_cut_completion_vertices(g, cut.flipped(), (i, j))
            expected = (
                profile.m_b[frozenset({i, k})]
                + profile.m_b[frozenset({i, l})]
                + profile.m_b[frozenset({j, k})]
                + profile.m_b[frozenset({j, l})]
                + profile.m_b[frozenset()]
            )
            if count_perfect_matchings(completion) != expected:
                ok = False
    ok &= completions == 100
    _report(9, "cut and completion identities", ok,
            f"200 cuts, {completions} completions")


def test_criterion_10_two_cut_avoiding(sweep):
    violations = 0
    graphs_checked = 0
    for n, graphs in sweep.items():
        for g in graphs:
            if edge_connectivity(g) != 2:
                continue
            graphs_checked += 1
            for e in range(len(g.edges)):
                if count_perfect_matchings(g, forbidden=(e,)) < 3:
                    violations += 1
    _report(10, "two-cut avoiding lemma", violations == 0,
            f"{graphs_checked} graphs with 2-edge-cuts")
