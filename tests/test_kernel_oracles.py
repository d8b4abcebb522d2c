"""Every lookup of the matching kernel checked against independent code.

Boundary tables and vertex types are compared with the subset-walk oracle
run on explicitly built subgraphs; coverage and bicriticality with the
blossom existence oracle of tests/oracles.py. Inputs are the whole
catalogs up to order 8.

The kernel's popcount pivot, its kept branch lists, its per-edge sweep
and its enumeration are compared with the kernel as first written, kept
here: a pivot that rescans every incident edge, a count per edge and a
recursive enumeration. Inputs are the catalogs up to order 10 (12 for the
branch lists), the analyze16 benchmark draws for seed 1, and seeded
multigraphs with forbidden edges, where degrees 0 to 3 and parallel edges
occur. The XOR walk is compared with the co-tree masks of the enumerated
matchings.
"""

import random
from itertools import combinations

import pytest

from cubicmatch.brick_brace import _cotree_edges
from cubicmatch.connectivity import enumerate_cuts
from cubicmatch.klee import vertex_type
from cubicmatch.matching import (
    _Kernel,
    boundary_profile,
    count_perfect_matchings_oracle,
    enumerate_perfect_matchings,
    is_matching_covered,
    matching_profile,
)
from cubicmatch.multigraph import MultiGraph, induced_subgraph
from conftest import analyze16_draws
from oracles import has_perfect_matching, is_bicritical

ORDERS = (2, 4, 6, 8)
SWEEP_ORDERS = (2, 4, 6, 8, 10)
KEPT_ORDERS = (2, 4, 6, 8, 10, 12)


def deleted(g, drop):
    """g less the vertices in drop: the subgraph induced by the others."""
    return induced_subgraph(g, set(range(g.vertex_count)) - set(drop))[0]


class RescanKernel:
    """The matching kernel as first written: the pivot rescans every
    incident edge of every uncovered vertex."""

    def __init__(self, g, forbidden=frozenset()):
        self.full = (1 << g.vertex_count) - 1
        self.inc = [[] for _ in range(g.vertex_count)]
        for i, (u, v) in enumerate(g.edges):
            if i not in forbidden:
                self.inc[u].append((i, v))
                self.inc[v].append((i, u))
        self.memo = {self.full: 1}

    def pivot(self, mask):
        best_v, best_d = -1, 1 << 30
        for v, edges in enumerate(self.inc):
            if (mask >> v) & 1:
                continue
            d = 0
            for _, u in edges:
                if not (mask >> u) & 1:
                    d += 1
            if d < best_d:
                best_v, best_d = v, d
                if d <= 1:
                    break
        return -1 if best_d == 0 else best_v

    def rec(self, mask):
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        v = self.pivot(mask)
        if v >= 0:
            base = mask | (1 << v)
            for _, u in self.inc[v]:
                if not (mask >> u) & 1:
                    total += self.rec(base | (1 << u))
        self.memo[mask] = total
        return total

    def count(self, mask):
        if (self.full ^ mask).bit_count() % 2:
            return 0
        return self.rec(mask)


def _mask(vertices):
    return sum(1 << v for v in set(vertices))


def rescan_enumerate(g, forced=(), forbidden=()):
    """enumerate_perfect_matchings as first written, a recursive closure
    over the rescanning kernel."""
    kernel = RescanKernel(g, frozenset(forbidden))
    chosen = list(frozenset(forced))

    def rec(mask):
        if mask == kernel.full:
            yield tuple(sorted(chosen))
            return
        v = kernel.pivot(mask)
        for i, u in kernel.inc[v]:
            if not (mask >> u) & 1:
                sub = mask | (1 << v) | (1 << u)
                if kernel.count(sub):
                    chosen.append(i)
                    yield from rec(sub)
                    chosen.pop()

    covered = _mask(v for e in forced for v in g.edges[e])
    if kernel.count(covered):
        yield from rec(covered)


def random_multigraph(rnd, n, m):
    """m edges between uniformly drawn distinct endpoints: isolated
    vertices, high degrees and parallel edges all occur."""
    edges = []
    for _ in range(m):
        u, v = rnd.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph(n, tuple(edges))


def random_constraints(rnd, g):
    """A seeded matching of forced edges and a disjoint forbidden set."""
    forced, used = set(), set()
    for e in rnd.sample(range(len(g.edges)), min(2, len(g.edges))):
        u, v = g.edges[e]
        if u not in used and v not in used and rnd.random() < 0.7:
            forced.add(e)
            used.update((u, v))
    rest = [e for e in range(len(g.edges)) if e not in forced]
    forbidden = set(rnd.sample(rest, min(len(rest), rnd.randrange(3))))
    return frozenset(forced), frozenset(forbidden)


def seeded_multigraphs():
    """(graph, forbidden) pairs of order up to 8 with forbidden edges."""
    rnd = random.Random(17)
    out = []
    for _ in range(60):
        n = rnd.choice((2, 4, 6, 8))
        g = random_multigraph(rnd, n, rnd.randrange(1, 3 * n // 2 + 2))
        forbidden = frozenset(e for e in range(len(g.edges)) if rnd.random() < 0.25)
        out.append((g, forbidden))
    return out


def _side_count(g, cut, side, x):
    """m[X] for one side: the side's induced subgraph minus the attachments
    of the cut edges indexed by X, counted by the oracle."""
    sub, old_ids, _ = induced_subgraph(g, side)
    index = {v: i for i, v in enumerate(old_ids)}
    att = []
    for i in x:
        u, v = g.edges[cut.cut_edges[i]]
        att.append(index[u] if u in side else index[v])
    if len(set(att)) != len(att):
        return 0  # two cut edges share the attachment vertex
    rest = deleted(sub, att)
    return count_perfect_matchings_oracle(rest)


@pytest.mark.parametrize("n", ORDERS)
def test_boundary_tables_match_oracle(n, catalogs):
    for g in catalogs(n):
        for cut in enumerate_cuts(g, 4):
            bp = boundary_profile(g, cut)
            for x in bp.m_a:
                assert bp.m_a[x] == _side_count(g, cut, cut.side_a, x)
                assert bp.m_b[x] == _side_count(g, cut, cut.side_b, x)


@pytest.mark.parametrize("n", ORDERS)
def test_vertex_types_match_oracle(n, catalogs):
    for g in catalogs(n):
        for v in range(n):
            nbrs = [u for _, u in g.incidence[v]]
            if len(set(nbrs)) != 3:
                continue
            t = vertex_type(g, v)
            rest = deleted(g, [v] + nbrs)
            assert t.omega == count_perfect_matchings_oracle(rest)
            for u, mu in zip(nbrs, t.mu):
                rest = deleted(g, [v, u])
                assert mu == count_perfect_matchings_oracle(rest)


@pytest.mark.parametrize("n", ORDERS)
def test_matching_covered_matches_blossom(n, catalogs):
    # the catalog graphs are all matching covered; deleting one edge
    # gives graphs on both sides of the answer
    for g in catalogs(n):
        for h in [g] + [
            MultiGraph(n, g.edges[:e] + g.edges[e + 1:]) for e in range(len(g.edges))
        ]:
            expected = all(
                has_perfect_matching(h, forced=(e,)) is not None for e in range(len(h.edges))
            )
            assert is_matching_covered(h) == expected


@pytest.mark.parametrize("n", ORDERS)
def test_bicritical_matches_blossom(n, catalogs):
    for g in catalogs(n):
        expected = all(
            has_perfect_matching(deleted(g, pair)) is not None
            for pair in combinations(range(n), 2)
        )
        assert is_bicritical(g) == expected


def _filled(kernel, g, covered):
    """The kernel's memo after a count, the per-edge sweep and a count per
    edge from covered."""
    kernel.count(covered)
    kernel.edge_counts(covered)
    for u, v in g.edges:
        kernel.count(covered | (1 << u) | (1 << v))
    return kernel._memo


def _check_pivot(g, forbidden, covered):
    kernel = _Kernel(g, forbidden)
    ref = RescanKernel(g, forbidden)
    for mask in _filled(kernel, g, covered):
        assert kernel.pivot(mask) == ref.pivot(mask), (g, forbidden, mask)
    # the same pivots fill the same memo states
    ref.count(covered)
    fresh = _Kernel(g, forbidden)
    fresh.count(covered)
    assert set(fresh._memo) == set(ref.memo)


@pytest.mark.parametrize("n", SWEEP_ORDERS)
def test_popcount_pivot_matches_rescan(n, catalogs):
    for g in catalogs(n):
        _check_pivot(g, frozenset(), 0)
        forced, forbidden = random_constraints(random.Random(n), g)
        _check_pivot(g, forbidden, _mask(v for e in forced for v in g.edges[e]))


def test_popcount_pivot_matches_rescan_on_multigraphs():
    degrees = set()
    parallel = False
    for g, forbidden in seeded_multigraphs():
        kept = [e for i, e in enumerate(g.edges) if i not in forbidden]
        parallel |= len(set(kept)) < len(kept)
        kernel = _Kernel(g, forbidden)
        ref = RescanKernel(g, forbidden)
        # every mask, not only the reached ones: degrees 0 and 1 stop early
        for mask in range(1 << g.vertex_count):
            assert kernel.pivot(mask) == ref.pivot(mask), (g, forbidden, mask)
        degrees.update(len(edges) for edges in ref.inc)
        _check_pivot(g, forbidden, 0)
    assert {0, 1, 2, 3} <= degrees and parallel


def _check_kept_branches(g, forbidden, covered):
    """Each state's kept branch list against the branches of the rescan
    pivot at that state, counted by the rescanning kernel, with the
    branches that count 0 dropped; states with no positive branch keep
    none."""
    kernel = _Kernel(g, forbidden)
    ref = RescanKernel(g, forbidden)
    for mask in _filled(kernel, g, covered):
        want = []
        v = ref.pivot(mask)
        if mask != ref.full and v >= 0:
            for i, u in ref.inc[v]:
                if not (mask >> u) & 1:
                    sub = mask | (1 << v) | (1 << u)
                    if ref.count(sub):
                        want.append((i, sub, ref.count(sub)))
        assert kernel._branches.get(mask, []) == want, (g, forbidden, mask)


@pytest.mark.parametrize("n", KEPT_ORDERS)
def test_kept_branches_match_rescan(n, catalogs):
    rnd = random.Random(n)
    for g in catalogs(n):
        _check_kept_branches(g, frozenset(), 0)
        forced, forbidden = random_constraints(rnd, g)
        _check_kept_branches(g, forbidden, _mask(v for e in forced for v in g.edges[e]))


def test_kept_branches_match_rescan_on_multigraphs():
    rnd = random.Random(29)
    for g, forbidden in seeded_multigraphs():
        forced, _ = random_constraints(rnd, g)
        _check_kept_branches(g, forbidden, 0)
        _check_kept_branches(g, forbidden, _mask(v for e in forced - forbidden for v in g.edges[e]))


def test_xor_walk_yields_cotree_masks_of_matchings(catalogs):
    graphs = [g for n in KEPT_ORDERS for g in catalogs(n)]
    graphs += [g for seed in (1, 2, 3) for g in analyze16_draws(seed)]
    for g in graphs:
        bit = [0] * len(g.edges)
        for j, e in enumerate(_cotree_edges(g)):
            bit[e] = 1 << j
        kernel = _Kernel(g)
        want = []
        for pm in kernel.matchings(0, []):
            mask = 0
            for e in pm:
                mask |= bit[e]
            want.append(mask)
        assert want and list(kernel.xor_walk(0, bit)) == want, g


def _check_sweep_against_queries(g, forced, forbidden):
    """The sweep's table against one fresh count(covered | ends) per edge."""
    covered = _mask(v for e in forced for v in g.edges[e])
    table = _Kernel(g, forbidden).edge_counts(covered)
    for e, (u, v) in enumerate(g.edges):
        ends = (1 << u) | (1 << v)
        if e in forbidden or covered & ends:
            assert table[e] == 0
        else:
            assert table[e] == _Kernel(g, forbidden).count(covered | ends), (g, e)


def _check_profile_against_oracle(g, forced, forbidden):
    profile = matching_profile(g, forced, forbidden)
    total = count_perfect_matchings_oracle(g, forced, forbidden)
    assert profile.total == total
    covered = _mask(v for e in forced for v in g.edges[e])
    for e, (u, v) in enumerate(g.edges):
        if e in forced:
            want = total
        elif e in forbidden or (covered >> u) & 1 or (covered >> v) & 1:
            want = 0
        else:
            want = count_perfect_matchings_oracle(g, forced | {e}, forbidden)
        assert profile.per_edge[e] == want, (g, forced, forbidden, e)


@pytest.mark.parametrize("n", SWEEP_ORDERS)
def test_sweep_matches_queries_and_oracle(n, catalogs):
    rnd = random.Random(n)
    for g in catalogs(n):
        for forced, forbidden in [(frozenset(), frozenset())] + [
            random_constraints(rnd, g) for _ in range(2)
        ]:
            _check_sweep_against_queries(g, forced, forbidden)
            _check_profile_against_oracle(g, forced, forbidden)


def test_sweep_matches_queries_on_analyze16_draws():
    rnd = random.Random(16)
    for k, g in enumerate(analyze16_draws()):
        forced, forbidden = random_constraints(rnd, g)
        for constraints in ((frozenset(), frozenset()), (forced, forbidden)):
            _check_sweep_against_queries(g, *constraints)
            if k < 10:  # the subset-walk oracle takes milliseconds per query here
                _check_profile_against_oracle(g, *constraints)


def test_sweep_matches_oracle_on_multigraphs():
    rnd = random.Random(19)
    for g, forbidden in seeded_multigraphs():
        forced, _ = random_constraints(rnd, g)
        forced -= forbidden
        for constraints in ((frozenset(), forbidden), (forced, forbidden)):
            _check_sweep_against_queries(g, *constraints)
            _check_profile_against_oracle(g, *constraints)


def test_enumeration_order_matches_recursive_version(catalogs):
    rnd = random.Random(23)
    cases = [(g, frozenset(), frozenset()) for n in SWEEP_ORDERS for g in catalogs(n)]
    cases += [(g, *random_constraints(rnd, g)) for n in SWEEP_ORDERS for g in catalogs(n)]
    cases += [(g, frozenset(), frozenset()) for g in analyze16_draws()[:20]]
    for g, forbidden in seeded_multigraphs():
        forced, _ = random_constraints(rnd, g)
        cases.append((g, forced - forbidden, forbidden))
    for g, forced, forbidden in cases:
        got = list(enumerate_perfect_matchings(g, forced, forbidden))
        assert got == list(rescan_enumerate(g, forced, forbidden)), (g, forced, forbidden)
