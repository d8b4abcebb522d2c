import random

import pytest

from cubicmatch import matching
from cubicmatch.matching import (
    boundary_profile,
    count_avoiding,
    count_perfect_matchings,
    count_perfect_matchings_oracle,
    enumerate_perfect_matchings,
    has_perfect_matching,
    matching_profile,
)
from cubicmatch.multigraph import (
    MultiGraph,
    delete_vertices,
    four_cut_completion_vertices,
    make_cut,
)
from cubicmatch.named_graphs import (
    cube,
    doubled_c4,
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from conftest import random_bridgeless_cubic


class TestCounts:
    def test_known_totals(self):
        assert count_perfect_matchings(k4()) == 3
        assert count_perfect_matchings(three_bond()) == 3
        assert count_perfect_matchings(k33()) == 6
        assert count_perfect_matchings(prism()) == 4
        assert count_perfect_matchings(petersen()) == 6
        assert count_perfect_matchings(exceptional_graph()) == 6

    def test_odd_order_zero(self):
        g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
        assert count_perfect_matchings(g) == 0

    def test_empty_graph_has_one(self):
        assert count_perfect_matchings(MultiGraph(0, ())) == 1

    def test_force_forbid_additivity(self):
        rnd = random.Random(5)
        for g in (petersen(), prism(), doubled_c4(), exceptional_graph()):
            total = count_perfect_matchings(g)
            for _ in range(10):
                e = rnd.randrange(len(g.edges))
                with_e = count_perfect_matchings(g, forced=(e,))
                without_e = count_perfect_matchings(g, forbidden=(e,))
                assert with_e + without_e == total

    def test_count_limit_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(matching, "COUNT_LIMIT", 5)
        with pytest.raises(OverflowError):
            count_perfect_matchings(petersen())

    def test_malformed_constraints(self):
        g = k4()
        with pytest.raises(ValueError):
            count_perfect_matchings(g, forced=(0,), forbidden=(0,))
        with pytest.raises(ValueError):
            count_perfect_matchings(g, forced=(0, 1))  # share a vertex
        with pytest.raises(ValueError):
            count_perfect_matchings(g, forced=(99,))


class TestOracleEquivalence:
    def test_unconstrained(self):
        rnd = random.Random(13)
        graphs = [k4(), k33(), prism(), petersen(), doubled_c4(), three_bond()]
        graphs += [random_bridgeless_cubic(8, rnd) for _ in range(5)]
        for g in graphs:
            assert count_perfect_matchings(g) == count_perfect_matchings_oracle(g)

    def test_constrained(self):
        rnd = random.Random(29)
        for g in (petersen(), prism(), doubled_c4()):
            m = len(g.edges)
            for _ in range(25):
                forced = set()
                used = set()
                for e in rnd.sample(range(m), 3):
                    u, v = g.edges[e]
                    if u not in used and v not in used and rnd.random() < 0.6:
                        forced.add(e)
                        used.update((u, v))
                forbidden = {
                    e for e in rnd.sample(range(m), 3) if e not in forced
                }
                assert count_perfect_matchings(g, forced, forbidden) == \
                    count_perfect_matchings_oracle(g, forced, forbidden)


class TestProfile:
    def test_petersen_profile(self):
        prof = matching_profile(petersen())
        assert prof.total == 6
        assert all(c == 2 for c in prof.per_edge.values())
        assert prof.matching_covered and prof.double_covered

    def test_k4_profile(self):
        prof = matching_profile(k4())
        assert prof.total == 3
        assert all(c == 1 for c in prof.per_edge.values())
        assert prof.matching_covered and not prof.double_covered

    def test_prism_profile(self):
        # rungs lie in two perfect matchings, triangle edges in one
        g = prism()
        prof = matching_profile(g)
        assert prof.total == 4
        rungs = {6, 7, 8}
        for e in range(9):
            assert prof.per_edge[e] == (2 if e in rungs else 1)

    def test_per_edge_sum_identity(self):
        rnd = random.Random(37)
        for g in [petersen(), prism(), k33()] + [random_bridgeless_cubic(8, rnd) for _ in range(5)]:
            prof = matching_profile(g)
            assert sum(prof.per_edge.values()) == (g.vertex_count // 2) * prof.total

    def test_kotzig_consequence(self):
        # bridgeless with at least one perfect matching never has exactly one
        rnd = random.Random(41)
        for _ in range(20):
            g = random_bridgeless_cubic(10, rnd)
            assert count_perfect_matchings(g) >= 2


class TestExistence:
    def test_k33_two_same_class_removed(self):
        g, _, _ = delete_vertices(k33(), [0, 1])
        cert = has_perfect_matching(g)
        assert not cert
        barrier = cert.barrier
        assert barrier is not None
        # validity: more odd components than barrier vertices
        assert barrier.odd_component_count > len(barrier.vertices)

    def test_petersen_forced_edge(self):
        for e in range(15):
            assert has_perfect_matching(petersen(), forced=(e,))

    def test_petersen_two_forbidden(self):
        rnd = random.Random(43)
        for _ in range(20):
            e, f = rnd.sample(range(15), 2)
            cert = has_perfect_matching(petersen(), forbidden=(e, f))
            assert cert
            assert e not in cert.matching and f not in cert.matching

    def test_witness_is_perfect_matching(self):
        rnd = random.Random(47)
        for _ in range(20):
            g = random_bridgeless_cubic(10, rnd)
            cert = has_perfect_matching(g)
            assert cert
            covered = sorted(v for e in cert.matching for v in g.edges[e])
            assert covered == list(range(10))

    def test_barrier_certifies_failure(self):
        rnd = random.Random(53)
        checked = 0
        for _ in range(200):
            n = 8
            edges = tuple(
                tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randrange(6, 14))
            )
            g = MultiGraph(n, edges)
            cert = has_perfect_matching(g)
            if not cert:
                checked += 1
                s = cert.barrier.vertices
                rest, _, _ = delete_vertices(g, s)
                comp_sizes = _component_sizes(rest)
                odd = sum(1 for c in comp_sizes if c % 2)
                assert odd == cert.barrier.odd_component_count
                assert odd > len(s)
        assert checked > 10


class TestMaximumMatchingEngine:
    def test_matching_number_vs_brute_force(self):
        # blossom maximum matching size equals the exhaustive maximum over
        # all edge subsets
        from itertools import combinations

        from cubicmatch.matching import _max_matching

        rnd = random.Random(71)
        for _ in range(60):
            n = rnd.randint(2, 8)
            edges = tuple(
                tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randrange(1, 11))
            )
            g = MultiGraph(n, edges)
            adj = [sorted(g.neighbors(v)) for v in range(n)]
            match = _max_matching(n, adj)
            nu = sum(1 for x in match if x != -1) // 2
            simple = sorted(set(g.edges))
            best = 0
            for size in range(len(simple), 0, -1):
                if size <= best:
                    break
                for subset in combinations(simple, size):
                    used = [v for e in subset for v in e]
                    if len(used) == len(set(used)):
                        best = size
                        break
            assert nu == best


def _component_sizes(g):
    seen = [False] * g.vertex_count
    sizes = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        size = 0
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            size += 1
            for _, u in g.incidence[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        sizes.append(size)
    return sizes


class TestEnumerate:
    def test_matches_count(self):
        rnd = random.Random(59)
        for g in [petersen(), prism(), doubled_c4()] + [random_bridgeless_cubic(8, rnd) for _ in range(5)]:
            pms = list(enumerate_perfect_matchings(g))
            assert len(pms) == count_perfect_matchings(g)
            assert len(set(pms)) == len(pms)
            for pm in pms:
                covered = sorted(v for e in pm for v in g.edges[e])
                assert covered == list(range(g.vertex_count))


class TestBoundaryProfile:
    def test_size3_identity_prism(self):
        g = prism()
        cut = make_cut(g, {0, 1, 2})
        bp = boundary_profile(g, cut)
        total = sum(bp.m_a[x] * bp.m_b[x] for x in bp.m_a)
        assert total == count_perfect_matchings(g)
        # odd parity: covering all of one triangle side is impossible
        assert bp.m_a[frozenset()] == 0

    def test_tight_cut_factorization(self):
        g = exceptional_graph()
        cut = make_cut(g, {0, 6, 7})
        bp = boundary_profile(g, cut)
        full = frozenset(range(3))
        assert bp.m_a[full] * bp.m_b[full] == 0
        singles = sum(bp.m_a[frozenset({i})] * bp.m_b[frozenset({i})] for i in range(3))
        assert singles == count_perfect_matchings(g)

    def test_star_cut_identity(self):
        g = petersen()
        cut = make_cut(g, {0})
        bp = boundary_profile(g, cut)
        total = sum(bp.m_a[x] * bp.m_b[x] for x in bp.m_a)
        assert total == 6

    def test_size4_completion_identity(self):
        g = cube()
        cut = make_cut(g, {0, 1, 2, 3})
        bp = boundary_profile(g, cut)
        i, j = 0, 1
        k, l = 2, 3
        completion = four_cut_completion_vertices(g, cut.flipped(), (i, j))
        expected = (
            bp.m_b[frozenset({i, k})] + bp.m_b[frozenset({i, l})]
            + bp.m_b[frozenset({j, k})] + bp.m_b[frozenset({j, l})]
            + bp.m_b[frozenset()]
        )
        assert count_perfect_matchings(completion) == expected

    def test_oversized_cut_rejected(self):
        g = petersen()
        side = {0, 1, 2, 3, 4}
        cut = make_cut(g, side)
        assert cut.size == 5
        with pytest.raises(ValueError):
            boundary_profile(g, cut)


class TestAvoiding:
    def test_named_values(self):
        assert count_avoiding(petersen(), 3) == 4
        assert count_avoiding(k4(), 0) == 2

    def test_matches_forbidden_count(self):
        g = exceptional_graph()
        for e in range(len(g.edges)):
            assert count_avoiding(g, e) == count_perfect_matchings(g, forbidden=(e,))
