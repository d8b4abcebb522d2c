import random

import pytest

from cubicmatch import matching
from cubicmatch.matching import (
    boundary_profile,
    count_perfect_matchings,
    count_perfect_matchings_oracle,
    enumerate_perfect_matchings,
    matching_profile,
)
from cubicmatch.multigraph import (
    MultiGraph,
    four_cut_completion_vertices,
    induced_subgraph,
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
from oracles import _max_matching, has_perfect_matching


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

    @pytest.mark.parametrize("index", [1.5, 1.0, True, False, "1", None])
    @pytest.mark.parametrize("role", ["forced", "forbidden"])
    def test_edge_index_must_be_an_int(self, index, role):
        # a float used to pass the range check and match no edge, and a
        # bool used to stand for edge 0 or 1
        g = petersen()
        calls = [
            count_perfect_matchings,
            count_perfect_matchings_oracle,
            matching_profile,
            has_perfect_matching,
            lambda g, **kw: list(enumerate_perfect_matchings(g, **kw)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="edge index must be an int"):
                call(g, **{role: [index]})


class TestOracleEquivalence:
    def test_unconstrained(self):
        rnd = random.Random(13)
        graphs = [k4(), k33(), prism(), petersen(), doubled_c4(), three_bond()]
        graphs += [random_bridgeless_cubic(8, rnd) for _ in range(5)]
        for g in graphs:
            assert count_perfect_matchings(g) == count_perfect_matchings_oracle(g)

    def test_oracle_refuses_more_than_512_edges(self):
        # the subset walk recurses once per edge: on a ring of 700 vertices
        # plus its 350 diameters, 1,050 edges, it would overflow the stack
        ring = tuple((i, (i + 1) % 700) for i in range(700))
        g = MultiGraph(700, ring + tuple((i, i + 350) for i in range(350)))
        with pytest.raises(
            ValueError, match="count_perfect_matchings_oracle walks at most 512 edges, got 1050"
        ):
            count_perfect_matchings_oracle(g)

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

    def test_covered_rule_agrees_with_edge_deletion(self, catalogs):
        # one covering rule: forbidding edge e reads as deleting it, for
        # every edge of every catalog graph with n <= 8 and Petersen
        cases = [(g, e) for n in range(2, 9, 2) for g in catalogs(n) for e in range(len(g.edges))]
        cases.append((petersen(), 0))
        readings = set()
        for g, e in cases:
            less = MultiGraph(g.vertex_count, g.edges[:e] + g.edges[e + 1:])
            forbidden = matching_profile(g, forbidden=(e,))
            covered = matching.is_matching_covered(less)
            assert forbidden.matching_covered == covered == matching_profile(less).matching_covered
            assert forbidden.double_covered == matching_profile(less).double_covered
            readings.add(covered)
        assert readings == {False, True}
        # the profile used to say False here, is_matching_covered True
        assert matching_profile(petersen(), forbidden=(0,)).matching_covered

    def test_order_zero_graph_is_not_matching_covered(self):
        # no edge is left to cover
        empty = MultiGraph(0, ())
        assert not matching_profile(empty).matching_covered
        assert not matching_profile(empty).double_covered
        assert not matching.is_matching_covered(empty)

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
        # two vertices of one colour class leave one facing three: the
        # kernel counts 0 exactly when blossom finds no perfect matching
        g, _, _ = induced_subgraph(k33(), range(2, 6))
        assert has_perfect_matching(g) is None
        assert count_perfect_matchings(g) == 0

    def test_petersen_forced_edge(self):
        for e in range(15):
            assert has_perfect_matching(petersen(), forced=(e,))

    def test_petersen_two_forbidden(self):
        rnd = random.Random(43)
        for _ in range(20):
            e, f = rnd.sample(range(15), 2)
            found = has_perfect_matching(petersen(), forbidden=(e, f))
            assert found
            assert e not in found and f not in found

    def test_witness_is_perfect_matching(self):
        rnd = random.Random(47)
        for _ in range(20):
            g = random_bridgeless_cubic(10, rnd)
            found = has_perfect_matching(g)
            assert found
            covered = sorted(v for e in found for v in g.edges[e])
            assert covered == list(range(10))

    def test_barrier_certifies_failure(self):
        # on seeded multigraphs, the kernel counts 0 exactly when blossom
        # finds no perfect matching, and a matching blossom finds is one
        rnd = random.Random(53)
        checked = 0
        for _ in range(200):
            n = 8
            edges = tuple(
                tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randrange(6, 14))
            )
            g = MultiGraph(n, edges)
            found = has_perfect_matching(g)
            assert (count_perfect_matchings(g) == 0) == (found is None)
            if found is None:
                checked += 1
            else:
                assert sorted(v for e in found for v in g.edges[e]) == list(range(n))
        assert checked > 10


class TestMaximumMatchingEngine:
    def test_matching_number_vs_brute_force(self):
        # blossom maximum matching size equals the exhaustive maximum over
        # all edge subsets
        from itertools import combinations

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
    # matchings avoiding one edge: the kernel with that edge forbidden
    def test_named_values(self):
        assert count_perfect_matchings(petersen(), forbidden=(3,)) == 4
        assert count_perfect_matchings(k4(), forbidden=(0,)) == 2

    def test_matches_forbidden_count(self):
        g = exceptional_graph()
        for e in range(len(g.edges)):
            expected = count_perfect_matchings_oracle(g, forbidden=(e,))
            assert count_perfect_matchings(g, forbidden=(e,)) == expected

    @pytest.mark.parametrize("e", [1.5, 1.0, True, -1, 15])
    def test_bad_edge_rejected(self, e):
        # 1.5 used to return the unconstrained count 6
        with pytest.raises(ValueError, match="edge index"):
            count_perfect_matchings(petersen(), forbidden=(e,))
