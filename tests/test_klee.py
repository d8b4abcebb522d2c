import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from cubicmatch import klee
from cubicmatch.connectivity import enumerate_cuts, is_cyclic_cut
from cubicmatch.klee import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    DANGEROUS,
    GOOD,
    _classify,
    enumerate_klee,
    expand_and_check,
    is_klee,
    klee_stats,
    vertex_type,
)
from cubicmatch.matching import _Kernel, _vertex_mask, count_perfect_matchings
from cubicmatch.multigraph import (
    MultiGraph,
    _contract_parts,
    canonical_form,
    contract,
    induced_subgraph,
    make_cut,
    replace_vertex_with_triangle,
)
from conftest import count_kernels, mask_reference_graphs
from oracles import NiceCutResult, core, glue, is_nice_cut, triangles
from test_brick_brace import profile_tight
from test_public_surface import BRIDGED, PATH, TWO_K4
from cubicmatch.named_graphs import (
    doubled_c4,
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)


def reference_contractible_triangles(g):
    """The former candidate list: triangles whose three outgoing edges
    lead to three distinct vertices."""
    out = []
    for tri in triangles(g):
        tset = set(tri)
        targets = []
        for u, v in g.edges:
            if (u in tset) != (v in tset):
                targets.append(v if u in tset else u)
        if len(targets) == 3 and len(set(targets)) == 3:
            out.append(tri)
    return out


def reference_klee_steps(g):
    """(verdict, contractions) from the former recognition, which built the
    graph after every triangle contraction."""
    steps = []
    cur = g
    while True:
        if cur.vertex_count == 4 and cur.is_simple():
            return True, tuple(steps)
        if cur.vertex_count <= 4:
            return False, tuple(steps)
        candidates = reference_contractible_triangles(cur)
        if not candidates:
            return False, tuple(steps)
        steps.append(candidates[0])
        cur, _, _ = _contract_parts(cur, [frozenset(candidates[0])])


def reference_vertex_type(g, v):
    """(omega, mu) from the former per-vertex kernel: mu[i] counts the
    perfect matchings of g less v and its i-th neighbour."""
    nbrs = [u for _, u in g.incidence[v]]
    kernel = _Kernel(g)
    omega = kernel.count(_vertex_mask([v] + nbrs))
    return omega, tuple(kernel.count((1 << v) | (1 << u)) for u in nbrs)


def reference_nice_oriented(g, cut):
    """The former nice-cut clauses with cut.side_a in the 'A' role:
    tightness by the boundary profile, clause iv by a forced count."""
    g_over_a, _ = contract(g, [cut.side_a])
    if not g_over_a.is_connected() or is_klee(g_over_a):
        return None
    g_over_b, _ = contract(g, [cut.side_b])
    if g_over_b.is_connected() and not is_klee(g_over_b):
        return "i"
    a = len(cut.side_a)
    if a >= 9:
        return "ii"
    if a >= 5 and not profile_tight(g, cut):
        return "iii"
    if a == 3:
        endpoints = [v for e in cut.cut_edges for v in g.edges[e]]
        if len(set(endpoints)) == 6:
            if count_perfect_matchings(g, forced=cut.cut_edges) >= 2:
                return "iv"
    return None


def connected_cubic_with_bridges(rnd, count):
    """Seeded connected cubic multigraphs by stub pairing, bridges allowed."""
    graphs = []
    while len(graphs) < count:
        n = rnd.randrange(6, 17, 2)
        stubs = [v for v in range(n) for _ in range(3)]
        rnd.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in pairs):
            g = MultiGraph(n, tuple(pairs))
            if g.is_connected():
                graphs.append(g)
    return graphs


class TestTriangles:
    def test_matches_pairwise_adjacency(self, catalogs):
        rnd = random.Random(97)
        graphs = [g for n in (2, 4, 6, 8, 10) for g in catalogs(n)]
        for _ in range(30):
            n = rnd.randint(3, 9)
            pairs = [tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(n, 3 * n))]
            graphs.append(MultiGraph(n, tuple(pairs)))
        for g in graphs:
            expected = [
                (a, b, c)
                for a, b, c in combinations(range(g.vertex_count), 3)
                if g.multiplicity(a, b) and g.multiplicity(b, c) and g.multiplicity(a, c)
            ]
            assert triangles(g) == expected


class TestIsKlee:
    def test_base_cases(self):
        assert is_klee(k4())
        assert is_klee(prism())
        assert not is_klee(petersen())
        assert not is_klee(k33())
        assert not is_klee(three_bond())
        assert not is_klee(doubled_c4())
        assert not is_klee(exceptional_graph())

    def test_certificate_length(self):
        g = prism()
        for _ in range(3):
            g = replace_vertex_with_triangle(g, 0)
        res = is_klee(g)
        assert res and len(res.contractions) == (g.vertex_count - 4) // 2

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            is_klee(MultiGraph(2, [(0, 1)]))

    def test_agrees_with_enumeration(self, catalogs):
        # recognition by contraction matches membership in the inductive
        # enumeration, over all simple catalog graphs; this also guards the
        # contract-any-triangle-first order against non-confluence
        for n in (4, 6, 8, 10, 12):
            klee_forms = {canonical_form(g) for g in enumerate_klee(n)}
            for g in catalogs(n):
                if not g.is_simple():
                    assert not is_klee(g)
                    continue
                assert bool(is_klee(g)) == (canonical_form(g) in klee_forms)


class TestRegionRecognition:
    """Recognition on regions of the input against the former graph-building
    recognition: same verdict and same contraction certificate."""

    def test_matches_sequential_contraction(self, catalogs):
        graphs = mask_reference_graphs(catalogs) + list(enumerate_klee(12))
        graphs += connected_cubic_with_bridges(random.Random(31), 300)
        steps = klee_count = 0
        for g in graphs:
            res = is_klee(g)
            assert (res.is_klee, res.contractions) == reference_klee_steps(g)
            steps += len(res.contractions)
            klee_count += res.is_klee
        assert klee_count > 80 and steps > 1000


class TestCore:
    def test_prism_core_is_three_bond(self):
        assert canonical_form(core(prism())) == canonical_form(three_bond())

    def test_triangle_free_unchanged(self):
        assert canonical_form(core(petersen())) == canonical_form(petersen())

    def test_exceptional_core_is_k33(self):
        assert canonical_form(core(exceptional_graph())) == canonical_form(k33())

    def test_k4_overlapping_triangles_rejected(self):
        with pytest.raises(ValueError):
            core(k4())

    @pytest.mark.parametrize(
        "g, lacks", [(PATH, "cubic"), (TWO_K4, "connected"), (BRIDGED, "bridgeless")]
    )
    def test_refuses_what_it_is_not_defined_on(self, g, lacks):
        # the path used to come back unchanged, and the bridged graph as
        # two vertices joined by one edge
        with pytest.raises(ValueError, match=f"^core requires a {lacks} graph$"):
            core(g)

    def test_cyclic_cut_without_triangle_rejected(self):
        # gluing two Petersens produces cyclic 3-cuts separating big sides
        g = glue(petersen(), 0, petersen(), 0)
        with pytest.raises(ValueError):
            core(g)


class TestThreeCutSides:
    def test_sides_are_connected_and_nontrivial_sides_cyclic(self, catalogs):
        # why `core` reads no cyclic test and `_nice_oriented` no
        # connectivity test: in a connected bridgeless cubic graph a
        # component of a side of a 3-cut needs two of its edges, and a side
        # of |S| >= 3 vertices spans (3|S| - 3)/2 >= |S| edges
        graphs = [g for n in range(2, 13, 2) for g in catalogs(n)]
        graphs += [g for n in range(4, 15, 2) for g in enumerate_klee(n)]
        cuts = Counter()
        for g in graphs:
            for cut in enumerate_cuts(g, 3):
                if cut.size != 3:
                    continue
                for side in (cut.side_a, cut.side_b):
                    assert induced_subgraph(g, side)[0].is_connected()
                    assert _contract_parts(g, [side])[0].is_connected()
                nontrivial = min(len(cut.side_a), len(cut.side_b)) >= 3
                if nontrivial:
                    assert is_cyclic_cut(g, cut)
                cuts[nontrivial] += 1
        assert len(graphs) == 492
        assert cuts[True] == 3189 and cuts[False]


class TestVertexTypes:
    def test_k4_types(self):
        t = vertex_type(k4(), 0)
        assert (t.omega, t.mu) == (1, (1, 1, 1))
        assert t.vertex_class == DANGEROUS

    def test_prism_types(self):
        t = vertex_type(prism(), 0)
        assert t.omega == 1 and sorted(t.mu) == [1, 1, 2]
        assert t.vertex_class == DANGEROUS

    def test_repeated_neighbors_rejected(self):
        with pytest.raises(ValueError):
            vertex_type(three_bond(), 0)

    @pytest.mark.parametrize("v", [-1, 4, 0.0, True])
    def test_vertex_must_be_a_vertex_id(self, v):
        # -1 used to raise "negative shift count" and 4 an IndexError
        with pytest.raises(ValueError, match="is not a vertex of a graph of order 4"):
            vertex_type(k4(), v)
        with pytest.raises(ValueError, match="is not a vertex of a graph of order 4"):
            expand_and_check(k4(), v)

    def test_classification_is_partition(self):
        # classes partition all type tuples seen across the enumeration
        seen = set()
        for n in (4, 6, 8, 10, 12):
            for g in enumerate_klee(n):
                for v in range(n):
                    t = vertex_type(g, v)
                    seen.add((t.omega, t.mu, t.vertex_class))
        for omega, mu, cls in seen:
            ones = (omega == 1) + sum(1 for x in mu if x == 1)
            if ones >= 3:
                assert cls == DANGEROUS
            elif omega == 1 and sum(1 for x in mu if x == 1) == 1:
                assert cls == CLASS_A
            elif omega == 1:
                assert cls == CLASS_B
            elif sum(1 for x in mu if x == 1) == 2:
                assert cls == CLASS_C
            else:
                assert cls == GOOD

    def test_no_dangerous_vertex_at_order_twelve_or_more(self):
        for n in (12, 14):
            for g in enumerate_klee(n):
                for v in range(n):
                    assert vertex_type(g, v).vertex_class != DANGEROUS

    def test_c_vertices_large_orders(self):
        # every C-vertex in klee-graphs of order >= 12 has two counts >= 5
        for n in (12, 14):
            for g in enumerate_klee(n):
                for v in range(n):
                    t = vertex_type(g, v)
                    if t.vertex_class == CLASS_C:
                        big = sorted([t.omega] + list(t.mu), reverse=True)[:2]
                        assert all(x >= 5 for x in big)


class TestExpansion:
    def test_k4_expansion(self):
        expanded, report = expand_and_check(k4(), 0)
        assert report.count_before == 3 and report.count_after == 4
        assert report.ok
        assert canonical_form(expanded) == canonical_form(prism())

    def test_prism_expansion(self):
        _, report = expand_and_check(prism(), 2)
        assert report.count_after == 5 and report.ok

    def test_recurrence_on_petersen_vertices(self):
        # the recurrence m(G triangle v) = m(G) + omega is not klee-specific
        _, report = expand_and_check(petersen(), 4)
        assert report.ok

    def test_type_monotonicity_under_expansion(self):
        # counts of other vertices never decrease when a vertex is expanded
        rnd = random.Random(83)
        for g in list(enumerate_klee(8)) + list(enumerate_klee(10)):
            v = rnd.randrange(g.vertex_count)
            before = {
                u: vertex_type(g, u) for u in range(g.vertex_count) if u != v
            }
            expanded = replace_vertex_with_triangle(g, v)
            for u, old in before.items():
                new = vertex_type(expanded, u)
                assert new.omega >= old.omega
                assert all(a >= b for a, b in zip(sorted(new.mu), sorted(old.mu)))

    def test_dangerous_only_from_dangerous(self):
        # a vertex dangerous after expansion was dangerous before
        for n in (4, 6, 8, 10, 12):
            for g in enumerate_klee(n):
                for v in range(g.vertex_count):
                    expanded = replace_vertex_with_triangle(g, v)
                    for u in range(g.vertex_count):
                        if u == v:
                            continue
                        if vertex_type(expanded, u).vertex_class == DANGEROUS:
                            assert vertex_type(g, u).vertex_class == DANGEROUS


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_klee(4)) == 1
        assert len(enumerate_klee(6)) == 1
        assert len(enumerate_klee(8)) == 1
        assert len(enumerate_klee(10)) == 3

    def test_ten_vertex_matching_multiset(self):
        counts = sorted(count_perfect_matchings(g) for g in enumerate_klee(10))
        assert counts == [6, 6, 7]

    def test_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_klee(5)
        with pytest.raises(ValueError):
            enumerate_klee(18)

    @pytest.mark.parametrize("n", [6.0, True, "6"])
    def test_non_int_order_rejected(self, monkeypatch, n):
        # 6.0 used to be cached under its own key beside 6
        cache = {}
        monkeypatch.setattr(klee, "_KLEE_CACHE", cache)
        with pytest.raises(ValueError, match="klee order must be an int"):
            enumerate_klee(n)
        assert cache == {}

    def test_unique_twelve_class_outside_expansions(self):
        # exactly one 12-vertex class is not an expansion of the two
        # 10-vertex classes with 6 matchings each
        tens = [g for g in enumerate_klee(10) if count_perfect_matchings(g) == 6]
        assert len(tens) == 2
        reachable = set()
        for g in tens:
            for v in range(10):
                reachable.add(canonical_form(replace_vertex_with_triangle(g, v)))
        all_twelve = {canonical_form(g) for g in enumerate_klee(12)}
        assert len(all_twelve - reachable) == 1


class TestKleeStats:
    def test_k4(self):
        s = klee_stats(k4())
        assert (s.matchings, s.alpha, s.beta) == (3, 0, 0)
        assert s.potential == 3

    def test_ten_vertex_potentials(self):
        stats = sorted(
            (s.matchings, s.alpha, s.beta, s.potential)
            for s in map(klee_stats, enumerate_klee(10))
        )
        triples = [(m, a, b) for m, a, b, _ in stats]
        assert (6, 0, 3) in triples  # potential 4.5
        assert (6, 2, 2) in triples  # potential 3
        potentials = {t[:3]: t[3] for t in stats}
        assert potentials[(6, 0, 3)] == Fraction(9, 2)
        assert potentials[(6, 2, 2)] == 3

    def test_twelve_vertex_special_class(self):
        stats = [klee_stats(g) for g in enumerate_klee(12)]
        assert any(
            (s.matchings, s.alpha, s.beta) == (10, 4, 6) and s.potential == 3
            for s in stats
        )

    def test_potential_bound(self):
        # M(G) >= 3n/4 - 6 for all enumerated klee-graphs of order >= 10,
        # except exactly one 10-vertex class (the one with 7 matchings)
        for n in (10, 12, 14):
            failures = []
            for g in enumerate_klee(n):
                s = klee_stats(g)
                if s.potential < Fraction(3 * n, 4) - 6:
                    failures.append(s)
            if n == 10:
                assert len(failures) == 1 and failures[0].matchings == 7
            else:
                assert not failures

    def test_not_klee_rejected(self):
        with pytest.raises(ValueError):
            klee_stats(petersen())

    def test_disconnected_refused_under_its_own_name(self):
        # it used to say "is_klee requires a connected graph"
        with pytest.raises(ValueError, match="^klee_stats requires a connected graph$"):
            klee_stats(TWO_K4)

    def test_one_kernel_per_graph(self, monkeypatch):
        # every vertex type is read from one kernel on the graph, with the
        # values of a kernel per vertex
        graphs = enumerate_klee(12)
        expected = []
        for g in graphs:
            classes = [_classify(*reference_vertex_type(g, v)) for v in range(12)]
            expected.append((count_perfect_matchings(g), classes.count(CLASS_A),
                             classes.count(CLASS_B)))
        built = count_kernels(monkeypatch)
        for g, stats in zip(graphs, expected):
            built.clear()
            s = klee_stats(g)
            assert (s.matchings, s.alpha, s.beta) == stats
            assert len(built) == 1 and built[0] is g
            built.clear()
            expanded, report = expand_and_check(g, 0)
            assert report.ok
            assert len(built) == 2 and built[0] is g and built[1] is expanded
        assert any(alpha for _, alpha, _ in expected)
        assert any(beta for _, _, beta in expected)


class TestNiceCuts:
    def test_exceptional_triangle_cut_not_nice(self):
        g = exceptional_graph()
        res = is_nice_cut(g, make_cut(g, {0, 6, 7}))
        assert not res and res.clause is None

    def test_glued_petersens_nice_via_clause_i(self):
        g = glue(petersen(), 0, petersen(), 0)
        side = set(range(9))  # the first Petersen remnant
        res = is_nice_cut(g, make_cut(g, side))
        assert res and res.clause == "i"

    def test_wrong_size_rejected(self):
        g = petersen()
        with pytest.raises(ValueError):
            is_nice_cut(g, make_cut(g, {0, 1}))

    def test_disconnected_refused_under_its_own_name(self):
        # it used to say "contraction part [1, 2, 3, 4, 5, 6, 7] is not connected"
        with pytest.raises(ValueError, match="^is_nice_cut requires a connected graph$"):
            is_nice_cut(TWO_K4, make_cut(TWO_K4, {0}))

    def test_bridged_refused_under_its_own_name(self):
        # across the bridge (3, 7) the side {1, 4, 5, 6, 7} of this 3-cut is
        # disconnected; it used to say "contraction part [1, 4, 5, 6, 7] is
        # not connected"
        g = MultiGraph(8, [(0, 3), (0, 6), (2, 3), (4, 7), (4, 5), (1, 6),
                               (3, 7), (0, 2), (1, 2), (1, 6), (4, 5), (5, 7)])
        with pytest.raises(ValueError, match="^is_nice_cut requires a bridgeless graph$"):
            is_nice_cut(g, make_cut(g, {0, 2, 3}))

    def test_matches_former_clauses(self, catalogs):
        # the clauses read off the per-edge table against the former
        # boundary profile and forced count, on every nontrivial 3-cut
        graphs = [g for n in range(2, 11, 2) for g in catalogs(n)] + list(enumerate_klee(12))
        fired = Counter()
        for g in graphs:
            for cut in enumerate_cuts(g, 3, nontrivial_only=True):
                if cut.size != 3:
                    continue
                expected = NiceCutResult(False, None, None)
                for role, oriented in (("side_a", cut), ("side_b", cut.flipped())):
                    clause = reference_nice_oriented(g, oriented)
                    if clause is not None:
                        expected = NiceCutResult(True, clause, role)
                        break
                assert is_nice_cut(g, cut) == expected
                fired[expected.clause] += 1
        assert fired["iii"] and fired["iv"]

    def test_klee_side_of_order_at_most_8_tight_not_nice(self):
        # tight cut with a small klee side fails every clause
        g = exceptional_graph()
        for cut in (make_cut(g, {0, 6, 7}), make_cut(g, {1, 8, 9}), make_cut(g, {2, 10, 11})):
            assert not is_nice_cut(g, cut)
