import pickle
import random
from itertools import combinations, permutations

import pytest

from cubicmatch.connectivity import (
    NO_CYCLIC_CUT,
    _connected_side_masks,
    _cut_space,
    _has_cycle,
    bridges,
    connectivity_report,
    cyclic_edge_connectivity,
    cyclically_edge_connected_at_least,
    edge_connectivity,
    enumerate_cuts,
    is_cyclic_cut,
    vertex_connectivity_at_most,
)
from cubicmatch.multigraph import MultiGraph, from_edge_list, induced_subgraph, make_cut
from cubicmatch.named_graphs import (
    doubled_c4,
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from conftest import random_bridgeless_cubic


def bridged_gadget():
    # two bigon-triangle gadgets joined by a single edge
    return from_edge_list(
        6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 5)]
    )


def cyclic_connectivity_oracle(g):
    """Direct enumeration over all 2^(n-1) bipartitions."""
    n = g.vertex_count
    best = None
    for bits in range(1, 1 << (n - 1)):
        side = {0} | {v for v in range(1, n) if (bits >> (v - 1)) & 1}
        if len(side) == n:
            continue
        cut = make_cut(g, side)
        if is_cyclic_cut(g, cut) and (best is None or cut.size < best):
            best = cut.size
    return NO_CYCLIC_CUT if best is None else best


def edge_connectivity_oracle(g):
    """Minimum cut size over all bipartitions; 0 when disconnected."""
    n = g.vertex_count
    return min(
        make_cut(g, {0} | {v for v in range(1, n) if (bits >> (v - 1)) & 1}).size
        for bits in range((1 << (n - 1)) - 1)
    )


def connected_sides_oracle(g):
    """(mask, cut size) of every non-empty proper vertex subset that induces
    a connected subgraph, by a scan over all subsets."""
    n = g.vertex_count
    out = []
    for mask in range(1, (1 << n) - 1):
        side = [v for v in range(n) if (mask >> v) & 1]
        if induced_subgraph(g, side)[0].is_connected():
            out.append((mask, make_cut(g, side).size))
    return out


def random_multigraph(n, rnd, min_degree=0):
    """Random loopless multigraph on n vertices, degrees and connectivity
    unconstrained beyond min_degree."""
    while True:
        pairs = [tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(n, 3 * n))]
        g = MultiGraph(n, tuple(pairs))
        if min(g.degrees()) >= min_degree:
            return g


class TestBridges:
    def test_k4_none(self):
        assert bridges(k4()) == []

    def test_single_joining_edge(self):
        g = bridged_gadget()
        assert bridges(g) == [4]
        assert g.edges[4] == (2, 3)

    def test_petersen_none(self):
        assert bridges(petersen()) == []

    def test_parallel_edges_never_bridges(self):
        g = from_edge_list(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
        assert bridges(g) == [2]


class TestCyclicCuts:
    def test_vertex_star_not_cyclic(self):
        g = petersen()
        assert not is_cyclic_cut(g, make_cut(g, {0}))

    def test_prism_triangle_cut_cyclic(self):
        g = prism()
        assert is_cyclic_cut(g, make_cut(g, {0, 1, 2}))

    def test_bigon_counts_as_cycle(self):
        g = doubled_c4()
        assert is_cyclic_cut(g, make_cut(g, {0, 1}))

    def test_min_degree_three_observation(self):
        # in a min-degree-3 graph, a k-cut with both sides >= k-1 vertices
        # is cyclic
        rnd = random.Random(23)
        for _ in range(20):
            g = random_bridgeless_cubic(10, rnd)
            for _ in range(20):
                side = rnd.sample(range(10), rnd.randrange(2, 9))
                cut = make_cut(g, side)
                k = cut.size
                if len(cut.side_a) >= k - 1 and len(cut.side_b) >= k - 1:
                    assert is_cyclic_cut(g, cut)


class TestCyclicEdgeConnectivity:
    def test_named_values(self):
        assert cyclic_edge_connectivity(petersen()) == 5
        assert cyclic_edge_connectivity(prism()) == 3
        assert cyclic_edge_connectivity(k4()) is NO_CYCLIC_CUT
        assert cyclic_edge_connectivity(k33()) is NO_CYCLIC_CUT
        assert cyclic_edge_connectivity(three_bond()) is NO_CYCLIC_CUT
        assert cyclic_edge_connectivity(exceptional_graph()) == 3

    def test_sentinel_treated_as_large(self):
        assert cyclically_edge_connected_at_least(k4(), 5)
        assert not cyclically_edge_connected_at_least(prism(), 4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cyclic_edge_connectivity(from_edge_list(3, [(0, 1), (1, 2)]))

    def test_agrees_with_bipartition_oracle(self):
        rnd = random.Random(31)
        graphs = [k4(), prism(), petersen(), doubled_c4(), k33()]
        graphs += [random_bridgeless_cubic(8, rnd) for _ in range(10)]
        graphs += [random_bridgeless_cubic(10, rnd) for _ in range(10)]
        # degrees other than three; the sides' cycle test reads degree sums
        graphs += [
            g for g in (random_multigraph(8, rnd, min_degree=3) for _ in range(10))
            if g.is_connected()
        ]
        for g in graphs:
            assert cyclic_edge_connectivity(g) == cyclic_connectivity_oracle(g)


class TestEnumerateCuts:
    def test_k4_single_vertex_cuts_only(self):
        cuts = enumerate_cuts(k4(), 3)
        assert len(cuts) == 4
        assert all(c.size == 3 for c in cuts)
        assert all(min(len(c.side_a), len(c.side_b)) == 1 for c in cuts)

    def test_petersen_no_nontrivial_small_cuts(self):
        assert enumerate_cuts(petersen(), 3, nontrivial_only=True) == []

    def test_exceptional_triangle_cuts(self):
        g = exceptional_graph()
        cuts = enumerate_cuts(g, 3, nontrivial_only=True)
        triangle_sides = [
            c for c in cuts
            if min(len(c.side_a), len(c.side_b)) == 3 and c.size == 3
        ]
        assert len(triangle_sides) == 3

    def test_one_representative_per_bipartition(self):
        for g in (k4(), prism(), petersen()):
            cuts = enumerate_cuts(g, 4)
            seen = set()
            for c in cuts:
                key = frozenset((c.side_a, c.side_b))
                assert key not in seen
                seen.add(key)
                assert 0 in c.side_a

    def test_matches_bipartition_scan(self):
        # no cut of size <= 4 is missed, including disconnected sides
        rnd = random.Random(7)
        for g in [prism(), doubled_c4()] + [random_bridgeless_cubic(8, rnd) for _ in range(8)]:
            n = g.vertex_count
            expected = set()
            for bits in range(1 << (n - 1)):
                side = frozenset({0} | {v for v in range(1, n) if (bits >> (v - 1)) & 1})
                if len(side) == n:
                    continue
                cut = make_cut(g, side)
                if cut.size <= 4:
                    expected.add(side)
            got = {c.side_a for c in enumerate_cuts(g, 4)}
            assert got == expected

    def test_unions_match_bipartition_scan(self):
        # bridges, 2-edge cuts, low degrees and a second component make
        # unions of connected sides fit under the bound
        graphs = graphs_with_small_cuts(random.Random(89))
        assert any(bridges(g) for g in graphs)
        assert any(not g.is_connected() for g in graphs)
        assert any(edge_connectivity(g) == 2 for g in graphs)
        for g in graphs:
            for k in range(1, 6):
                for nontrivial_only in (False, True):
                    expected = cuts_by_bipartition_scan(g, k, nontrivial_only)
                    assert enumerate_cuts(g, k, nontrivial_only) == expected


def cuts_by_bipartition_scan(g, k, nontrivial_only):
    """Every cut of size <= k from all 2^(n-1) bipartitions, side_a holding
    vertex 0, in enumerate_cuts' order."""
    n = g.vertex_count
    cuts = []
    for bits in range((1 << (n - 1)) - 1):
        cut = make_cut(g, {0} | {v for v in range(1, n) if (bits >> (v - 1)) & 1})
        if cut.size <= k and (
            not nontrivial_only or min(len(cut.side_a), len(cut.side_b)) >= 3
        ):
            cuts.append(cut)
    return sorted(cuts, key=lambda c: (c.size, len(c.side_a), tuple(sorted(c.side_a))))


def graphs_with_small_cuts(rnd):
    """Seeded multigraphs of order <= 9 whose small cuts have disconnected
    sides: two random blocks joined by one edge (a bridge), by two edges,
    or not at all, and random multigraphs of any degrees."""

    def block(n):
        while True:
            pairs = [tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(n, 2 * n))]
            g = MultiGraph(n, tuple(pairs))
            if g.is_connected():
                return g

    graphs = []
    for joins in (1, 2, 0):
        for _ in range(3):
            a, b = block(rnd.randint(2, 4)), block(rnd.randint(2, 5))
            na = a.vertex_count
            links = [
                (rnd.randrange(na), na + rnd.randrange(b.vertex_count)) for _ in range(joins)
            ]
            shifted = [(u + na, v + na) for u, v in b.edges]
            graphs.append(MultiGraph(na + b.vertex_count, a.edges + tuple(shifted + links)))
    graphs += [random_multigraph(rnd.randint(5, 9), rnd) for _ in range(6)]
    return graphs


class TestVertexConnectivity:
    def test_k4(self):
        assert not vertex_connectivity_at_most(k4(), 2)

    def test_petersen(self):
        assert not vertex_connectivity_at_most(petersen(), 2)

    def test_witness(self):
        g = bridged_gadget()
        w = vertex_connectivity_at_most(g, 1)
        assert w and w.vertices in ({2}, {3})

    def test_k_above_three_rejected(self):
        with pytest.raises(ValueError):
            vertex_connectivity_at_most(k4(), 4)


class TestReport:
    def test_petersen_report(self):
        rep = connectivity_report(petersen())
        assert rep.connected and rep.bridge_count == 0
        assert rep.edge_connectivity == 3
        assert rep.vertex_connectivity == 3
        assert rep.cyclic_edge_connectivity == 5

    def test_edge_connectivity_le_min_degree(self):
        rnd = random.Random(41)
        for _ in range(10):
            g = random_bridgeless_cubic(8, rnd)
            assert edge_connectivity(g) <= 3


class TestCutCensus:
    @staticmethod
    def graphs(catalogs):
        rnd = random.Random(43)
        graphs = [g for n in (2, 4, 6, 8) for g in catalogs(n)]
        graphs += [random_bridgeless_cubic(10, rnd) for _ in range(4)]
        graphs += [random_multigraph(10, rnd) for _ in range(4)]
        return graphs

    def test_walk_matches_subset_scan(self, catalogs):
        for g in self.graphs(catalogs):
            walked = list(_connected_side_masks(g))
            assert len(walked) == len(set(walked))
            assert sorted(walked) == connected_sides_oracle(g)

    def test_edge_connectivity_matches_bipartition_scan(self, catalogs):
        for g in self.graphs(catalogs):
            assert edge_connectivity(g) == edge_connectivity_oracle(g)

    def test_answers_independent_of_query_order(self):
        queries = {
            "edge": edge_connectivity,
            "cyclic": cyclic_edge_connectivity,
            "cuts3": lambda h: enumerate_cuts(h, 3, nontrivial_only=True),
            "cuts4": lambda h: enumerate_cuts(h, 4),
        }
        rnd = random.Random(47)
        for g in [k4(), three_bond(), exceptional_graph(), random_bridgeless_cubic(10, rnd)]:
            expected = None
            for order in permutations(queries):
                h = MultiGraph(g.vertex_count, g.edges)
                got = {name: queries[name](h) for name in order}
                expected = expected or got
                assert got == expected
            # sizes above the kept cuts are matched afresh; both must agree
            assert [c for c in enumerate_cuts(g, 5) if c.size <= 4] == expected["cuts4"]

    def test_sentinel_survives_pickling(self):
        assert pickle.loads(pickle.dumps(NO_CYCLIC_CUT)) is NO_CYCLIC_CUT
        g = k4()
        assert cyclic_edge_connectivity(g) is NO_CYCLIC_CUT
        # the census rides along with the pickled graph
        assert cyclic_edge_connectivity(pickle.loads(pickle.dumps(g))) is NO_CYCLIC_CUT


class CensusReference:
    """The former cut census, kept as the reference for the cut-space
    queries. One walk of the connected sides gives the edge connectivity,
    the cyclic edge connectivity (a connected side has a cycle exactly when
    its degree sum minus the cut is at least 2|S|) and every connected side
    whose cut has at most max_size edges; cuts whose sides are both
    disconnected are unions of vertex-disjoint, non-adjacent connected
    sides and are closed over explicitly. cuts lists every cut of at most
    max_size edges, side_a holding vertex 0, in enumerate_cuts' order."""

    def __init__(self, g, max_size):
        n = g.vertex_count
        full = (1 << n) - 1
        deg = g.degrees()
        total_deg = 2 * len(g.edges)
        by_degree = [(d, sum(1 << v for v in range(n) if deg[v] == d)) for d in set(deg)]
        best = len(g.edges)
        cyclic = None
        base = []
        for mask, cut in _connected_side_masks(g):
            if cut < best:
                best = cut
            if cut <= max_size:
                base.append((mask, cut))
            if cyclic is not None and cut >= cyclic:
                continue
            size = mask.bit_count()
            side_deg = sum(d * (mask & vertices).bit_count() for d, vertices in by_degree)
            if side_deg - cut < 2 * size:
                continue
            rest = frozenset(v for v in range(n) if not (mask >> v) & 1)
            if total_deg - side_deg - cut >= 2 * (n - size) or _has_cycle(g, rest):
                cyclic = cut
        self.edge_connectivity = best
        self.cyclic_edge_connectivity = NO_CYCLIC_CUT if cyclic is None else cyclic
        self.cuts = self._closed_cuts(g, base, max_size)

    @staticmethod
    def _closed_cuts(g, base, max_size):
        n = g.vertex_count
        full = (1 << n) - 1
        nbr = [0] * n
        for u, v in g.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        sides = dict(base)
        # a union adds at least the smallest base cut, so a piece whose cut
        # plus that exceeds max_size can grow no further
        room = max_size - min((cut for _, cut in base), default=0)
        pool = list(base)
        while pool:
            new_pool = []
            for a_mask, a_cut in pool:
                if a_cut > room:
                    continue
                a_reach = 0
                for v in range(n):
                    if (a_mask >> v) & 1:
                        a_reach |= nbr[v]
                for b_mask, b_cut in base:
                    if (a_mask & b_mask) or (a_reach & b_mask):
                        continue
                    if (b_mask & -b_mask) <= (a_mask & -a_mask):
                        continue
                    union = a_mask | b_mask
                    total = a_cut + b_cut
                    if union == full or total > max_size or union in sides:
                        continue
                    sides[union] = total
                    new_pool.append((union, total))
            pool = new_pool
        out = {}
        for mask in sides:
            canon = mask if mask & 1 else full & ~mask
            out.setdefault(canon, make_cut(g, [v for v in range(n) if (canon >> v) & 1]))
        return sorted(
            out.values(), key=lambda c: (c.size, len(c.side_a), tuple(sorted(c.side_a)))
        )


def assert_matches_census(g):
    """Edge connectivity, the cyclic value where it is defined and
    enumerate_cuts(g, k, nontrivial_only) for k = 1..5 against the census."""
    ref = CensusReference(g, 5)
    connected = g.is_connected()
    assert edge_connectivity(g) == (ref.edge_connectivity if connected else 0)
    if connected and min(g.degrees()) >= 3:
        assert cyclic_edge_connectivity(g) == ref.cyclic_edge_connectivity
    for k in range(1, 6):
        for nontrivial_only in (False, True):
            expected = [
                c for c in ref.cuts
                if c.size <= k
                and (not nontrivial_only or min(len(c.side_a), len(c.side_b)) >= 3)
            ]
            assert enumerate_cuts(g, k, nontrivial_only) == expected


def analyze16_draws(seed):
    """The order-16 graphs the analyze16 benchmark workload draws for a seed."""
    rnd = random.Random(seed)
    return [random_bridgeless_cubic(16, rnd) for _ in range(100)]


def joined_at_a_three_cut(n1, n2, rnd):
    """Random cubic graphs on n1 and n2 vertices, each less one vertex,
    with the three loose ends joined across: a planted nontrivial 3-cut.
    Returns the graph and the side of the first graph."""
    while True:
        a, b = random_bridgeless_cubic(n1, rnd), random_bridgeless_cubic(n2, rnd)
        ends_a = [u - 1 for _, u in a.incidence[0]]
        ends_b = [u - 1 + n1 - 1 for _, u in b.incidence[0]]
        keep_a = [(u - 1, v - 1) for u, v in a.edges if u != 0]
        keep_b = [(u + n1 - 2, v + n1 - 2) for u, v in b.edges if u != 0]
        g = MultiGraph(n1 + n2 - 2, tuple(keep_a + keep_b + list(zip(ends_a, ends_b))))
        if g.is_connected() and not bridges(g):
            return g, frozenset(range(n1 - 1))


class TestCutSpace:
    def test_matches_census_on_catalogs(self, catalogs):
        for n in range(2, 13, 2):
            for g in catalogs(n):
                assert_matches_census(g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_census_on_analyze16_draws(self, seed):
        for g in analyze16_draws(seed):
            assert_matches_census(g)

    def test_matches_census_on_noncubic_multigraphs(self):
        rnd = random.Random(59)
        graphs = []
        while len(graphs) < 40:
            g = random_multigraph(rnd.randint(4, 10), rnd, min_degree=3)
            if g.is_connected():
                graphs.append(g)
        # K6, K7 and a doubled K4 have no cut of at most four edges
        complete = [MultiGraph(n, tuple(combinations(range(n), 2))) for n in (6, 7)]
        graphs += complete + [MultiGraph(4, k4().edges * 2)]
        assert any(edge_connectivity(g) > 4 for g in graphs)
        assert any(cyclic_edge_connectivity(g) is NO_CYCLIC_CUT for g in graphs)
        assert any(cyclic_edge_connectivity(g) is not NO_CYCLIC_CUT for g in graphs)
        assert any(set(g.degrees()) != {3} for g in graphs)
        for g in graphs:
            assert_matches_census(g)

    def test_matches_census_on_graphs_with_small_cuts(self):
        for g in graphs_with_small_cuts(random.Random(89)):
            assert_matches_census(g)

    def test_zero_signature_xor_exactly_at_cuts(self):
        rnd = random.Random(61)
        for _ in range(40):
            n = rnd.randint(2, 8)
            g = random_multigraph(n, rnd)
            m = len(g.edges)
            space = _cut_space(g)
            cuts = {
                make_cut(g, [v for v in range(n) if (bits >> v) & 1]).cut_edges
                for bits in range(1, (1 << n) - 1)
            }
            subsets = [tuple(sorted(rnd.sample(range(m), rnd.randint(0, m)))) for _ in range(30)]
            subsets += rnd.sample(sorted(cuts), min(len(cuts), 10))
            for edge_set in subsets:
                x = 0
                for e in edge_set:
                    x ^= space.sig[e]
                assert (x == 0) == (edge_set in cuts or not edge_set)
                side = space.side(edge_set)
                if x == 0 and side:
                    assert make_cut(g, [v for v in range(n) if (side >> v) & 1]).cut_edges == edge_set

    @pytest.mark.parametrize("n", [40, 56])
    def test_large_orders_rechecked_with_make_cut(self, n):
        # the census cannot run at these orders: every returned cut is
        # rebuilt from its side, and cuts known to exist must be present
        rnd = random.Random(n)
        planted, planted_side = joined_at_a_three_cut(n // 2, n // 2 + 2, rnd)
        for g in (random_bridgeless_cubic(n, rnd), planted):
            full = frozenset(range(n))
            for k in range(1, 5):
                for nontrivial_only in (False, True):
                    cuts = enumerate_cuts(g, k, nontrivial_only)
                    keys = [(c.size, len(c.side_a), tuple(sorted(c.side_a))) for c in cuts]
                    assert keys == sorted(set(keys))
                    for c in cuts:
                        assert 0 in c.side_a and c.side_a | c.side_b == full
                        assert c.size <= k and make_cut(g, c.side_a) == c
                        if nontrivial_only:
                            assert min(len(c.side_a), len(c.side_b)) >= 3
            sides = {c.side_a for c in enumerate_cuts(g, 4)}
            stars = [make_cut(g, {v}) for v in range(n)]
            pairs = [make_cut(g, {u, v}) for u, v in set(g.edges)]
            for c in stars + pairs:
                assert (c.side_a if 0 in c.side_a else c.side_b) in sides
            assert edge_connectivity(g) == min(c.size for c in enumerate_cuts(g, 3))
        planted_cut = make_cut(planted, planted_side)
        assert planted_cut.size == 3
        assert planted_cut in enumerate_cuts(planted, 3, nontrivial_only=True)
