import pickle
import random
from itertools import permutations

import pytest

from cubicmatch.connectivity import (
    NO_CYCLIC_CUT,
    _connected_side_masks,
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
            # sizes above the census limit take a fresh walk; both must agree
            assert [c for c in enumerate_cuts(g, 5) if c.size <= 4] == expected["cuts4"]

    def test_sentinel_survives_pickling(self):
        assert pickle.loads(pickle.dumps(NO_CYCLIC_CUT)) is NO_CYCLIC_CUT
        g = k4()
        assert cyclic_edge_connectivity(g) is NO_CYCLIC_CUT
        # the census rides along with the pickled graph
        assert cyclic_edge_connectivity(pickle.loads(pickle.dumps(g))) is NO_CYCLIC_CUT
