import pickle
import random
import re
from itertools import combinations, permutations

import pytest

from cubicmatch.connectivity import (
    NO_CYCLIC_CUT,
    _CutSpace,
    _connected_side_masks,
    _bits,
    _cut_sides,
    _cut_space,
    _has_cycle,
    _side_key,
    bridges,
    cyclic_edge_connectivity,
    cyclically_edge_connected_at_least,
    edge_connectivity,
    enumerate_cuts,
    is_cyclic_cut,
)
from cubicmatch.harness import verify_graph
from cubicmatch.multigraph import MultiGraph, induced_subgraph, make_cut
from cubicmatch.named_graphs import (
    doubled_c4,
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from oracles import _separator, vertex_connectivity_at_most
from conftest import (
    analyze16_draws,
    mask_reference_graphs,
    random_bridgeless_cubic,
    record_zero_set_sizes,
    sparse_multigraphs,
)


def bridged_gadget():
    # two bigon-triangle gadgets joined by a single edge
    return MultiGraph(
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


def reference_bridges(g):
    """Bridges by Tarjan's low-link depth-first search, the former library
    routine, kept as the oracle for the cut-space signatures."""
    n = g.vertex_count
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    out = []
    counter = 0
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(g.incidence[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for ei, u in it:
                if ei == in_edge:
                    continue
                if not visited[u]:
                    visited[u] = True
                    disc[u] = low[u] = counter
                    counter += 1
                    stack.append((u, ei, iter(g.incidence[u])))
                    break
                low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.append(in_edge)
    return sorted(out)


class TestBridges:
    def test_matches_tarjan(self, catalogs):
        rnd = random.Random(41)
        graphs = [g for n in range(2, 11, 2) for g in catalogs(n)]
        for _ in range(3000):
            n = rnd.randint(2, 12)
            pairs = [tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(0, 2 * n))]
            graphs.append(MultiGraph(n, tuple(pairs)))
        assert sum(not g.is_connected() for g in graphs) > 500
        assert sum(bool(reference_bridges(g)) for g in graphs) > 1000
        for g in graphs:
            assert bridges(g) == reference_bridges(g)

    def test_k4_none(self):
        assert bridges(k4()) == []

    def test_single_joining_edge(self):
        g = bridged_gadget()
        assert bridges(g) == [4]
        assert g.edges[4] == (2, 3)

    def test_petersen_none(self):
        assert bridges(petersen()) == []

    def test_parallel_edges_never_bridges(self):
        g = MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
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

    def test_has_cycle_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(223)
        for g in sparse_multigraphs():
            n = g.vertex_count
            for _ in range(4):
                side = frozenset(rnd.sample(range(n), rnd.randint(0, n)))
                h = nx.MultiGraph()
                h.add_nodes_from(side)
                h.add_edges_from((u, v) for u, v in g.edges if u in side and v in side)
                try:
                    nx.find_cycle(h)
                    expected = True
                except nx.NetworkXNoCycle:
                    expected = False
                assert _has_cycle(g, side) == expected

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
            cyclic_edge_connectivity(MultiGraph(3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("k", ["banana", None, 4.5, True])
    @pytest.mark.parametrize("graph", [k4, petersen])
    def test_threshold_must_be_an_int(self, graph, k):
        # on K4 each used to answer True; on Petersen "banana" and None
        # raised TypeError
        g = graph()
        with pytest.raises(ValueError, match=f"^k must be an int, got {re.escape(repr(k))}$"):
            cyclically_edge_connected_at_least(g, k)
        # refused before any cut search
        assert "_cut_space" not in g.__dict__

    def test_graph_checks_come_before_the_threshold(self):
        with pytest.raises(ValueError, match="requires minimum degree 3"):
            cyclically_edge_connected_at_least(MultiGraph(3, [(0, 1), (1, 2)]), "banana")

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

    @pytest.mark.parametrize("max_size", [1.5, 3.0, True, "3"])
    def test_max_size_must_be_an_int(self, max_size):
        with pytest.raises(ValueError, match="must be an int"):
            enumerate_cuts(k4(), max_size)

    def test_walk_stops_at_the_edge_count(self):
        # no cut has more than m edges, so by_size stops at size m; 10**5
        # comes first, so a walk past m fails on by_size, not after 10**9 steps
        g = k4()
        assert enumerate_cuts(g, 10**5) == enumerate_cuts(k4(), 6)
        assert len(_cut_space(g).by_size) == 7
        cuts = enumerate_cuts(k4(), 10**9)
        assert len(cuts) == 7 and cuts == enumerate_cuts(k4(), 6)

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

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2", -1])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match="an int k"):
            vertex_connectivity_at_most(k4(), k)

    def test_separator_search_matches_networkx(self, catalogs):
        nx = pytest.importorskip("networkx")
        catalog = [g for n in (2, 4, 6, 8) for g in catalogs(n)]
        assert len(catalog) == 24
        two_k4 = MultiGraph(8, list(k4().edges) + [(u + 4, v + 4) for u, v in k4().edges])
        k5 = MultiGraph(5, list(combinations(range(5), 2)))
        for g in catalog + [bridged_gadget(), two_k4, k5]:
            n = g.vertex_count
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            expected = nx.node_connectivity(h)
            separator = _separator(g, n)
            if separator is None:
                # only a complete graph on its simple edges has no separator
                assert expected == n - 1
            else:
                assert len(separator) == expected
                rest = [v for v in range(n) if v not in separator]
                assert not induced_subgraph(g, rest)[0].is_connected()
            for k in range(4):
                w = vertex_connectivity_at_most(g, k)
                assert bool(w) == (separator is not None and expected <= k)
                assert w.vertices == (frozenset(separator) if w else None)


class TestReport:
    def test_petersen_report(self):
        g = petersen()
        assert g.is_connected() and bridges(g) == []
        assert edge_connectivity(g) == 3
        assert not vertex_connectivity_at_most(g, 2)
        assert cyclic_edge_connectivity(g) == 5

    def test_cyclic_value_not_computed(self):
        # two K4s have a cyclic 0-cut; two triangles joined through a
        # degree-2 vertex have a cyclic 1-cut. Neither graph is searched:
        # one is disconnected, the other has minimum degree 2.
        two_k4 = MultiGraph(8, list(k4().edges) + [(u + 4, v + 4) for u, v in k4().edges])
        two_triangles = MultiGraph(
            7, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6))
        )
        for g in (two_k4, two_triangles):
            with pytest.raises(ValueError):
                cyclic_edge_connectivity(g)
        assert cyclic_edge_connectivity(k4()) is NO_CYCLIC_CUT

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
            # one walk up to size 5 on the unqueried g gives the same 4-cuts
            assert [c for c in enumerate_cuts(g, 5) if c.size <= 4] == expected["cuts4"]

    def test_four_edge_cuts_before_or_after_the_other_queries(self, catalogs):
        # the 4-edge cuts are matched on first demand; asked for first or
        # last on a fresh instance, every answer equals the census
        for n in range(2, 11, 2):
            for g in catalogs(n):
                ref = CensusReference(g, 4)
                expected = (
                    ref.edge_connectivity,
                    ref.cyclic_edge_connectivity,
                    [c for c in ref.cuts if c.size <= 3],
                    ref.cuts,
                )
                for four_first in (True, False):
                    h = MultiGraph(g.vertex_count, g.edges)
                    if four_first:
                        cuts4 = enumerate_cuts(h, 4)
                    got = (edge_connectivity(h), cyclic_edge_connectivity(h), enumerate_cuts(h, 3))
                    if not four_first:
                        cuts4 = enumerate_cuts(h, 4)
                    assert (*got, cuts4) == expected

    def test_sentinel_survives_pickling(self):
        assert pickle.loads(pickle.dumps(NO_CYCLIC_CUT)) is NO_CYCLIC_CUT
        g = k4()
        assert cyclic_edge_connectivity(g) is NO_CYCLIC_CUT
        # the census rides along with the pickled graph
        assert cyclic_edge_connectivity(pickle.loads(pickle.dumps(g))) is NO_CYCLIC_CUT


def fresh(g):
    """A new instance of g, with no cut space cached on it."""
    return MultiGraph(g.vertex_count, g.edges)


class TestCutWalk:
    """Each cut size is matched the first time a query reaches it, once per
    graph instance, and never before."""

    def test_sizes_matched_only_up_to_the_query(self, monkeypatch):
        sizes = record_zero_set_sizes(monkeypatch)
        for g in (petersen(), exceptional_graph(), random_bridgeless_cubic(12, random.Random(12))):
            sizes.clear()
            enumerate_cuts(fresh(g), 2)
            assert sizes == [0, 1, 2]

    def test_interleaved_walks_equal_their_standalone_lists(self, catalogs, monkeypatch):
        graphs = [g for g in catalogs(10) if enumerate_cuts(g, 2)]
        assert len(graphs) > 10
        sizes = record_zero_set_sizes(monkeypatch)
        for g in graphs:
            alone_short = list(_cut_sides(fresh(g), 3))
            alone_long = list(_cut_sides(fresh(g), 4))
            h = fresh(g)
            sizes.clear()
            short = _cut_sides(h, 3)
            head = []
            for cut in short:
                head.append(cut)
                if len(cut[1]) == 2:
                    break
            # the short walk is paused at size 2 while the long one runs on
            assert sizes == [0, 1, 2]
            assert list(_cut_sides(h, 4)) == alone_long
            assert head + list(short) == alone_short
            assert sizes == [0, 1, 2, 3, 4]

    def test_verify_graph_matches_each_size_once(self, catalogs, monkeypatch):
        graphs = [g for n in range(2, 11, 2) for g in catalogs(n)] + [petersen()]
        sizes = record_zero_set_sizes(monkeypatch)
        for g in graphs:
            sizes.clear()
            verify_graph(fresh(g))
            assert sizes == list(range(len(sizes)))


def xor_table(sig, j, tables):
    """The j-edge sets as sorted index tuples grouped by the XOR of their
    signatures, from itertools.combinations; built once per tables dict."""
    table = tables.get(j)
    if table is None:
        table = tables[j] = {}
        for combo in combinations(range(len(sig)), j):
            x = 0
            for e in combo:
                x ^= sig[e]
            table.setdefault(x, []).append(combo)
    return table


def pair_table_zero_sets(space, k, tables):
    """The former match for every size k >= 1: the first k // 2 edges
    against the rest through the cached j-edge tables, so size 3 builds
    the table of all edge pairs."""
    if k == 0:
        yield ()
        return
    lows = xor_table(space.sig, k // 2, tables)
    highs = xor_table(space.sig, k - k // 2, tables)
    for x, heads in lows.items():
        for a in heads:
            last = a[-1] if a else -1
            for b in highs.get(x, ()):
                if b[0] > last:
                    yield a + b


class TestThreeEdgeMatch:
    """The larger half of each edge set is streamed against the table of the
    smaller half, one rule for every size, so size 3 is matched pair by pair
    against the single-edge table; each cut keeps its edges beside its side."""

    def test_matches_pair_table(self, catalogs):
        # sizes 0..6 on the small graphs and on the larger ones
        small = [g for n in range(2, 11, 2) for g in catalogs(n)]
        small += graphs_with_small_cuts(random.Random(43))
        found = [0] * 7
        for g in small + mask_reference_graphs(catalogs):
            space = _CutSpace(g)
            levels, reference_tables = {}, {}
            for k in range(7):
                got = space.zero_sets(k, levels)
                expected = list(pair_table_zero_sets(space, k, reference_tables))
                assert sorted(got) == sorted(expected)
                assert len(set(got)) == len(got)
                found[k] += len(got)
        assert min(found) > 0 and found[3] > 10000

    def test_enumerate_cuts_matches_pair_table(self, catalogs, monkeypatch):
        graphs = mask_reference_graphs(catalogs)
        new = [enumerate_cuts(fresh(g), 3) for g in graphs]
        monkeypatch.setattr(_CutSpace, "zero_sets", pair_table_zero_sets)
        assert new == [enumerate_cuts(fresh(g), 3) for g in graphs]

    def test_no_pair_table_below_size_four(self, monkeypatch):
        # after size k, levels holds the k // 2-edge table and the prefix
        # lists below its size, never a streamed (k - k // 2)-edge list nor,
        # at odd k, the prefix list one edge shorter
        seen = []
        zero_sets = _CutSpace.zero_sets

        def recording_zero_sets(self, k, levels):
            found = zero_sets(self, k, levels)
            seen.append((k, levels.get("table"), sorted(j for j in levels if j != "table")))
            return found

        monkeypatch.setattr(_CutSpace, "zero_sets", recording_zero_sets)
        for g in (petersen(), exceptional_graph(), random_bridgeless_cubic(16, random.Random(16))):
            seen.clear()
            enumerate_cuts(fresh(g), 6)
            assert [k for k, _, _ in seen] == list(range(7))
            # size 0 is the empty set alone, with no table
            assert seen.pop(0)[1:] == (None, [])
            for k, (j, table), kept in seen:
                assert j == k // 2
                assert all(a.bit_count() == j for group in table.values() for a in group)
                assert kept == list(range(max(k // 2, 1)))
            tables = {k: table for k, table, _ in seen}
            assert tables[3][0] == 1 and tables[4][0] == 2
            # size 5 streams its triples against the pair table of size 4
            assert tables[5] is tables[4]

    def test_kept_edges_match_make_cut(self, catalogs):
        graphs = [g for n in range(2, 13, 2) for g in catalogs(n)]
        for seed in (1, 2, 3):
            graphs += analyze16_draws(seed)
        small = graphs_with_small_cuts(random.Random(89))
        checked = flipped = 0
        for g in graphs + small:
            sides = list(_cut_sides(fresh(g), 5))
            for side_a, edges in sides:
                assert edges == make_cut(g, _bits(side_a)).cut_edges
            checked += len(sides)
            # one edge set gives several sides when g is disconnected
            flipped += len(sides) - len({edges for _, edges in sides})
        assert checked > 100000 and flipped > 0


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


@pytest.mark.parametrize("n", range(1, 13))
def test_side_key_sorts_as_sorted_vertex_tuples(n):
    masks = list(range(1 << n))
    by_tuple = sorted(masks, key=lambda s: (s.bit_count(), _bits(s)))
    assert sorted(masks, key=lambda s: _side_key(s, n)) == by_tuple
    assert len({_side_key(s, n) for s in masks}) == len(masks)


@pytest.mark.parametrize("n", (16, 64, 94))
def test_side_key_sorts_random_masks_as_sorted_vertex_tuples(n):
    # sizes drawn near n / 2 and at the ends, so equal sizes tie often
    rnd = random.Random(n)
    masks = set()
    while len(masks) < 5000:
        k = rnd.choice((1, 2, 3, n // 2, n // 2 + 1, n - 3))
        masks.add(sum(1 << v for v in rnd.sample(range(n), k)))
    masks = list(masks)
    by_tuple = sorted(masks, key=lambda s: (s.bit_count(), _bits(s)))
    assert sorted(masks, key=lambda s: _side_key(s, n)) == by_tuple
