import random
from itertools import combinations

import networkx as nx
import pytest

from cubicmatch import multigraph
from cubicmatch.connectivity import is_cyclic_cut
from cubicmatch.matching import boundary_profile
from cubicmatch.multigraph import (
    Cut,
    MultiGraph,
    canonical_form,
    contract,
    four_cut_completion_edges,
    four_cut_completion_vertices,
    induced_subgraph,
    make_cut,
    replace_vertex_with_triangle,
)
from cubicmatch.connectivity import bridges
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
from conftest import sparse_multigraphs
from oracles import from_canonical, glue, is_nice_cut, is_tight, triangles


class TestVertexIds:
    @pytest.mark.parametrize("n", [4.0, True, -1, "4"])
    def test_vertex_count_must_be_a_non_negative_int(self, n):
        with pytest.raises(ValueError, match="vertex_count must be a non-negative int"):
            MultiGraph(n, ())

    @pytest.mark.parametrize(
        "n, edges",
        [
            # a float end built, and counting it raised TypeError
            (4, ((0.0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3))),
            # a bool end built, and was stored as the edge (0, True)
            (2, ((True, 0), (0, 1), (0, 1))),
        ],
    )
    def test_edge_ends_must_be_ints(self, n, edges):
        with pytest.raises(ValueError, match="endpoints must be ints"):
            MultiGraph(n, edges)

    @pytest.mark.parametrize("side", [[0.5], [-1], [10], [True], [0, 1.0]])
    def test_cut_side_must_hold_vertex_ids(self, side):
        # [0.5] used to give a Cut with side_a {0.5}
        with pytest.raises(ValueError, match="is not a vertex of a graph of order 10"):
            make_cut(petersen(), side)

    @pytest.mark.parametrize(
        "keep, bad", [([0, 1, 100], "100"), ([0, -1], "-1"), ([0, 1, True], "True"), ([2.0], "2.0")]
    )
    def test_induced_side_must_hold_vertex_ids(self, keep, bad):
        # [0, 1, 100] used to give a third vertex that k4 does not have,
        # [0, -1] kept vertex -1 as vertex 0, and True stood for vertex 1
        with pytest.raises(ValueError, match=f"^{bad} is not a vertex of a graph of order 4$"):
            induced_subgraph(k4(), keep)

    @pytest.mark.parametrize(
        "method, args, bad",
        [
            ("degree", (-1,), "-1"),
            ("degree", (True,), "True"),
            ("degree", (3,), "3"),
            ("neighbors", (-3,), "-3"),
            ("neighbors", (1.0,), "1.0"),
            ("multiplicity", (0, 99), "99"),
            ("multiplicity", (1.0, 0), "1.0"),
            ("multiplicity", (0, -1), "-1"),
        ],
    )
    def test_vertex_queries_take_vertex_ids(self, method, args, bad):
        # degree(-1) used to answer for vertex 2 and degree(True) for
        # vertex 1, neighbors(-3) for vertex 0, multiplicity(0, 99) gave 0,
        # multiplicity(1.0, 0) gave 2, and degree(3) raised IndexError
        g = MultiGraph(3, ((0, 1), (0, 1), (1, 2)))
        with pytest.raises(ValueError, match=f"^{bad} is not a vertex of a graph of order 3$"):
            getattr(g, method)(*args)

    def test_multiplicity_is_symmetric_and_zero_off_the_edges(self):
        g = MultiGraph(3, ((0, 1), (0, 1), (1, 2)))
        pairs = ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (0, 0))
        assert [g.multiplicity(u, v) for u, v in pairs] == [2, 2, 1, 1, 0, 0, 0]

    def test_induced_subgraph_of_vertex_ids(self):
        sub, old_ids, old_edges = induced_subgraph(k4(), iter([3, 1, 3]))
        assert (sub, old_ids, old_edges) == (MultiGraph(2, ((0, 1),)), [1, 3], [4])


def relabeled(g, perm):
    return MultiGraph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges))


class TestFromEdgeList:
    def test_k4(self):
        g = MultiGraph(4, list(combinations(range(4), 2)))
        assert g.degrees() == (3, 3, 3, 3)
        assert g.is_simple()

    def test_three_bond(self):
        g = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
        assert g.degrees() == (3, 3)
        assert g.multiplicity(0, 1) == 3

    def test_k33_bipartite(self):
        assert k33().is_bipartite()

    def test_id_out_of_range(self):
        with pytest.raises(ValueError):
            MultiGraph(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            MultiGraph(3, [(1, 1)])



class TestIsCubic:
    def test_a_huge_order_with_too_few_edges_builds_no_incidence(self):
        # the handshake count refuses it first; a larger order would only
        # make a regression exhaust memory
        g = MultiGraph(10**6, ())
        assert not g.is_cubic()
        assert "incidence" not in g.__dict__

    def test_the_right_edge_count_still_reads_degrees(self):
        uneven = MultiGraph(4, ((0, 1),) * 4 + ((2, 3),) * 2)
        assert not uneven.is_cubic()
        assert MultiGraph(4, ((0, 1),) * 3 + ((2, 3),) * 3).is_cubic()
        assert MultiGraph(0, ()).is_cubic()


class TestContract:
    def test_k4_triangle_gives_three_bond(self):
        c, vmap = contract(k4(), [(0, 1, 2)])
        assert canonical_form(c) == canonical_form(three_bond())
        assert vmap == [0, 0, 0, 1]

    def test_petersen_outer_cycle(self):
        c, _ = contract(petersen(), [(0, 1, 2, 3, 4)])
        assert c.vertex_count == 6
        assert sorted(c.degrees(), reverse=True)[0] == 5

    def test_odd_minor_parity(self):
        # contracting odd-size connected parts of a cubic graph keeps all
        # degrees odd
        rnd = random.Random(11)
        g = petersen()
        for _ in range(50):
            v = rnd.randrange(10)
            part = {v}
            while len(part) % 2 == 0 or len(part) == 1:
                u = rnd.choice(sorted({w for x in part for w in g.neighbors(x)} - part))
                part.add(u)
            c, _ = contract(g, [part])
            assert all(d % 2 == 1 for d in c.degrees())

    def test_edge_map_numbers_the_kept_edges(self):
        # edge e of g becomes edge edge_map[e] of the contraction, in order,
        # and an edge inside a part is dropped (-1)
        g = petersen()
        parts = [frozenset({0, 1, 2}), frozenset({5, 7})]
        c, vmap, edge_map = multigraph._contract_parts(g, parts)
        kept = [e for e, (u, v) in enumerate(g.edges) if vmap[u] != vmap[v]]
        assert [edge_map[e] for e in kept] == list(range(len(c.edges)))
        assert all(edge_map[e] == -1 for e in range(len(g.edges)) if e not in kept)
        for e in kept:
            u, v = g.edges[e]
            assert c.edges[edge_map[e]] == tuple(sorted((vmap[u], vmap[v])))
        assert contract(g, parts) == (c, vmap)

    def test_disconnected_part_rejected(self):
        with pytest.raises(ValueError):
            contract(k33(), [(0, 1)])  # same class, no edge between

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ValueError):
            contract(k4(), [(0, 1), (1, 2)])

    @pytest.mark.parametrize("part", [[True, 2], [0.0, 1], [-1, 0], [4]])
    def test_part_must_hold_vertex_ids(self, part):
        # [True, 2] used to contract {1, 2}, and [0.0, 1] raised TypeError
        with pytest.raises(ValueError, match="contraction part out of range or empty"):
            contract(k4(), [part])


class TestTriangleReplacement:
    def test_k4_becomes_prism(self):
        assert canonical_form(replace_vertex_with_triangle(k4(), 1)) == canonical_form(prism())

    def test_prism_expansion_is_klee(self):
        from cubicmatch.klee import is_klee

        g = replace_vertex_with_triangle(prism(), 0)
        assert g.vertex_count == 8 and g.is_cubic()
        assert is_klee(g)

    def test_exceptional_construction(self):
        g = exceptional_graph()
        assert g.vertex_count == 12 and g.is_cubic() and not bridges(g)

    def test_degree_precondition(self):
        g = MultiGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            replace_vertex_with_triangle(g, 0)

    @pytest.mark.parametrize("v", [-1, 4, 1.0, True])
    def test_vertex_must_be_a_vertex_id(self, v):
        # -1 used to expand vertex 3 through negative indexing
        with pytest.raises(ValueError, match="is not a vertex of a graph of order 4"):
            replace_vertex_with_triangle(k4(), v)

    def test_expand_contract_roundtrip(self):
        rnd = random.Random(3)
        for g in (k4(), prism(), petersen()):
            v = rnd.randrange(g.vertex_count)
            expanded = replace_vertex_with_triangle(g, v)
            tri = (v, g.vertex_count, g.vertex_count + 1)
            back, _ = contract(expanded, [tri])
            assert canonical_form(back) == canonical_form(g)


class TestGlue:
    def test_glue_k4_equals_triangle_replacement(self):
        for v in range(6):
            a = glue(prism(), v, k4(), 2)
            b = replace_vertex_with_triangle(prism(), v)
            assert canonical_form(a) == canonical_form(b)

    def test_glue_two_k4(self):
        assert canonical_form(glue(k4(), 0, k4(), 0)) == canonical_form(prism())

    def test_glue_petersen_k4_one_triangle(self):
        g = glue(petersen(), 0, k4(), 0)
        assert g.vertex_count == 12 and g.is_cubic()
        assert len(triangles(g)) == 1

    def test_glue_degree_check(self):
        g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            glue(g, 0, k4(), 0)

    def test_glue_vertex_ids_checked(self):
        with pytest.raises(ValueError, match="is not a vertex"):
            glue(k4(), -1, k4(), 0)
        with pytest.raises(ValueError, match="is not a vertex"):
            glue(k4(), 0, k4(), 4)

    def test_glue_cubic_preserved(self):
        g = glue(petersen(), 3, prism(), 4, slot_map=(2, 0, 1))
        assert g.is_cubic()


class TestFourCutCompletions:
    def cube_cut(self):
        g = cube()
        return g, make_cut(g, {0, 1, 2, 3})

    def test_complementary_pairings_agree(self):
        g, cut = self.cube_cut()
        a = four_cut_completion_edges(g, cut, (0, 1))
        b = four_cut_completion_edges(g, cut, (2, 3))
        assert canonical_form(a) == canonical_form(b)
        av = four_cut_completion_vertices(g, cut, (0, 1))
        bv = four_cut_completion_vertices(g, cut, (2, 3))
        assert canonical_form(av) == canonical_form(bv)

    def test_orders_and_cubic(self):
        g, cut = self.cube_cut()
        a = four_cut_completion_edges(g, cut, (0, 1))
        assert a.vertex_count == 4 and a.is_cubic() and not bridges(a)
        b = four_cut_completion_vertices(g, cut, (0, 2))
        assert b.vertex_count == len(cut.side_a) + 2
        assert b.is_cubic() and not bridges(b)

    def test_repeated_attachment_rejected(self):
        g = prism()
        cut = make_cut(g, {0, 1})  # both cut ends repeat on side vertices
        assert cut.size == 4
        with pytest.raises(ValueError):
            four_cut_completion_edges(g, cut, (0, 1))

    def test_wrong_size_rejected(self):
        g = prism()
        with pytest.raises(ValueError):
            four_cut_completion_edges(g, make_cut(g, {0, 1, 2}), (0, 1))

    @pytest.mark.parametrize(
        "completion", [four_cut_completion_edges, four_cut_completion_vertices]
    )
    @pytest.mark.parametrize("pairing", [(True, 2), (1.0, 2), (0, 4), (1, 1)])
    def test_pairing_must_hold_two_index_ints(self, completion, pairing):
        # (True, 2) used to pair (1, 2), and (1.0, 2) raised TypeError
        g, cut = self.cube_cut()
        with pytest.raises(ValueError, match="pairing must be two distinct indices from 0..3"):
            completion(g, cut, pairing)


class TestCanonicalForm:
    def test_label_invariance(self):
        rnd = random.Random(5)
        for g in (k4(), k33(), prism(), petersen(), doubled_c4(), exceptional_graph()):
            base = canonical_form(g)
            for _ in range(8):
                perm = list(range(g.vertex_count))
                rnd.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == base

    def test_distinguishes_non_isomorphic(self):
        forms = {canonical_form(g) for g in
                 (k4(), k33(), prism(), petersen(), doubled_c4(), three_bond())}
        assert len(forms) == 6

    def test_three_klee_graphs_of_order_ten(self):
        from cubicmatch.klee import enumerate_klee

        forms = {canonical_form(g) for g in enumerate_klee(10)}
        assert len(forms) == 3

    def test_three_bond_vs_triangle(self):
        triangle = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert canonical_form(three_bond()) != canonical_form(triangle)

    def test_size_bound(self):
        g = MultiGraph(18, tuple((i, i + 1) for i in range(17)))
        with pytest.raises(ValueError):
            canonical_form(g)

    def test_roundtrip(self):
        for g in (k4(), petersen(), doubled_c4()):
            assert canonical_form(from_canonical(canonical_form(g))) == canonical_form(g)

    def test_agrees_with_vf2_on_random_multigraphs(self):
        import networkx as nx

        def to_nx(g):
            G = nx.MultiGraph()
            G.add_nodes_from(range(g.vertex_count))
            G.add_edges_from(g.edges)
            return G

        rnd = random.Random(19)
        graphs = []
        for _ in range(60):
            n = rnd.randint(3, 9)
            edges = tuple(
                tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(2, 2 * n))
            )
            graphs.append(MultiGraph(n, edges))
        for _ in range(300):
            a, b = rnd.sample(graphs, 2)
            if a.vertex_count != b.vertex_count or len(a.edges) != len(b.edges):
                continue
            same = canonical_form(a) == canonical_form(b)
            assert same == nx.is_isomorphic(to_nx(a), to_nx(b))


class TestCanonicalEncodingLimits:
    """The vertex count and each multiplicity take one byte of the form;
    past that the error names the limit before any search work."""

    @staticmethod
    def forbid_search(monkeypatch):
        def search_started(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(multigraph, "_invariant_colors", search_started)

    def test_more_than_255_vertices(self, monkeypatch):
        rnd = random.Random(256)
        perm = list(range(256))
        rnd.shuffle(perm)
        ring = [(perm[i], perm[(i + 1) % 256]) for i in range(256)]
        chords = [(perm[i], perm[i + 128]) for i in range(128)]
        g = MultiGraph(256, ring + chords)
        assert g.is_cubic()
        self.forbid_search(monkeypatch)
        with pytest.raises(ValueError, match="limited to 16 vertices, got 256"):
            canonical_form(g)

    def test_more_than_255_parallel_edges(self, monkeypatch):
        g = MultiGraph(2, [(0, 1)] * 256)
        self.forbid_search(monkeypatch)
        with pytest.raises(ValueError, match="at most 255 parallel edges, got 256"):
            canonical_form(g)

    def test_255_parallel_edges_encode(self):
        g = MultiGraph(3, [(0, 1)] * 255 + [(1, 2)])
        form = canonical_form(g)
        assert sorted(form[1:]) == [0, 1, 255]
        assert canonical_form(from_canonical(form)) == form


class TestCutParity:
    def test_cut_parity_on_cubic_graphs(self):
        rnd = random.Random(17)
        for g in (k4(), prism(), petersen(), exceptional_graph()):
            n = g.vertex_count
            for _ in range(40):
                size = rnd.randrange(1, n)
                side = rnd.sample(range(n), size)
                cut = make_cut(g, side)
                assert cut.size % 2 == len(cut.side_a) % 2

    def test_make_cut_validation(self):
        with pytest.raises(ValueError):
            make_cut(k4(), set())
        with pytest.raises(ValueError):
            make_cut(k4(), {0, 1, 2, 3})


class TestSpanningForest:
    """The one cached BFS forest and its readers, against networkx."""

    def as_networkx(self, g):
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
        return h

    def test_inputs_cover_the_awkward_cases(self):
        graphs = sparse_multigraphs()
        assert {g.vertex_count for g in graphs} == set(range(21))
        assert any(not g.is_connected() for g in graphs)
        assert any(0 in g.degrees() for g in graphs if g.vertex_count > 1)
        assert any(len(set(g.edges)) < len(g.edges) for g in graphs)

    def test_is_connected_and_is_bipartite_match_networkx(self):
        for g in sparse_multigraphs():
            h = self.as_networkx(g)
            # networkx calls the null graph neither connected nor disconnected
            assert g.is_connected() == (g.vertex_count == 0 or nx.is_connected(h))
            assert g.is_bipartite() == nx.is_bipartite(h)

    def test_forest_is_breadth_first(self):
        for g in sparse_multigraphs():
            forest = g.forest
            h = self.as_networkx(g)
            components = forest.components()
            # roots in index order: each component starts at its smallest vertex
            expected = sorted(nx.connected_components(h), key=min)
            assert [set(c) for c in components] == expected
            assert [c[0] for c in components] == [min(c) for c in expected]
            for c in components:
                distance = nx.single_source_shortest_path_length(h, c[0])
                assert [forest.depth[v] for v in c] == [distance[v] for v in c]
                assert forest.parent_edge[c[0]] == -1
                for v in c[1:]:
                    u, w = g.edges[forest.parent_edge[v]]
                    assert v in (u, w) and forest.depth[u + w - v] == forest.depth[v] - 1

    def test_forest_is_cached(self):
        g = petersen()
        assert g.forest is g.forest
        assert g == MultiGraph(g.vertex_count, g.edges)


class TestCutOfAnotherGraph:
    """Every (g, cut) entry point, public or test oracle, refuses a cut
    that is not g's."""

    ENTRY_POINTS = {
        "is_tight": is_tight,
        "boundary_profile": boundary_profile,
        "is_cyclic_cut": is_cyclic_cut,
        "is_nice_cut": is_nice_cut,
        "four_cut_completion_edges": (
            lambda g, cut: four_cut_completion_edges(g, cut, (0, 1))
        ),
        "four_cut_completion_vertices": (
            lambda g, cut: four_cut_completion_vertices(g, cut, (0, 1))
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_cut_of_another_order(self, entry):
        with pytest.raises(ValueError, match="do not partition"):
            self.ENTRY_POINTS[entry](cube(), make_cut(petersen(), {0, 1, 2, 3}))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_cut_of_another_edge_order(self, entry):
        g = cube()
        # the same graph with its edges listed in reverse: same sides, other indices
        h = MultiGraph(8, tuple(reversed(g.edges)))
        cut = make_cut(h, {0, 1, 2, 3})
        assert sorted(cut.cut_edges) != sorted(make_cut(g, {0, 1, 2, 3}).cut_edges)
        with pytest.raises(ValueError, match="edges crossing"):
            self.ENTRY_POINTS[entry](g, cut)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_cut_missing_an_edge(self, entry):
        g = cube()
        cut = make_cut(g, {0, 1, 2, 3})
        with pytest.raises(ValueError, match="edges crossing"):
            self.ENTRY_POINTS[entry](g, Cut(cut.side_a, cut.side_b, cut.cut_edges[1:]))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_empty_side(self, entry):
        g = cube()
        with pytest.raises(ValueError, match="do not partition"):
            self.ENTRY_POINTS[entry](g, Cut(frozenset(), frozenset(range(8)), ()))

    def test_the_reported_cases(self):
        with pytest.raises(ValueError):
            is_tight(petersen(), make_cut(prism(), {0, 1, 2}))
        with pytest.raises(ValueError):
            boundary_profile(k4(), make_cut(petersen(), {0}))
        with pytest.raises(ValueError):
            is_cyclic_cut(k4(), make_cut(petersen(), {0, 1, 2, 3, 4}))

    def test_cuts_of_the_graph_pass(self):
        g = cube()
        cut = make_cut(g, {0, 1, 2, 3})
        # the edges of a cut may come in any order
        shuffled = Cut(cut.side_a, cut.side_b, tuple(reversed(cut.cut_edges)))
        for entry in ("is_tight", "boundary_profile", "is_cyclic_cut",
                      "four_cut_completion_edges", "four_cut_completion_vertices"):
            self.ENTRY_POINTS[entry](g, shuffled)
        self.ENTRY_POINTS["is_nice_cut"](g, make_cut(g, {0}))
