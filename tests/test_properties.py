"""Cross-module invariants checked over the small catalogs."""

import random

from cubicmatch.brick_brace import decompose
from cubicmatch.connectivity import (
    NO_CYCLIC_CUT,
    cyclic_edge_connectivity,
    edge_connectivity,
    enumerate_cuts,
)
from cubicmatch.klee import is_klee
from cubicmatch.matching import matching_profile
from cubicmatch.multigraph import MultiGraph, canonical_form
from cubicmatch.named_graphs import k4
from conftest import random_bridgeless_cubic
from oracles import is_tight


def test_cyclic_at_least_edge_connectivity(catalogs):
    for n in (4, 6, 8):
        for g in catalogs(n):
            c = cyclic_edge_connectivity(g)
            if c is not NO_CYCLIC_CUT:
                assert c >= edge_connectivity(g)


def test_tight_cuts_have_size_three(catalogs):
    # in cubic bridgeless matching covered graphs no cut of size 2 or 4
    # is tight
    for n in (4, 6, 8):
        for g in catalogs(n):
            for cut in enumerate_cuts(g, 4):
                if cut.size in (2, 4):
                    assert not is_tight(g, cut)


def test_catalog_graphs_matching_covered(catalogs):
    for n in (2, 4, 6, 8):
        for g in catalogs(n):
            assert matching_profile(g).matching_covered


def test_cyclically_4ec_double_covered(catalogs):
    # every cyclically 4-edge-connected cubic graph other than K4 is
    # matching double-covered
    k4_form = canonical_form(k4())
    for n in (4, 6, 8, 10):
        for g in catalogs(n):
            c = cyclic_edge_connectivity(g)
            if c is not NO_CYCLIC_CUT and c < 4:
                continue
            if canonical_form(g) == k4_form:
                assert not matching_profile(g).double_covered
                continue
            assert matching_profile(g).double_covered


def test_three_edge_connected_non_klee_double_covered(catalogs):
    for n in (4, 6, 8, 10):
        for g in catalogs(n):
            if edge_connectivity(g) < 3 or is_klee(g):
                continue
            assert matching_profile(g).double_covered


def test_bipartite_decomposition_has_no_bricks(catalogs):
    for n in (2, 4, 6, 8, 10):
        for g in catalogs(n):
            if g.is_bipartite():
                assert decompose(g).brick_count == 0


def test_degree_profile():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert g.degree_profile() == ()  # cubic
    minus_edge = MultiGraph(4, g.edges[:-1])
    assert minus_edge.degree_profile() == (2, 2)  # {2,2}-near cubic


def test_decomposition_piece_count_consistency(catalogs):
    rnd = random.Random(311)
    graphs = list(catalogs(8)) + [random_bridgeless_cubic(10, rnd) for _ in range(5)]
    for g in graphs:
        d = decompose(g)
        assert d.brick_count + d.brace_count == len(d.pieces)
        assert len(d.pieces) == len(d.cut_trace) + 1
