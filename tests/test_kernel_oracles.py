"""Every lookup of the matching kernel checked against independent code.

Boundary tables and vertex types are compared with the subset-walk oracle
run on explicitly built subgraphs; coverage and bicriticality with the
blossom-backed has_perfect_matching. Inputs are the whole catalogs up to
order 8.
"""

from itertools import combinations

import pytest

from cubicmatch.brick_brace import is_bicritical
from cubicmatch.connectivity import enumerate_cuts
from cubicmatch.klee import vertex_type
from cubicmatch.matching import (
    boundary_profile,
    count_perfect_matchings_oracle,
    has_perfect_matching,
    is_matching_covered,
)
from cubicmatch.multigraph import MultiGraph, delete_vertices, induced_subgraph

ORDERS = (2, 4, 6, 8)


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
    rest, _, _ = delete_vertices(sub, att)
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
            rest, _, _ = delete_vertices(g, [v] + nbrs)
            assert t.omega == count_perfect_matchings_oracle(rest)
            for u, mu in zip(nbrs, t.mu):
                rest, _, _ = delete_vertices(g, [v, u])
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
                has_perfect_matching(h, forced=(e,)) for e in range(len(h.edges))
            )
            assert is_matching_covered(h) == expected


@pytest.mark.parametrize("n", ORDERS)
def test_bicritical_matches_blossom(n, catalogs):
    for g in catalogs(n):
        expected = all(
            has_perfect_matching(delete_vertices(g, pair)[0])
            for pair in combinations(range(n), 2)
        )
        assert is_bicritical(g) == expected
