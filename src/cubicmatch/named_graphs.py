"""Small cubic graphs used as fixtures and reference instances."""

from __future__ import annotations

from itertools import combinations

from .multigraph import MultiGraph, replace_vertex_with_triangle


def three_bond() -> MultiGraph:
    """Two vertices joined by three parallel edges."""
    return MultiGraph(2, [(0, 1), (0, 1), (0, 1)])


def k4() -> MultiGraph:
    return MultiGraph(4, list(combinations(range(4), 2)))


def k33() -> MultiGraph:
    return MultiGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def prism() -> MultiGraph:
    """Two triangles joined by a perfect matching of rungs."""
    return MultiGraph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def cube() -> MultiGraph:
    return MultiGraph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0),
         (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )


def petersen() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph(10, outer + spokes + inner)


def exceptional_graph() -> MultiGraph:
    """K_{3,3} with one color class replaced by triangles, the unique
    cubic bridgeless graph with exactly n/2 perfect matchings."""
    g = k33()
    for v in (0, 1, 2):
        g = replace_vertex_with_triangle(g, v)
    return g


def doubled_c4() -> MultiGraph:
    """The 4-cycle with two opposite edges doubled; the only bridgeless
    cubic multigraph on 4 vertices besides K4."""
    return MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)])
