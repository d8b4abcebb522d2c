"""The automorphism-pruned canonical search against the exhaustive one.

`exhaustive_canonical_form` is the search `canonical_form` ran before it
pruned by automorphisms: the same invariant coloring, cell order, row
grouping and prefix cut, visiting every color-compatible labeling that the
cut allows. Pruning may skip subtrees but must return the same smallest
matrix, hence the same bytes.
"""

import random

import pytest

from cubicmatch import multigraph
from cubicmatch.multigraph import MultiGraph, _invariant_colors, canonical_form
from cubicmatch.named_graphs import (
    doubled_c4,
    exceptional_graph,
    k33,
    petersen,
    prism,
)


def exhaustive_canonical_form(g: MultiGraph) -> bytes:
    n = g.vertex_count
    if n == 0:
        return bytes([0])
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1
    colors = _invariant_colors(g, mult)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    pos_color = []
    for c in sorted(cells):
        pos_color.extend([c] * len(cells[c]))

    best: list[int] | None = None
    assigned: list[int] = []
    flat: list[int] = []
    taken: set[int] = set()

    def rec(p: int) -> None:
        nonlocal best
        if p == n:
            if best is None or flat < best:
                best = flat.copy()
            return
        groups: dict[tuple[int, ...], list[int]] = {}
        for v in cells[pos_color[p]]:
            if v in taken:
                continue
            row = tuple(map(mult[v].__getitem__, assigned))
            groups.setdefault(row, []).append(v)
        base_len = len(flat)
        for row in sorted(groups):
            flat.extend(row)
            if best is not None and flat > best[: len(flat)]:
                del flat[base_len:]
                break
            for v in groups[row]:
                taken.add(v)
                assigned.append(v)
                rec(p + 1)
                assigned.pop()
                taken.remove(v)
            del flat[base_len:]

    rec(0)
    assert best is not None
    return bytes([n]) + bytes(best)


def fresh(g: MultiGraph) -> MultiGraph:
    """An equal graph with nothing cached on it."""
    return MultiGraph(g.vertex_count, g.edges)


def relabeled(g: MultiGraph, perm: list[int]) -> MultiGraph:
    return MultiGraph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges))


def digon_ring(k: int) -> MultiGraph:
    """k digons joined in a ring by single edges: 2k vertices."""
    edges = []
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        edges += [(a, b), (a, b), (b, (a + 2) % (2 * k))]
    return MultiGraph(2 * k, tuple(edges))


def single_cell(g: MultiGraph) -> bool:
    """Whether the invariant coloring puts every vertex in one cell."""
    n = g.vertex_count
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1
    return len(set(_invariant_colors(g, mult))) == 1


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_every_catalog_graph(catalogs, n):
    for g in catalogs(n):
        assert canonical_form(fresh(g)) == exhaustive_canonical_form(g)


def high_symmetry_graphs(catalogs):
    """Named symmetric graphs plus the order-12 catalog members whose
    invariant coloring is one cell, where pruning finds the most
    automorphisms."""
    named = [digon_ring(6), doubled_c4(), k33(), prism(), petersen(), exceptional_graph()]
    return named + [g for g in catalogs(12) if single_cell(g)]


def test_random_relabelings_of_high_symmetry_graphs(catalogs):
    rnd = random.Random(41)
    graphs = high_symmetry_graphs(catalogs)
    assert len(graphs) > 6
    for g in graphs:
        want = exhaustive_canonical_form(g)
        for _ in range(3):
            perm = list(range(g.vertex_count))
            rnd.shuffle(perm)
            h = relabeled(g, perm)
            assert canonical_form(h) == want
            assert exhaustive_canonical_form(h) == want


def test_second_call_does_not_search_again(monkeypatch):
    calls = []
    search = multigraph._canonical_search

    def counting(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(multigraph, "_canonical_search", counting)
    g = digon_ring(6)
    first = canonical_form(g)
    assert canonical_form(g) == first
    assert len(calls) == 1
    assert canonical_form(fresh(g)) == first
    assert len(calls) == 2


def test_bound_checked_before_the_cache():
    g = petersen()
    canonical_form(g)
    with pytest.raises(ValueError):
        canonical_form(g, max_vertices=9)
