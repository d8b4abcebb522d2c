"""The canonical labeller against references that share none of its code.

`reference_invariant_colors` and `reference_canonical_search` are the
coloring and the automorphism-pruned search that `canonical_form` ran
before rows became integer keys: rows are tuples, siblings are grouped
by row, every group is tried in row order against a sliced prefix of the
best matrix, and orbits come from a union-find over the generators.
`exhaustive_canonical_form` is that search without automorphism pruning,
visiting every color-compatible labeling the prefix cut allows. The
library must return the same colors and the same bytes as these.
"""

import random

import pytest

from conftest import analyze16_draws
from cubicmatch import multigraph
from cubicmatch.klee import enumerate_klee
from cubicmatch.multigraph import MultiGraph, canonical_form
from cubicmatch.named_graphs import (
    doubled_c4,
    exceptional_graph,
    k33,
    petersen,
    prism,
)


def multiplicity_matrix(g: MultiGraph) -> list[list[int]]:
    n = g.vertex_count
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1
    return mult


def reference_invariant_colors(g: MultiGraph, mult: list[list[int]]) -> list[int]:
    """Degree, sorted multiplicities, triangles through the vertex and the
    sorted BFS distance tuple, ranked, then refined by the sorted
    (multiplicity, color) pairs of the neighbours until no color is added."""
    n = g.vertex_count
    inf = n + 1
    adj = [sorted(g.neighbors(v)) for v in range(n)]
    profiles = []
    for s in range(n):
        dist = [inf] * n
        dist[s] = 0
        queue = [s]
        for v in queue:
            for u in adj[v]:
                if dist[u] == inf:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        profiles.append(tuple(sorted(dist)))
    tri = [0] * n
    for v in range(n):
        av = adj[v]
        for a in range(len(av)):
            for b in range(a + 1, len(av)):
                if mult[av[a]][av[b]]:
                    tri[v] += 1
    sigs = [
        (g.degree(v), tuple(sorted(mult[v][u] for u in adj[v])), tri[v], profiles[v])
        for v in range(n)
    ]
    colors = reference_ranks(sigs)
    while True:
        refined = [
            (colors[v], tuple(sorted((mult[v][u], colors[u]) for u in adj[v])))
            for v in range(n)
        ]
        new = reference_ranks(refined)
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def reference_ranks(keys: list) -> list[int]:
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def reference_orbit_ids(generators: list[list[int]], n: int) -> list[int]:
    """Per vertex, the least vertex of its orbit under the generators."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for gen in generators:
        for v in range(n):
            a, b = find(v), find(gen[v])
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
    return [find(v) for v in range(n)]


def color_cells(g: MultiGraph, mult: list[list[int]]):
    """The reference color cells, and the cell color of every position."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(reference_invariant_colors(g, mult)):
        cells.setdefault(c, []).append(v)
    pos_color = []
    for c in sorted(cells):
        pos_color.extend([c] * len(cells[c]))
    return cells, pos_color


def reference_canonical_search(g: MultiGraph) -> bytes:
    """Depth-first search over tuple rows, grouped and tried in row order
    with a sliced prefix cut; a leaf equal to the best yields an
    automorphism, and a child in the orbit of an explored sibling under
    the automorphisms fixing the placed vertices is skipped."""
    n = g.vertex_count
    if n == 0:
        return bytes([0])
    mult = multiplicity_matrix(g)
    cells, pos_color = color_cells(g, mult)

    best: list[int] | None = None
    best_labels: list[int] = []
    generators: list[list[int]] = []
    assigned: list[int] = []
    flat: list[int] = []
    taken: set[int] = set()

    def rec(p: int) -> int:
        nonlocal best, best_labels
        if p == n:
            if best is None or flat < best:
                best = flat.copy()
                best_labels = assigned.copy()
                return p + 1
            gen = [0] * n
            for a, b in zip(best_labels, assigned):
                gen[a] = b
            generators.append(gen)
            k = 0
            while best_labels[k] == assigned[k]:
                k += 1
            return k
        groups: dict[tuple[int, ...], list[int]] = {}
        for v in cells[pos_color[p]]:
            if v in taken:
                continue
            row = tuple(map(mult[v].__getitem__, assigned))
            groups.setdefault(row, []).append(v)
        base_len = len(flat)
        explored: list[int] = []
        known = 0
        orbit: list[int] = []
        for row in sorted(groups):
            flat.extend(row)
            if best is not None and flat > best[: len(flat)]:
                del flat[base_len:]
                break
            for v in groups[row]:
                if explored and len(generators) > known:
                    known = len(generators)
                    fixing = [
                        gen for gen in generators
                        if all(gen[a] == a for a in assigned)
                    ]
                    orbit = reference_orbit_ids(fixing, n) if fixing else []
                if orbit and orbit[v] in {orbit[u] for u in explored}:
                    continue
                explored.append(v)
                taken.add(v)
                assigned.append(v)
                back = rec(p + 1)
                assigned.pop()
                taken.remove(v)
                if back < p:
                    del flat[base_len:]
                    return back
            del flat[base_len:]
        return p + 1

    rec(0)
    assert best is not None
    return bytes([n]) + bytes(best)


def exhaustive_canonical_form(g: MultiGraph) -> bytes:
    n = g.vertex_count
    if n == 0:
        return bytes([0])
    mult = multiplicity_matrix(g)
    cells, pos_color = color_cells(g, mult)

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


def shuffled(g: MultiGraph, rnd: random.Random) -> MultiGraph:
    perm = list(range(g.vertex_count))
    rnd.shuffle(perm)
    return relabeled(g, perm)


def digon_ring(k: int) -> MultiGraph:
    """k digons joined in a ring by single edges: 2k vertices."""
    edges = []
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        edges += [(a, b), (a, b), (b, (a + 2) % (2 * k))]
    return MultiGraph(2 * k, tuple(edges))


def prism_of_order(n: int) -> MultiGraph:
    """Two n/2-cycles joined by rungs."""
    k = n // 2
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return MultiGraph(n, tuple(edges))


def library_colors(g: MultiGraph) -> list[int]:
    mult = multiplicity_matrix(g)
    adj = [[u for u in range(g.vertex_count) if mult[v][u]] for v in range(g.vertex_count)]
    return multigraph._invariant_colors(g, mult, adj)


def single_cell(g: MultiGraph) -> bool:
    """Whether the invariant coloring puts every vertex in one cell."""
    return len(set(reference_invariant_colors(g, multiplicity_matrix(g)))) == 1


def assert_matches_references(g: MultiGraph) -> None:
    """The library's colors and bytes equal the references' on g."""
    if g.vertex_count:
        assert library_colors(g) == reference_invariant_colors(g, multiplicity_matrix(g)), g
    assert canonical_form(fresh(g)) == (
        reference_canonical_search(g)
    ), g


def random_multigraph(rnd: random.Random) -> MultiGraph:
    """A seeded multigraph with 0 to 12 vertices: often disconnected or not
    cubic, sometimes with a bundle of four to six parallel edges."""
    n = rnd.randrange(13)
    if n < 2:
        return MultiGraph(n, ())
    edges = []
    for _ in range(rnd.randrange(2 * n + 1)):
        u, v = rnd.sample(range(n), 2)
        edges.append((u, v))
    if rnd.random() < 0.25:
        u, v = rnd.sample(range(n), 2)
        edges += [(u, v)] * rnd.randrange(4, 7)
    return MultiGraph(n, tuple(edges))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_every_catalog_graph(catalogs, n):
    for g in catalogs(n):
        assert canonical_form(fresh(g)) == exhaustive_canonical_form(g)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_catalog_graphs_and_relabelings_match_the_references(catalogs, n):
    rnd = random.Random(1000 + n)
    for g in catalogs(n):
        for h in (g, shuffled(g, rnd), shuffled(g, rnd)):
            assert_matches_references(h)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_analyze16_draws_match_the_references(seed):
    for g in analyze16_draws(seed):
        assert_matches_references(g)


def test_klee_graphs_of_order_14_match_the_references():
    graphs = enumerate_klee(14)
    assert graphs
    for g in graphs:
        assert_matches_references(g)


def test_seeded_multigraphs_match_the_references():
    rnd = random.Random(14)
    graphs = [random_multigraph(rnd) for _ in range(2000)]
    assert {g.vertex_count for g in graphs} == set(range(13))
    assert any(not g.is_connected() for g in graphs)
    assert any(g.edges and not g.is_cubic() for g in graphs)
    assert any(g.edges.count(e) >= 4 for g in graphs for e in set(g.edges))
    for g in graphs:
        assert_matches_references(g)


@pytest.mark.parametrize("g", [prism_of_order(16), digon_ring(8)], ids=["prism", "digon_ring"])
def test_symmetric_graphs_of_order_16_match_the_references(g):
    assert single_cell(g)
    assert_matches_references(g)
    assert_matches_references(shuffled(g, random.Random(16)))


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


@pytest.mark.parametrize("graphs, discrete", [("catalog12", 70), ("analyze16", 68)])
def test_discrete_coloring_is_read_off_without_search(catalogs, monkeypatch, graphs, discrete):
    # n distinct colors admit one labeling, the color order; every other
    # graph still searches, and both give the reference bytes
    graphs = catalogs(12) if graphs == "catalog12" else analyze16_draws(1)
    searched = []
    search = multigraph._search_labeling

    def counting(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(multigraph, "_search_labeling", counting)
    read_off = 0
    for g in graphs:
        before = len(searched)
        form = canonical_form(fresh(g))
        is_discrete = len(set(library_colors(g))) == g.vertex_count
        assert len(searched) - before == (0 if is_discrete else 1)
        assert form == reference_canonical_search(g)
        read_off += is_discrete
    assert read_off == discrete and len(searched) == len(graphs) - discrete


def test_bound_checked_before_the_cache():
    # an order-18 Moebius ladder carrying a planted cached form
    g = MultiGraph(
        18, tuple((i, (i + 1) % 18) for i in range(18)) + tuple((i, i + 9) for i in range(9))
    )
    g.__dict__["_canonical_form"] = bytes(1)
    with pytest.raises(ValueError, match="limited to 16 vertices, got 18"):
        canonical_form(g)
