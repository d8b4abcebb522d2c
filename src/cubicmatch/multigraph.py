"""Immutable undirected multigraphs and the constructions built on them.

Vertices are the integers 0..vertex_count-1.  Parallel edges are distinct
entries of the edge list and every edge is identified by its index in that
list.  Loops are never allowed; contraction drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class MultiGraph:
    """A loopless undirected multigraph with indexed, distinguishable edges.

    Attributes:
        vertex_count: number of vertices (ids 0..vertex_count-1).
        edges: tuple of (u, v) pairs with u < v; parallel edges repeat.

    Data derived from the edges, such as the incidence lists and the cut
    space of the connectivity module, is cached on the instance; equality
    and hashing ignore it.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) not allowed")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.vertex_count}")
            norm.append((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the tuple of (edge_index, other_endpoint) pairs."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append((i, v))
            inc[v].append((i, u))
        return tuple(tuple(x) for x in inc)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.incidence)

    def neighbors(self, v: int) -> set[int]:
        return {u for _, u in self.incidence[v]}

    def multiplicity(self, u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        return sum(1 for e in self.edges if e == (a, b))

    def is_cubic(self) -> bool:
        return all(d == 3 for d in self.degrees())

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n <= 1:
            return True
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for _, u in self.incidence[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return all(seen)

    def is_bipartite(self) -> bool:
        color = [-1] * self.vertex_count
        for s in range(self.vertex_count):
            if color[s] != -1:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for _, u in self.incidence[v]:
                    if color[u] == -1:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
        return True

    def degree_profile(self) -> tuple[int, ...]:
        """The multiset of degrees different from three, sorted.

        A graph is X-near cubic exactly when this equals X; empty means cubic.
        """
        return tuple(sorted(d for d in self.degrees() if d != 3))


@dataclass(frozen=True)
class Cut:
    """A vertex bipartition with its crossing edges.

    side_a and side_b partition the vertex set; cut_edges lists the indices
    of edges with one end on each side. For cubic graphs the size of the cut
    is congruent to |side_a| mod 2.
    """

    side_a: frozenset[int]
    side_b: frozenset[int]
    cut_edges: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.cut_edges)

    def flipped(self) -> "Cut":
        return Cut(self.side_b, self.side_a, self.cut_edges)


def make_cut(g: MultiGraph, side: Iterable[int]) -> Cut:
    """Builds the Cut determined by one side of a bipartition."""
    side_a = frozenset(side)
    if not side_a or not all(0 <= v < g.vertex_count for v in side_a):
        raise ValueError("cut side must be a non-empty set of valid vertex ids")
    side_b = frozenset(range(g.vertex_count)) - side_a
    if not side_b:
        raise ValueError("cut side must be a proper subset of the vertices")
    cut_edges = tuple(
        i for i, (u, v) in enumerate(g.edges) if (u in side_a) != (v in side_a)
    )
    return Cut(side_a, side_b, cut_edges)


def from_edge_list(n: int, pairs: Sequence[tuple[int, int]]) -> MultiGraph:
    """Builds a multigraph from an explicit edge list, duplicates preserved."""
    return MultiGraph(n, tuple((u, v) for u, v in pairs))


def induced_subgraph(
    g: MultiGraph, keep: Iterable[int]
) -> tuple[MultiGraph, list[int], list[int]]:
    """Induced subgraph on `keep`.

    Returns (subgraph, old_vertex_ids, old_edge_ids) where old_vertex_ids[i]
    is the original id of new vertex i and old_edge_ids likewise for edges.
    """
    old_ids = sorted(set(keep))
    index = {v: i for i, v in enumerate(old_ids)}
    new_edges = []
    old_edge_ids = []
    for i, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            new_edges.append((index[u], index[v]))
            old_edge_ids.append(i)
    return MultiGraph(len(old_ids), tuple(new_edges)), old_ids, old_edge_ids


def delete_vertices(
    g: MultiGraph, drop: Iterable[int]
) -> tuple[MultiGraph, list[int], list[int]]:
    dropped = set(drop)
    return induced_subgraph(g, (v for v in range(g.vertex_count) if v not in dropped))


def contract(
    g: MultiGraph, parts: Sequence[Iterable[int]]
) -> tuple[MultiGraph, list[int]]:
    """Contracts each part to a single vertex, dropping loops, keeping parallels.

    Every part must induce a connected subgraph and the parts must be
    disjoint. Returns the contracted graph and the map old id -> new id;
    new ids are assigned contiguously in order of each vertex's (or part
    representative's) first appearance in 0..n-1.
    """
    part_sets = [frozenset(p) for p in parts]
    seen: set[int] = set()
    for p in part_sets:
        if not p or not all(0 <= v < g.vertex_count for v in p):
            raise ValueError("contraction part out of range or empty")
        if p & seen:
            raise ValueError("contraction parts overlap")
        seen |= p
        sub, _, _ = induced_subgraph(g, p)
        if not sub.is_connected():
            raise ValueError(f"contraction part {sorted(p)} is not connected")
    owner = {}
    for idx, p in enumerate(part_sets):
        for v in p:
            owner[v] = idx
    vmap = [-1] * g.vertex_count
    next_id = 0
    part_new_id = [-1] * len(part_sets)
    for v in range(g.vertex_count):
        if vmap[v] != -1:
            continue
        if v in owner:
            pid = owner[v]
            if part_new_id[pid] == -1:
                part_new_id[pid] = next_id
                next_id += 1
            for w in part_sets[pid]:
                vmap[w] = part_new_id[pid]
        else:
            vmap[v] = next_id
            next_id += 1
    new_edges = []
    for u, v in g.edges:
        a, b = vmap[u], vmap[v]
        if a != b:
            new_edges.append((a, b))
    return MultiGraph(next_id, tuple(new_edges)), vmap


def replace_vertex_with_triangle(g: MultiGraph, v: int) -> MultiGraph:
    """Replaces a degree-3 vertex by a triangle.

    The i-th incident edge of v (in edge-list order) is reattached to the
    i-th triangle vertex; triangle vertices are v itself plus two fresh
    vertices n and n+1, and the three triangle edges are appended last.
    """
    if g.degree(v) != 3:
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, need 3")
    n = g.vertex_count
    tri = (v, n, n + 1)
    slot = {}
    for pos, (i, _) in enumerate(g.incidence[v]):
        slot[i] = tri[pos]
    new_edges = []
    for i, (a, b) in enumerate(g.edges):
        if i in slot:
            other = b if a == v else a
            new_edges.append((slot[i], other))
        else:
            new_edges.append((a, b))
    new_edges += [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
    return MultiGraph(n + 2, tuple(new_edges))


def glue(
    g: MultiGraph,
    u: int,
    h: MultiGraph,
    v: int,
    slot_map: tuple[int, int, int] = (0, 1, 2),
) -> MultiGraph:
    """Glues g and h through degree-3 vertices u and v.

    The result is the disjoint union of g minus u and h minus v, plus three
    edges joining the former edge slots: slot i of u is matched with slot
    slot_map[i] of v. Gluing with K4 is the same as replacing u by a
    triangle, up to isomorphism.
    """
    if g.degree(u) != 3 or h.degree(v) != 3:
        raise ValueError("glue requires degree-3 vertices on both sides")
    if sorted(slot_map) != [0, 1, 2]:
        raise ValueError("slot_map must be a permutation of (0, 1, 2)")
    g_keep = [w for w in range(g.vertex_count) if w != u]
    h_keep = [w for w in range(h.vertex_count) if w != v]
    g_index = {w: i for i, w in enumerate(g_keep)}
    off = len(g_keep)
    h_index = {w: off + i for i, w in enumerate(h_keep)}
    edges = []
    for a, b in g.edges:
        if u not in (a, b):
            edges.append((g_index[a], g_index[b]))
    for a, b in h.edges:
        if v not in (a, b):
            edges.append((h_index[a], h_index[b]))
    g_stubs = [g_index[other] for _, other in g.incidence[u]]
    h_stubs = [h_index[other] for _, other in h.incidence[v]]
    for i in range(3):
        edges.append((g_stubs[i], h_stubs[slot_map[i]]))
    return MultiGraph(off + len(h_keep), tuple(edges))


def _four_cut_attachments(g: MultiGraph, cut: Cut) -> list[int]:
    if cut.size != 4:
        raise ValueError(f"cut has size {cut.size}, need 4")
    att = []
    for i in cut.cut_edges:
        u, v = g.edges[i]
        att.append(u if u in cut.side_a else v)
    if len(set(att)) != 4:
        raise ValueError("attachment vertices on the kept side are not distinct")
    return att


def _normalize_pairing(pairing: tuple[int, int]) -> tuple[int, int, int, int]:
    i, j = pairing
    if not {i, j} < {0, 1, 2, 3} or i == j:
        raise ValueError("pairing must be two distinct indices from 0..3")
    k, l = sorted({0, 1, 2, 3} - {i, j})
    return i, j, k, l


def four_cut_completion_edges(
    g: MultiGraph, cut: Cut, pairing: tuple[int, int]
) -> MultiGraph:
    """The side_a completion that adds the two pairing edges directly.

    For a 4-cut with attachments a_0..a_3 on side_a and pairing {i,j}, the
    result is the induced side plus edges a_i a_j and a_k a_l. Complementary
    pairings give the same graph.
    """
    att = _four_cut_attachments(g, cut)
    i, j, k, l = _normalize_pairing(pairing)
    sub, old_ids, _ = induced_subgraph(g, cut.side_a)
    index = {v: p for p, v in enumerate(old_ids)}
    edges = list(sub.edges)
    edges.append(tuple(sorted((index[att[i]], index[att[j]]))))
    edges.append(tuple(sorted((index[att[k]], index[att[l]]))))
    return MultiGraph(sub.vertex_count, tuple(edges))


def four_cut_completion_vertices(
    g: MultiGraph, cut: Cut, pairing: tuple[int, int]
) -> MultiGraph:
    """The side_a completion that routes the pairing through two new vertices.

    Adds adjacent vertices x, y with x joined to a_i, a_j and y to a_k, a_l;
    the result has |side_a| + 2 vertices.
    """
    att = _four_cut_attachments(g, cut)
    i, j, k, l = _normalize_pairing(pairing)
    sub, old_ids, _ = induced_subgraph(g, cut.side_a)
    index = {v: p for p, v in enumerate(old_ids)}
    x, y = sub.vertex_count, sub.vertex_count + 1
    edges = list(sub.edges)
    edges += [(index[att[i]], x), (index[att[j]], x),
              (index[att[k]], y), (index[att[l]], y), (x, y)]
    return MultiGraph(sub.vertex_count + 2, tuple(edges))


# --------------------------------------------------------------------------
# Canonical forms
# --------------------------------------------------------------------------

DEFAULT_CANONICAL_BOUND = 16


def _invariant_colors(g: MultiGraph, mult: list[list[int]]) -> list[int]:
    """Isomorphism-invariant vertex colors used to seed the canonical search."""
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
    colors = _ranks(sigs)
    while True:
        refined = [
            (colors[v], tuple(sorted((mult[v][u], colors[u]) for u in adj[v])))
            for v in range(n)
        ]
        new = _ranks(refined)
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _ranks(keys: list) -> list[int]:
    """Each key's position among the distinct keys in sorted order."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def canonical_form(g: MultiGraph, max_vertices: int = DEFAULT_CANONICAL_BOUND) -> bytes:
    """A canonical byte string: equal exactly for isomorphic multigraphs.

    Encodes the vertex count followed by the lexicographically smallest
    lower-triangular multiplicity matrix over all relabelings compatible
    with the invariant vertex coloring. The search is exhaustive with
    invariant and automorphism pruning; intended for vertex_count <=
    max_vertices. The result is cached on the instance.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise ValueError(f"canonical_form limited to {max_vertices} vertices, got {n}")
    form = g.__dict__.get("_canonical_form")
    if form is None:
        form = g.__dict__["_canonical_form"] = _canonical_search(g)
    return form


def _orbit_ids(generators: list[list[int]], n: int) -> list[int]:
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


def _canonical_search(g: MultiGraph) -> bytes:
    """Depth-first search for the smallest matrix over the labelings that
    place the vertices cell by cell in color order.

    Siblings are grouped by their row against the vertices already placed,
    and groups are tried in row order, so a row whose prefix exceeds the
    best matrix ends the node. A leaf whose matrix equals the best one
    yields an automorphism (best labeling -> this labeling). Automorphisms
    that fix the placed vertices pointwise map the subtree under a child
    onto the subtree under its image, with the same leaf matrices, so a
    child in the orbit of an explored sibling is skipped, and the search
    returns at once to the node where the two labelings part, whose
    current child is the image of the explored one.
    """
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
    best_labels: list[int] = []
    generators: list[list[int]] = []
    assigned: list[int] = []
    flat: list[int] = []
    taken: set[int] = set()

    def rec(p: int) -> int:
        """Explores the node with prefix ``assigned``; returns the depth
        the search resumes at, p + 1 after a full exploration."""
        nonlocal best, best_labels
        if p == n:
            if best is None or flat < best:
                best = flat.copy()
                best_labels = assigned.copy()
                return p + 1
            # the prefix cut lets no leaf above the best through: flat == best
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
                    orbit = _orbit_ids(fixing, n) if fixing else []
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


def from_canonical(data: bytes) -> MultiGraph:
    """Rebuilds the canonical representative encoded by canonical_form."""
    if not data:
        raise ValueError("empty canonical string")
    n = data[0]
    tri = data[1:]
    if len(tri) != n * (n - 1) // 2:
        raise ValueError("canonical string has wrong length")
    edges = []
    pos = 0
    for p in range(1, n):
        for q in range(p):
            for _ in range(tri[pos]):
                edges.append((q, p))
            pos += 1
    return MultiGraph(n, tuple(edges))
