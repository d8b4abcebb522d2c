"""Immutable undirected multigraphs and the constructions built on them.

Vertices are the integers 0..vertex_count-1.  Parallel edges are distinct
entries of the edge list and every edge is identified by its index in that
list.  Loops are never allowed; contraction drops them.

Each graph caches one breadth-first spanning forest beside its incidence
lists. Connectivity, bipartiteness, the cycle test of a cut side, the cut
space and the co-tree of the affine rank all read it instead of a search
of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import add
from typing import Iterable, NamedTuple, Sequence


def _is_int(x: object) -> bool:
    """True for an int that is not a bool: True would stand for 1."""
    return isinstance(x, int) and not isinstance(x, bool)


class SpanningForest(NamedTuple):
    """A breadth-first spanning forest: roots in index order, each vertex's
    edges in index order. Component i is order[starts[i]:starts[i + 1]];
    parent_edge[v] is v's tree edge towards its root (-1 at a root) and
    depth[v] its distance from that root."""

    order: tuple[int, ...]
    parent_edge: tuple[int, ...]
    depth: tuple[int, ...]
    starts: tuple[int, ...]

    def components(self) -> list[tuple[int, ...]]:
        """Each component's vertices in visiting order, root first."""
        ends = self.starts[1:] + (len(self.order),)
        return [self.order[a:b] for a, b in zip(self.starts, ends)]


@dataclass(frozen=True)
class MultiGraph:
    """A loopless undirected multigraph with indexed, distinguishable edges.

    Attributes:
        vertex_count: number of vertices (ids 0..vertex_count-1).
        edges: tuple of (u, v) pairs with u < v; parallel edges repeat.

    Data derived from the edges, such as the incidence lists, the spanning
    forest and the cut space of the connectivity module, is cached on the
    instance; equality and hashing ignore it.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if not _is_int(n) or n < 0:
            raise ValueError(f"vertex_count must be a non-negative int, got {n!r}")
        norm = []
        for u, v in self.edges:
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge ({u!r},{v!r}) endpoints must be ints")
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

    @cached_property
    def forest(self) -> SpanningForest:
        """The breadth-first spanning forest of _spanning_forest."""
        return _spanning_forest(self)

    def degree(self, v: int) -> int:
        """The degree of vertex v; ValueError unless v is a vertex of
        this graph (_require_vertex), as for neighbors and multiplicity."""
        _require_vertex(self, v)
        return len(self.incidence[v])

    def degrees(self) -> tuple[int, ...]:
        """Each vertex's degree, built once and kept on the instance."""
        degrees = self.__dict__.get("_degrees")
        if degrees is None:
            degrees = self.__dict__["_degrees"] = tuple(map(len, self.incidence))
        return degrees

    def neighbors(self, v: int) -> set[int]:
        _require_vertex(self, v)
        return {u for _, u in self.incidence[v]}

    def multiplicity(self, u: int, v: int) -> int:
        """The number of edges joining u and v, counted among u's."""
        _require_vertex(self, u)
        _require_vertex(self, v)
        return sum(1 for _, w in self.incidence[u] if w == v)

    def is_cubic(self) -> bool:
        """Every degree is 3. The handshake count is read first, so a graph
        with too few edges for its order is refused without building its
        incidence lists."""
        return 2 * len(self.edges) == 3 * self.vertex_count and all(
            d == 3 for d in self.degrees()
        )

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def is_connected(self) -> bool:
        return len(self.forest.starts) <= 1

    def is_bipartite(self) -> bool:
        """No edge joins two vertices of one depth (it would close an odd cycle)."""
        depth = self.forest.depth
        return all(depth[u] != depth[v] for u, v in self.edges)

    def degree_profile(self) -> tuple[int, ...]:
        """The multiset of degrees different from three, sorted.

        A graph is X-near cubic exactly when this equals X; empty means cubic.
        """
        return tuple(sorted(d for d in self.degrees() if d != 3))


def _spanning_forest(g: MultiGraph) -> SpanningForest:
    """Breadth-first search from each unvisited vertex in index order."""
    n = g.vertex_count
    parent_edge = [-1] * n
    depth = [-1] * n
    order: list[int] = []
    starts = []
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        component = [root]
        for v in component:  # the list grows while it is read
            below = depth[v] + 1
            for e, u in g.incidence[v]:
                if depth[u] < 0:
                    depth[u] = below
                    parent_edge[u] = e
                    component.append(u)
        starts.append(len(order))
        order += component
    return SpanningForest(tuple(order), tuple(parent_edge), tuple(depth), tuple(starts))


@dataclass(frozen=True)
class Cut:
    """A vertex bipartition with its crossing edges.

    side_a and side_b partition the vertex set; cut_edges lists the indices
    of edges with one end on each side. For cubic graphs the size of the cut
    is congruent to |side_a| mod 2. A public function taking (g, cut)
    raises ValueError when the cut is not one of g (_require_cut).
    """

    side_a: frozenset[int]
    side_b: frozenset[int]
    cut_edges: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.cut_edges)

    def flipped(self) -> "Cut":
        return Cut(self.side_b, self.side_a, self.cut_edges)


def _require_vertex(g: MultiGraph, v: int) -> None:
    """Raises ValueError unless v is a vertex id of g: an int (not a bool)
    in 0..vertex_count-1."""
    if not _is_int(v) or not 0 <= v < g.vertex_count:
        raise ValueError(f"{v!r} is not a vertex of a graph of order {g.vertex_count}")


def make_cut(g: MultiGraph, side: Iterable[int]) -> Cut:
    """Builds the Cut determined by one side of a bipartition."""
    side_a = frozenset(side)
    if not side_a:
        raise ValueError("cut side must be non-empty")
    for v in side_a:
        _require_vertex(g, v)
    side_b = frozenset(range(g.vertex_count)) - side_a
    if not side_b:
        raise ValueError("cut side must be a proper subset of the vertices")
    return Cut(side_a, side_b, _crossing_edges(g, side_a))


def _crossing_edges(g: MultiGraph, side: frozenset[int]) -> tuple[int, ...]:
    """The indices of the edges with exactly one end in side."""
    return tuple(i for i, (u, v) in enumerate(g.edges) if (u in side) != (v in side))


def _require_cut(g: MultiGraph, cut: Cut) -> None:
    """Raises ValueError unless cut is a cut of g: its sides are non-empty
    and partition the vertices 0..vertex_count-1, and cut_edges holds each
    edge crossing them once, and no other."""
    n = g.vertex_count
    a, b = cut.side_a, cut.side_b
    if not a or not b or a & b or a | b != frozenset(range(n)):
        raise ValueError(f"the cut's sides do not partition the vertices of a graph of order {n}")
    crossing = _crossing_edges(g, a)
    if len(cut.cut_edges) != len(crossing) or set(cut.cut_edges) != set(crossing):
        raise ValueError("the cut's edges are not the edges crossing its sides")


def induced_subgraph(
    g: MultiGraph, keep: Iterable[int]
) -> tuple[MultiGraph, list[int], list[int]]:
    """Induced subgraph on `keep`.

    Returns (subgraph, old_vertex_ids, old_edge_ids) where old_vertex_ids[i]
    is the original id of new vertex i and old_edge_ids likewise for edges.
    Every kept vertex must be a vertex of g (_require_vertex).
    """
    keep = list(keep)
    for v in keep:
        _require_vertex(g, v)
    old_ids = sorted(set(keep))
    index = {v: i for i, v in enumerate(old_ids)}
    new_edges = []
    old_edge_ids = []
    for i, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            new_edges.append((index[u], index[v]))
            old_edge_ids.append(i)
    return MultiGraph(len(old_ids), tuple(new_edges)), old_ids, old_edge_ids


def contract(
    g: MultiGraph, parts: Sequence[Iterable[int]]
) -> tuple[MultiGraph, list[int]]:
    """Contracts each part to a single vertex, dropping loops, keeping parallels.

    Every part must induce a connected subgraph and the parts must be
    disjoint. Returns the contracted graph and the map old id -> new id,
    which sends each vertex to the rank of its _part_names name.
    """
    part_sets = [frozenset(p) for p in parts]
    seen: set[int] = set()
    for p in part_sets:
        if not p or not all(_is_int(v) and 0 <= v < g.vertex_count for v in p):
            raise ValueError("contraction part out of range or empty")
        if p & seen:
            raise ValueError("contraction parts overlap")
        seen |= p
        sub, _, _ = induced_subgraph(g, p)
        if not sub.is_connected():
            raise ValueError(f"contraction part {sorted(p)} is not connected")
    h, vmap, _ = _contract_parts(g, part_sets)
    return h, vmap


def _part_names(n: int, parts: Iterable[Iterable[int]]) -> list[int]:
    """The one naming rule of a contraction: each vertex of range(n) is
    named by the smallest vertex of its part, or by itself when it lies
    in no part. Every name is the first vertex of range(n) to carry it."""
    names = list(range(n))
    for p in parts:
        least = min(p)
        for v in p:
            names[v] = least
    return names


def _contract_parts(
    g: MultiGraph, parts: Iterable[Iterable[int]]
) -> tuple[MultiGraph, list[int], list[int]]:
    """contract on parts the caller already knows to be nonempty,
    disjoint, in range and connected; nothing is checked again. Returns
    the contracted graph, the vertex map, and the edge map: the vertex map
    sends each vertex to the rank of its _part_names name, the kept edges
    (those between different parts) keep their order, and edge_map[e] is
    the new index of edge e, or -1 when e lies inside a part."""
    vmap = _ranks(_part_names(g.vertex_count, parts))
    new_edges = []
    edge_map = []
    for u, v in g.edges:
        a, b = vmap[u], vmap[v]
        edge_map.append(len(new_edges) if a != b else -1)
        if a != b:
            new_edges.append((a, b))
    return MultiGraph(max(vmap, default=-1) + 1, tuple(new_edges)), vmap, edge_map


def replace_vertex_with_triangle(g: MultiGraph, v: int) -> MultiGraph:
    """Replaces a degree-3 vertex by a triangle.

    The i-th incident edge of v (in edge-list order) is reattached to the
    i-th triangle vertex; triangle vertices are v itself plus two fresh
    vertices n and n+1, and the three triangle edges are appended last.
    """
    if g.degree(v) != 3:  # degree refuses a non-vertex first
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


def _four_cut_side(
    g: MultiGraph, cut: Cut, pairing: tuple[int, int]
) -> tuple[MultiGraph, tuple[int, ...]]:
    """The preamble of both 4-cut completions: the induced side_a, and its
    attachments a_i, a_j, a_k, a_l in that graph's vertex ids, where {i, j}
    is the pairing and k < l the other two indices."""
    _require_cut(g, cut)
    if cut.size != 4:
        raise ValueError(f"cut has size {cut.size}, need 4")
    att = []
    for e in cut.cut_edges:
        u, v = g.edges[e]
        att.append(u if u in cut.side_a else v)
    if len(set(att)) != 4:
        raise ValueError("attachment vertices on the kept side are not distinct")
    i, j = pairing
    if not (_is_int(i) and _is_int(j)) or not {i, j} < {0, 1, 2, 3} or i == j:
        raise ValueError("pairing must be two distinct indices from 0..3")
    k, l = sorted({0, 1, 2, 3} - {i, j})
    sub, old_ids, _ = induced_subgraph(g, cut.side_a)
    index = {v: p for p, v in enumerate(old_ids)}
    return sub, tuple(index[att[x]] for x in (i, j, k, l))


def four_cut_completion_edges(
    g: MultiGraph, cut: Cut, pairing: tuple[int, int]
) -> MultiGraph:
    """The side_a completion that adds the two pairing edges directly.

    For a 4-cut with attachments a_0..a_3 on side_a and pairing {i,j}, the
    result is the induced side plus edges a_i a_j and a_k a_l. Complementary
    pairings give the same graph.
    """
    sub, (a_i, a_j, a_k, a_l) = _four_cut_side(g, cut, pairing)
    return MultiGraph(sub.vertex_count, sub.edges + ((a_i, a_j), (a_k, a_l)))


def four_cut_completion_vertices(
    g: MultiGraph, cut: Cut, pairing: tuple[int, int]
) -> MultiGraph:
    """The side_a completion that routes the pairing through two new vertices.

    Adds adjacent vertices x, y with x joined to a_i, a_j and y to a_k, a_l;
    the result has |side_a| + 2 vertices.
    """
    sub, (a_i, a_j, a_k, a_l) = _four_cut_side(g, cut, pairing)
    x, y = sub.vertex_count, sub.vertex_count + 1
    edges = ((a_i, x), (a_j, x), (a_k, y), (a_l, y), (x, y))
    return MultiGraph(sub.vertex_count + 2, sub.edges + edges)


# --------------------------------------------------------------------------
# Canonical forms
# --------------------------------------------------------------------------

DEFAULT_CANONICAL_BOUND = 16
_BYTE_LIMIT = 255  # every multiplicity is stored in one byte


def _invariant_colors(g: MultiGraph, mult: list[list[int]], adj: list[list[int]]) -> list[int]:
    """Isomorphism-invariant vertex colors used to seed the canonical search.

    ``mult`` is the multiplicity matrix of g and ``adj[v]`` lists the
    distinct neighbours of v. A vertex's first key is its degree, its
    sorted edge multiplicities, the number of edges among its neighbours
    and its distance profile; the colors are then refined by the sorted
    (multiplicity, color) pairs of the neighbours until the number of
    colors stops growing. Colors are ranks of keys, so any keys with the
    same order and the same equalities give the same colors; the keys
    below are chosen for speed on that basis:

    - edges among the neighbours are counted twice, once from each end;
    - the distance profile is the number of vertices outside the ball of
      radius 1, 2, ..., R, where the balls of all vertices grow together,
      as bitmasks joined along each edge, until none grows or all are
      full. Two sorted distance tuples first differ at the first radius
      whose ball sizes differ, and the one with the larger ball is
      smaller, as is its count outside (unreachable vertices sort last, at
      distance n + 1, and lie outside every ball). Past R no ball grows,
      so every profile is decided within its first R entries;
    - a neighbour pair (multiplicity, color) is mult·(n + 1) + color, which
      orders as the pair does because every color is below n + 1;
    - once every color is distinct, refinement cannot split a cell, and a
      refinement round that adds no color would return ranks equal to the
      previous ones (each key leads with the previous color), so the
      colors are returned as soon as they are discrete or stop splitting.
      A round has at least as many distinct keys as colors, and exactly as
      many when it adds none, so it is recognised by that count and its
      keys are ranked only when the count grows.
    """
    n = len(mult)
    masks = [sum(map((1).__lshift__, av)) for av in adj]
    links = set(g.edges)
    full = (1 << n) - 1
    balls = [1 << v for v in range(n)]
    outside = []
    while True:
        grown = balls.copy()
        for u, v in links:
            grown[u] |= balls[v]
            grown[v] |= balls[u]
        if grown == balls:
            break
        outside.append(list(map(int.bit_count, map(full.__xor__, grown))))
        if not any(outside[-1]):
            break
        balls = grown
    profiles = list(zip(*outside)) if outside else [()] * n
    sigs = [
        (sum(row), tuple(sorted(map(row.__getitem__, av))),
         sum(map(int.bit_count, map(near.__and__, map(masks.__getitem__, av)))),
         profile)
        for row, av, near, profile in zip(mult, adj, masks, profiles)
    ]
    colors = _ranks(sigs)
    count = max(colors) + 1
    scale = n + 1
    scaled = [[row[u] * scale for u in av] for row, av in zip(mult, adj)]
    while count < n:
        refined = [
            (c, tuple(sorted(map(add, pairs, map(colors.__getitem__, av)))))
            for c, pairs, av in zip(colors, scaled, adj)
        ]
        grown = len(set(refined))
        if grown == count:
            break
        colors, count = _ranks(refined), grown
    return colors


def _ranks(keys: list) -> list[int]:
    """Each key's position among the distinct keys in sorted order."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def canonical_form(g: MultiGraph) -> bytes:
    """A canonical byte string: equal exactly for isomorphic multigraphs.

    Encodes the vertex count followed by the lexicographically smallest
    lower-triangular multiplicity matrix over all relabelings compatible
    with the invariant vertex coloring. The search is exhaustive with
    invariant and automorphism pruning. A graph of more than
    DEFAULT_CANONICAL_BOUND vertices, or with an edge multiplicity above
    255, which takes more than the one byte every entry is stored in,
    raises ValueError before the search. The result is cached on the
    instance.
    """
    n = g.vertex_count
    if n > DEFAULT_CANONICAL_BOUND:
        raise ValueError(f"canonical_form limited to {DEFAULT_CANONICAL_BOUND} vertices, got {n}")
    form = g.__dict__.get("_canonical_form")
    if form is None:
        form = g.__dict__["_canonical_form"] = _canonical_search(g)
    return form


def _orbit(seeds: list[int], generators: list[list[int]]) -> set[int]:
    """The images of the seeds under the group the generators generate."""
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for gen in generators:
            u = gen[v]
            if u not in orbit:
                orbit.add(u)
                stack.append(u)
    return orbit


def _canonical_search(g: MultiGraph) -> bytes:
    """The smallest matrix over the labelings that place the vertices cell
    by cell in color order, as bytes: the vertex count, then row p for
    each position p >= 1, the multiplicities between the vertex at
    position p and those at positions 0..p-1.

    When the invariant colors are n distinct ones, every cell holds one
    vertex, so the color order is the one compatible labeling, found with
    no search; otherwise _search_labeling finds the best labeling. The
    bytes are read off the edges, not the dense matrix: an edge between
    the vertices at positions p > q adds 1 to entry q of row p, at byte
    1 + p(p - 1)/2 + q.
    """
    n = g.vertex_count
    if n == 0:
        return bytes([0])
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1
    top = max(map(max, mult))
    if top > _BYTE_LIMIT:
        raise ValueError(f"canonical_form stores each multiplicity in one byte: "
                         f"at most {_BYTE_LIMIT} parallel edges, got {top}")
    adj = [list(compress(range(n), row)) for row in mult]
    colors = _invariant_colors(g, mult, adj)
    if max(colors) == n - 1:
        labels = sorted(range(n), key=colors.__getitem__)
    else:
        labels = _search_labeling(mult, adj, colors, top)
    position = [0] * n
    for p, v in enumerate(labels):
        position[v] = p
    form = bytearray(1 + n * (n - 1) // 2)
    form[0] = n
    for u, v in g.edges:
        p, q = position[u], position[v]
        if p < q:
            p, q = q, p
        form[1 + p * (p - 1) // 2 + q] += 1
    return bytes(form)


def _search_labeling(
    mult: list[list[int]], adj: list[list[int]], colors: list[int], top: int
) -> list[int]:
    """Depth-first search for the labeling, cell by cell in color order,
    whose matrix is smallest; returns the vertices by position. ``top`` is
    the largest multiplicity of ``mult``.

    Row p of the matrix holds the multiplicities between the vertex at
    position p and those at positions 0..p-1, and the matrix is the rows in
    order, so a node's prefix is fixed by the vertices it has placed.

    - **Integer row keys.** Every vertex carries the key
      sum of mult(v, a_q)·B^(n-1-q) over the placed vertices a_q, where
      B = max multiplicity + 1. Each digit is below B and the placed
      positions hold the high digits, so among the candidates of a node
      integer order is the lexicographic order of their rows against the
      placed vertices. Placing or unplacing a vertex changes only its
      neighbours' keys, and placing it also raises its own key by B^n,
      above every row key, so a node finds its smallest row in one scan
      of its cell with no test for placed vertices. The caller reads the
      bytes off the best labeling.
    - **Only the smallest row is explored.** Let row_1 be the smallest
      row among a node's candidates and base the node's prefix. Once the
      subtree under row_1 is searched, the best matrix's prefix through
      row p is at most base + row_1: it was at least that when the node
      was entered, and if larger, the first leaf under row_1 became the
      new best. Any other row exceeds row_1, so its prefix exceeds the
      best one and every leaf under it would be cut; those siblings are
      never searched.
    - **A tie flag instead of comparing prefixes.** ``tie`` says that the
      node's prefix equals the best matrix's prefix; when it does not, the
      prefix is smaller (or there is no best yet), so no descendant is cut
      and every leaf below is a new best. A tied node compares its smallest
      row with the best matrix's row p alone: larger ends the node, equal
      keeps the tie, smaller drops it. After its first child a node's
      children are tied, since that child's subtree either matched the
      best prefix already or produced the new best.
    - **Automorphisms.** A tied leaf has the best matrix and yields an
      automorphism (best labeling -> this labeling). Automorphisms that
      fix the placed vertices pointwise map the subtree under a child
      onto the subtree under its image, with the same leaf matrices, so a
      child in the orbit of an explored sibling is skipped, and the search
      returns at once to the node where the two labelings part, whose
      current child is the image of the explored one.
    """
    n = len(mult)
    weight = [(top + 1) ** (n - 1 - q) for q in range(n)]
    placed = (top + 1) ** n  # above every row key: a placed vertex is never a smallest row
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    cell_at: list[list[int]] = []
    for c in sorted(cells):
        cell_at.extend([cells[c]] * len(cells[c]))

    key = [0] * n
    labels = [0] * n  # labels[q]: the vertex at position q, for q below the depth
    row_keys = [0] * n  # row_keys[q]: the row key of labels[q] when it was placed
    best_labels: list[int] = []
    best_keys: list[int] = []
    generators: list[list[int]] = []

    def rec(p: int, tie: bool) -> int:
        """Explores the node with prefix ``labels[:p]``, which equals the
        best matrix's prefix when ``tie``; returns the depth the search
        resumes at, p + 1 after a full exploration."""
        if p == n:
            if not tie:
                best_labels[:] = labels
                best_keys[:] = row_keys
                return p + 1
            gen = [0] * n
            for a, b in zip(best_labels, labels):
                gen[a] = b
            generators.append(gen)
            k = 0
            while best_labels[k] == labels[k]:
                k += 1
            return k
        cell = cell_at[p]
        low = min(map(key.__getitem__, cell))
        if tie:
            if low > best_keys[p]:
                return p + 1
            tie = low == best_keys[p]
        row_keys[p] = low
        w = weight[p]
        explored: list[int] = []
        known = 0
        fixing: list[list[int]] = []
        for v in cell:
            if key[v] != low:
                continue
            if explored:
                if len(generators) > known:
                    known = len(generators)
                    fixed = labels[:p]
                    fixing = [
                        gen for gen in generators
                        if list(map(gen.__getitem__, fixed)) == fixed
                    ]
                if fixing and v in _orbit(explored, fixing):
                    continue
            explored.append(v)
            key[v] += placed
            labels[p] = v
            row = mult[v]
            for u in adj[v]:
                key[u] += row[u] * w
            back = rec(p + 1, tie)
            for u in adj[v]:
                key[u] -= row[u] * w
            key[v] -= placed
            if back < p:
                return back
            tie = True
        return p + 1

    try:
        rec(0, False)
    finally:
        del rec  # the closure refers to itself; free it without the cyclic collector
    return best_labels

