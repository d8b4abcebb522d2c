"""Reference implementations that only the tests compare against.

None of these is on a product path: the blossom maximum matching and the
existence test built on it, the multiplicity-matrix brute force over
cubic multigraphs, Edmonds' membership conditions for the perfect
matching polytope, the inverse of canonical_form, gluing two cubic
graphs through a vertex each, the tight-cut, bicritical and brick tests
with the vertex separator search behind the last, and the klee core and
nice 3-cut tests. Tests import them as ``from oracles import ...``.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from cubicmatch.brick_brace import _is_tight_unchecked, _require_covered
from cubicmatch.connectivity import _require, enumerate_cuts
from cubicmatch.klee import _triangles, is_klee
from cubicmatch.matching import _Kernel, _validate_constraints
from cubicmatch.multigraph import (
    Cut,
    MultiGraph,
    _contract_parts,
    _is_int,
    _require_cut,
    _require_vertex,
    canonical_form,
    induced_subgraph,
)

ODD_SET_LIMIT = 16  # exhaustive odd-set checks are capped at this order


# --------------------------------------------------------------------------
# Maximum matching (blossom) and perfect matching existence
# --------------------------------------------------------------------------


def _max_matching(n, adj):
    """Maximum matching on a simple graph via blossom contraction: match[v]
    is v's partner, -1 when v is unmatched."""
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a, b):
        used2 = [False] * n
        while True:
            a = base[a]
            used2[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used2[b]:
                return b
            b = p[match[b]]

    def mark_path(v, b, child):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root):
        nonlocal p, base, used
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def has_perfect_matching(g, forced=(), forbidden=()):
    """A perfect matching of g holding the forced edges and none of the
    forbidden ones, as a sorted tuple of edge indices, or None.

    The forced endpoints are deleted, the forbidden edges dropped and the
    parallel edges merged; blossom then looks for a perfect matching of
    what is left."""
    forced, forbidden = _validate_constraints(g, forced, forbidden)
    blocked = {v for e in forced for v in g.edges[e]}
    keep = [v for v in range(g.vertex_count) if v not in blocked]
    index = {v: i for i, v in enumerate(keep)}
    adj = [set() for _ in keep]
    edge_of = {}
    for i, (u, v) in enumerate(g.edges):
        if i in forbidden or u in blocked or v in blocked:
            continue
        a, b = index[u], index[v]
        adj[a].add(b)
        adj[b].add(a)
        edge_of.setdefault((min(a, b), max(a, b)), i)
    match = _max_matching(len(keep), [sorted(s) for s in adj])
    if -1 in match:
        return None
    edges = set(forced)
    edges.update(edge_of[(v, u)] for v, u in enumerate(match) if v < u)
    return tuple(sorted(edges))


# --------------------------------------------------------------------------
# Cubic multigraphs by brute force
# --------------------------------------------------------------------------


def brute_force_cubic_multigraphs(n):
    """All connected cubic multigraphs of order n by exhausting
    upper-triangular multiplicity matrices with row sums 3.

    Intended for tiny n; returns isomorphism class representatives sorted
    by canonical form (bridged graphs included)."""
    if n % 2 or n < 2:
        return []
    seen = {}
    row = [[0] * n for _ in range(n)]
    residual = [3] * n

    def rec(i, j):
        if i == n - 1:
            if residual[i] == 0:
                edges = []
                for a in range(n):
                    for b in range(a + 1, n):
                        edges.extend([(a, b)] * row[a][b])
                g = MultiGraph(n, tuple(edges))
                if g.is_connected():
                    key = canonical_form(g)
                    if key not in seen:
                        seen[key] = g
            return
        if j == n:
            if residual[i] == 0:
                rec(i + 1, i + 2)
            return
        limit = min(residual[i], residual[j], 3)
        for m in range(limit + 1):
            row[i][j] = m
            residual[i] -= m
            residual[j] -= m
            rec(i, j + 1)
            residual[i] += m
            residual[j] += m
            row[i][j] = 0

    rec(0, 1)
    return [seen[k] for k in sorted(seen)]


# --------------------------------------------------------------------------
# The perfect matching polytope (Edmonds 1965)
# --------------------------------------------------------------------------


def polytope_membership(g, w):
    """Edmonds' conditions for membership in the perfect matching polytope.

    Checks non-negativity, unit vertex sums, and (for non-bipartite graphs)
    every odd-set cut sum at least one, by exhaustive odd-set enumeration.
    Returns (ok, witness); witnesses are ("negative_entry", e),
    ("vertex_sum", v, sum) or ("odd_set", S, sum).
    """
    m = len(g.edges)
    if len(w) != m:
        raise ValueError(f"vector length {len(w)} != edge count {m}")
    vec = [Fraction(x) for x in w]
    for e, x in enumerate(vec):
        if x < 0:
            return False, ("negative_entry", e)
    for v in range(g.vertex_count):
        s = sum(vec[i] for i, _ in g.incidence[v])
        if s != 1:
            return False, ("vertex_sum", v, s)
    if g.is_bipartite():
        # conditions (i) and (ii) suffice on bipartite graphs
        return True, None
    n = g.vertex_count
    if n > ODD_SET_LIMIT:
        raise ValueError(f"odd-set enumeration capped at {ODD_SET_LIMIT} vertices")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    # every odd set and its complement cut the same edges; fixing vertex 0
    # in S covers each bipartition once, and n even keeps both sides odd
    for bits in range(1 << (n - 1)):
        mask = (bits << 1) | 1
        size = mask.bit_count()
        if size % 2 == 0 or size == n:
            continue
        s = Fraction(0)
        for i, em in enumerate(edge_masks):
            hit = em & mask
            if hit and hit != em:
                s += vec[i]
        if s < 1:
            return False, ("odd_set", frozenset(v for v in range(n) if (mask >> v) & 1), s)
    return True, None


# --------------------------------------------------------------------------
# Constructions
# --------------------------------------------------------------------------


def from_canonical(data):
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


def glue(g, u, h, v, slot_map=(0, 1, 2)):
    """Glues g and h through degree-3 vertices u and v.

    The result is the disjoint union of g minus u and h minus v, plus three
    edges joining the former edge slots: slot i of u is matched with slot
    slot_map[i] of v. Gluing with K4 is the same as replacing u by a
    triangle, up to isomorphism.
    """
    _require_vertex(g, u)
    _require_vertex(h, v)
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


# --------------------------------------------------------------------------
# Tight cuts, bicritical graphs and bricks
# --------------------------------------------------------------------------


def is_tight(g: MultiGraph, cut: Cut) -> bool:
    """True when every perfect matching uses exactly one cut edge."""
    _require_cut(g, cut)
    kernel = _Kernel(g, who="is_tight")
    _require_covered(kernel, "is_tight")
    return _is_tight_unchecked(kernel, len(cut.side_a), cut.cut_edges)


def is_bicritical(g: MultiGraph) -> bool:
    """True when removing any two vertices leaves a perfectly matchable graph."""
    if g.vertex_count % 2:
        raise ValueError("is_bicritical requires an even number of vertices")
    kernel = _Kernel(g, who="is_bicritical")
    pairs = combinations(range(g.vertex_count), 2)
    return all(kernel.count((1 << u) | (1 << v)) for u, v in pairs)


def is_brick(g: MultiGraph) -> bool:
    """Edmonds et al.: a brick is exactly a 3-vertex-connected bicritical graph."""
    if g.vertex_count < 4 or g.vertex_count % 2:
        return False
    if vertex_connectivity_at_most(g, 2):
        return False
    return is_bicritical(g)


@dataclass(frozen=True)
class SeparationWitness:
    separates: bool
    vertices: frozenset[int] | None

    def __bool__(self) -> bool:
        return self.separates


def _separator(g: MultiGraph, max_size: int) -> tuple[int, ...] | None:
    """The first vertex set of at most max_size vertices, by size and then
    lexicographically, whose removal leaves a disconnected graph on at
    least 2 vertices; None when there is none. Brute force, desk scale."""
    n = g.vertex_count
    for size in range(min(max_size, n - 2) + 1):
        for subset in combinations(range(n), size):
            rest = [v for v in range(n) if v not in subset]
            sub, _, _ = induced_subgraph(g, rest)
            if not sub.is_connected():
                return subset
    return None


def vertex_connectivity_at_most(g: MultiGraph, k: int) -> SeparationWitness:
    """Searches for a separating vertex set of size <= k (0 <= k <= 3).

    Returns a truthy witness holding the separating set when one exists.
    A disconnected graph is separated by the empty set.
    """
    if not _is_int(k) or not 0 <= k <= 3:
        raise ValueError(
            f"vertex connectivity checks support an int k with 0 <= k <= 3 only, got {k!r}"
        )
    subset = _separator(g, k)
    if subset is None:
        return SeparationWitness(False, None)
    return SeparationWitness(True, frozenset(subset))


# --------------------------------------------------------------------------
# Klee core and nice 3-cuts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NiceCutResult:
    nice: bool
    clause: str | None
    contracted_side: str | None  # which side plays the 'A' role in the clause

    def __bool__(self) -> bool:
        return self.nice


def triangles(g: MultiGraph) -> list[tuple[int, int, int]]:
    """All vertex triples a < b < c that are pairwise adjacent, in
    lexicographic order."""
    return list(_triangles({v: g.neighbors(v) for v in range(g.vertex_count)}))


def core(g: MultiGraph) -> MultiGraph:
    """Contracts every triangle of g simultaneously.

    Requires a cubic, connected, bridgeless graph in which every cyclic
    3-edge-cut separates a triangle and all triangles are vertex-disjoint;
    violations raise ValueError.
    """
    _require(g, "core", cubic=True, connected=True, bridgeless=True)
    tris = triangles(g)
    seen: set[int] = set()
    for tri in tris:
        if seen & set(tri):
            raise ValueError("overlapping triangles; core is not defined")
        seen |= set(tri)
    # a nontrivial 3-cut is cyclic: each side has at least 3 vertices and
    # spans (3|S| - 3)/2 >= |S| edges
    for cut in enumerate_cuts(g, 3, nontrivial_only=True):
        if cut.size == 3:
            small = cut.side_a if len(cut.side_a) <= len(cut.side_b) else cut.side_b
            if len(small) != 3 or tuple(sorted(small)) not in tris:
                raise ValueError(
                    f"cyclic 3-edge-cut with side {sorted(small)} does not "
                    "separate a triangle"
                )
    if not tris:
        return g
    return _contract_parts(g, [frozenset(tri) for tri in tris])[0]


def _nice_oriented(kernel: _Kernel, g: MultiGraph, cut: Cut) -> str | None:
    """Evaluates the nice-cut clauses with cut.side_a as 'A', on the caller's kernel.

    Returns the clause label that fires, or None. The roles: the cut is
    nice when contracting A leaves a non-klee graph and one of
    (i) contracting B also leaves a non-klee graph, (ii) |A| >= 9,
    (iii) |A| >= 5 and the cut is not tight, (iv) |A| = 3 and at least two
    perfect matchings contain all three cut edges: the cut edges' per-edge
    counts sum to the total plus twice that number.

    g is connected and bridgeless, so each side of the 3-cut is connected:
    a component of a side needs two of the three cut edges. Both sides are
    contracted with no check repeated, and each contraction is cubic and
    connected.
    """
    if is_klee(_contract_parts(g, [cut.side_a])[0]):
        return None
    if not is_klee(_contract_parts(g, [cut.side_b])[0]):
        return "i"
    a = len(cut.side_a)
    if a >= 9:
        return "ii"
    if a >= 5 and not _is_tight_unchecked(kernel, a, cut.cut_edges):
        return "iii"
    if a == 3:
        table = kernel.edge_counts()
        if (sum(table[e] for e in cut.cut_edges) - kernel.count(0)) // 2 >= 2:
            return "iv"
    return None


def is_nice_cut(g: MultiGraph, cut: Cut) -> NiceCutResult:
    """Nice 3-edge-cut test; both orientations of the cut are tried."""
    _require(g, "is_nice_cut", cubic=True, connected=True, bridgeless=True)
    _require_cut(g, cut)
    if cut.size != 3:
        raise ValueError(f"nice cuts must have size 3, got {cut.size}")
    kernel = _Kernel(g, who="is_nice_cut")
    for role, oriented in (("side_a", cut), ("side_b", cut.flipped())):
        clause = _nice_oriented(kernel, g, oriented)
        if clause is not None:
            return NiceCutResult(True, clause, role)
    return NiceCutResult(False, None, None)
