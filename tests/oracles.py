"""Reference implementations that only the tests compare against.

None of these is on a product path: the blossom maximum matching and the
existence test built on it, the multiplicity-matrix brute force over
cubic multigraphs, Edmonds' membership conditions for the perfect
matching polytope, the inverse of canonical_form, and gluing two cubic
graphs through a vertex each. Tests import them as ``from oracles
import ...``.
"""

from collections import deque
from fractions import Fraction

from cubicmatch.matching import _validate_constraints
from cubicmatch.multigraph import MultiGraph, _require_vertex, canonical_form

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
