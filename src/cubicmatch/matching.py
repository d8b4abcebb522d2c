"""Exact perfect-matching existence, counting, and boundary profiles.

Counts treat parallel edges as distinguishable objects: the 3-bond has
three perfect matchings. One memoized kernel answers every count; blossom
is kept only for Tutte certificates. The kernel is guarded by a plain
edge-subset oracle that walks the full inclusion/exclusion tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .multigraph import Cut, MultiGraph

COUNT_LIMIT = 1 << 63  # counts are required to fit in 64-bit integers


@dataclass(frozen=True)
class TutteBarrier:
    """A set S whose removal leaves more than |S| odd components."""

    vertices: frozenset[int]
    odd_component_count: int


@dataclass(frozen=True)
class MatchingCertificate:
    exists: bool
    matching: tuple[int, ...] | None
    barrier: TutteBarrier | None

    def __bool__(self) -> bool:
        return self.exists


@dataclass(frozen=True)
class MatchingProfile:
    """Exact per-edge perfect matching counts under the given constraints."""

    total: int
    per_edge: dict[int, int]
    forced: frozenset[int]
    forbidden: frozenset[int]

    @property
    def matching_covered(self) -> bool:
        return all(c >= 1 for c in self.per_edge.values())

    @property
    def double_covered(self) -> bool:
        return all(c >= 2 for c in self.per_edge.values())


@dataclass
class BoundaryProfile:
    """Tables m_a[X], m_b[X] of side matchings leaving the X-attachments open.

    Keys are frozensets of positions into cut.cut_edges. m_a[X] counts the
    matchings of the side_a induced subgraph covering everything except the
    side_a endpoints of the cut edges indexed by X; a subset whose
    attachment vertices coincide has count 0.
    """

    cut: Cut
    m_a: dict[frozenset[int], int] = field(default_factory=dict)
    m_b: dict[frozenset[int], int] = field(default_factory=dict)


def _validate_constraints(
    g: MultiGraph, forced: frozenset[int], forbidden: frozenset[int]
) -> None:
    m = len(g.edges)
    for e in forced | forbidden:
        if not 0 <= e < m:
            raise ValueError(f"edge index {e} out of range")
    if forced & forbidden:
        raise ValueError("forced and forbidden edges overlap")
    used: set[int] = set()
    for e in forced:
        u, v = g.edges[e]
        if u in used or v in used:
            raise ValueError("forced edges do not form a matching")
        used.update((u, v))


class _Kernel:
    """Counts perfect matchings of G - X (X a vertex bitmask) in g without
    the forbidden edges, branching on a vertex of minimum remaining degree.
    The count depends on the mask alone, so one memo serves every query of
    one public call: forced edges, per-edge counts, boundary tables and
    vertex deletions are all masks."""

    def __init__(self, g: MultiGraph, forbidden: frozenset[int] = frozenset()) -> None:
        self.full = (1 << g.vertex_count) - 1
        self.inc: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
        for i, (u, v) in enumerate(g.edges):
            if i not in forbidden:
                self.inc[u].append((i, v))
                self.inc[v].append((i, u))
        self._memo = {self.full: 1}

    def pivot(self, mask: int) -> int:
        """An uncovered vertex of minimum remaining degree, or -1 when some
        uncovered vertex has none left."""
        best_v, best_d = -1, 1 << 30
        for v, edges in enumerate(self.inc):
            if (mask >> v) & 1:
                continue
            d = 0
            for _, u in edges:
                if not (mask >> u) & 1:
                    d += 1
            if d < best_d:
                best_v, best_d = v, d
                if d <= 1:
                    break
        return -1 if best_d == 0 else best_v

    def _rec(self, mask: int) -> int:
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        v = self.pivot(mask)
        if v >= 0:
            base = mask | (1 << v)
            for _, u in self.inc[v]:
                if not (mask >> u) & 1:
                    total += self._rec(base | (1 << u))
        self._memo[mask] = total
        return total

    def count(self, mask: int) -> int:
        """Number of perfect matchings of G - mask."""
        if (self.full ^ mask).bit_count() % 2:
            return 0
        result = self._rec(mask)
        if result >= COUNT_LIMIT:
            raise OverflowError("perfect matching count exceeds 64-bit range")
        return result


def _vertex_mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


def _forced_mask(g: MultiGraph, forced: Iterable[int]) -> int:
    return _vertex_mask(v for e in forced for v in g.edges[e])


def count_perfect_matchings(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> int:
    """Exact number of perfect matchings containing all forced edges and
    avoiding all forbidden ones."""
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    _validate_constraints(g, forced, forbidden)
    return _Kernel(g, forbidden).count(_forced_mask(g, forced))


def count_perfect_matchings_oracle(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> int:
    """Brute-force oracle: walks the 2^|E| edge-subset tree in index order,
    counting subsets that are perfect matchings. Kept deliberately free of
    the optimized counter's heuristics."""
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    _validate_constraints(g, forced, forbidden)
    n = g.vertex_count
    m = len(g.edges)
    full = (1 << n) - 1
    masks = [(1 << u) | (1 << v) for u, v in g.edges]

    def rec(idx: int, cover: int) -> int:
        if idx == m:
            return 1 if cover == full else 0
        total = 0
        if idx not in forbidden and not (cover & masks[idx]):
            total += rec(idx + 1, cover | masks[idx])
        if idx not in forced:
            total += rec(idx + 1, cover)
        return total

    return rec(0, 0)


def enumerate_perfect_matchings(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> Iterator[tuple[int, ...]]:
    """Yields every perfect matching as a sorted tuple of edge indices,
    following the kernel's branching and skipping branches that count 0."""
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    _validate_constraints(g, forced, forbidden)
    kernel = _Kernel(g, forbidden)
    chosen: list[int] = list(forced)

    def rec(mask: int) -> Iterator[tuple[int, ...]]:
        if mask == kernel.full:
            yield tuple(sorted(chosen))
            return
        v = kernel.pivot(mask)
        for i, u in kernel.inc[v]:
            if not (mask >> u) & 1:
                sub = mask | (1 << v) | (1 << u)
                if kernel.count(sub):
                    chosen.append(i)
                    yield from rec(sub)
                    chosen.pop()

    covered = _forced_mask(g, forced)
    if kernel.count(covered):
        yield from rec(covered)


# --------------------------------------------------------------------------
# Maximum matching (blossom) and Tutte barriers
# --------------------------------------------------------------------------


def _max_matching(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching on a simple graph via blossom contraction."""
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

    def lca(a: int, b: int) -> int:
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

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
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


def _matching_size(n: int, adj: list[list[int]]) -> int:
    return sum(1 for v in _max_matching(n, adj) if v != -1) // 2


def _residual(
    g: MultiGraph, forced: frozenset[int], forbidden: frozenset[int]
) -> tuple[list[int], list[list[int]], dict[tuple[int, int], int]]:
    """Deletes forced endpoints and forbidden edges; returns kept vertex ids,
    a simple adjacency on reindexed vertices, and a map back to edge ids."""
    blocked = set()
    for e in forced:
        blocked.update(g.edges[e])
    keep = [v for v in range(g.vertex_count) if v not in blocked]
    index = {v: i for i, v in enumerate(keep)}
    adj: list[set[int]] = [set() for _ in keep]
    edge_of: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(g.edges):
        if i in forbidden or u in blocked or v in blocked:
            continue
        a, b = index[u], index[v]
        adj[a].add(b)
        adj[b].add(a)
        key = (min(a, b), max(a, b))
        if key not in edge_of:
            edge_of[key] = i
    return keep, [sorted(s) for s in adj], edge_of


def has_perfect_matching(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> MatchingCertificate:
    """Decides constrained perfect matching existence.

    On success the certificate carries a matching (edge indices, forced
    included); on failure it carries a Tutte barrier of the constrained
    residual graph, mapped back to original vertex ids.
    """
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    _validate_constraints(g, forced, forbidden)
    keep, adj, edge_of = _residual(g, forced, forbidden)
    n = len(keep)
    match = _max_matching(n, adj)
    if all(x != -1 for x in match):
        edges = set(forced)
        for v, u in enumerate(match):
            if v < u:
                edges.add(edge_of[(v, u)])
        return MatchingCertificate(True, tuple(sorted(edges)), None)
    nu = sum(1 for x in match if x != -1) // 2
    # Gallai-Edmonds: D = vertices missed by some maximum matching,
    # computed by deletion probes; the barrier is A = N(D) - D.
    d_set = []
    for v in range(n):
        sub_adj = [[u - (u > v) for u in adj[w] if u != v] for w in range(n) if w != v]
        if _matching_size(n - 1, sub_adj) == nu:
            d_set.append(v)
    d_mask = set(d_set)
    a_set = sorted({u for v in d_set for u in adj[v]} - d_mask)
    barrier_local = set(a_set)
    odd = 0
    seen = [False] * n
    for s in range(n):
        if seen[s] or s in barrier_local:
            continue
        comp = 0
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp += 1
            for u in adj[v]:
                if not seen[u] and u not in barrier_local:
                    seen[u] = True
                    stack.append(u)
        odd += comp % 2
    barrier = TutteBarrier(frozenset(keep[v] for v in a_set), odd)
    return MatchingCertificate(False, None, barrier)


# Existence is a kernel lookup; the name stays because perfbench/run.py
# traces it by name as part of the matching layer.
def _has_pm(g: MultiGraph, forced: frozenset[int] = frozenset(),
            forbidden: frozenset[int] = frozenset()) -> bool:
    """Existence-only fast path, no certificates."""
    return _Kernel(g, forbidden).count(_forced_mask(g, forced)) > 0


def matching_profile(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> MatchingProfile:
    """Total and per-edge perfect matching counts; flags matching covered
    and double covered via the per-edge table."""
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    _validate_constraints(g, forced, forbidden)
    kernel = _Kernel(g, forbidden)
    covered = _forced_mask(g, forced)
    total = kernel.count(covered)
    per: dict[int, int] = {}
    for e, (u, v) in enumerate(g.edges):
        if e in forbidden:
            per[e] = 0
        elif e in forced:
            per[e] = total
        else:
            ends = (1 << u) | (1 << v)
            per[e] = 0 if covered & ends else kernel.count(covered | ends)
    return MatchingProfile(total, per, forced, forbidden)


def is_matching_covered(g: MultiGraph) -> bool:
    kernel = _Kernel(g)
    return len(g.edges) > 0 and all(
        kernel.count((1 << u) | (1 << v)) for u, v in g.edges
    )


def boundary_profile(g: MultiGraph, cut: Cut) -> BoundaryProfile:
    """Builds the m_a / m_b tables by constrained counting on each side.

    Cut sizes up to 4 are supported; the total count of g equals
    sum over X of m_a[X] * m_b[X].
    """
    k = cut.size
    if k > 4:
        raise ValueError(f"boundary_profile supports cuts of size <= 4, got {k}")
    profile = BoundaryProfile(cut)
    kernel = _Kernel(g)
    for side, table in ((cut.side_a, profile.m_a), (cut.side_b, profile.m_b)):
        other = kernel.full & ~_vertex_mask(side)
        attachments = []
        for e in cut.cut_edges:
            u, v = g.edges[e]
            attachments.append(u if u in side else v)
        for bits in range(1 << k):
            x = frozenset(i for i in range(k) if (bits >> i) & 1)
            att = [attachments[i] for i in x]
            if len(set(att)) != len(att):
                table[x] = 0
                continue
            table[x] = kernel.count(other | _vertex_mask(att))
    return profile


def count_avoiding(g: MultiGraph, e: int) -> int:
    """Perfect matchings avoiding the single edge e."""
    if not 0 <= e < len(g.edges):
        raise ValueError(f"edge index {e} out of range")
    return count_perfect_matchings(g, forbidden=(e,))
