"""Bridges, cut enumeration, edge/vertex connectivity, cyclic edge-connectivity.

All routines are pure functions over immutable MultiGraph values. Cut
searches enumerate connected side-A seeds rather than all bipartitions;
the 2^n bipartition scan survives in the test suite as an oracle. One
walk of the connected sides per graph instance, its cut census, answers
edge connectivity, cyclic edge connectivity and every cut query up to
size SMALL_CUT_LIMIT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .multigraph import Cut, MultiGraph, induced_subgraph, make_cut


class _NoCyclicCut:
    """Sentinel for graphs without any cyclic edge-cut (e.g. K4).

    Callers that test "cyclically k-edge-connected" treat it as vacuously
    at least k, for every k.
    """

    def __repr__(self) -> str:
        return "NO_CYCLIC_CUT"

    def __reduce__(self) -> str:
        # unpickles as the module attribute, so identity tests keep working
        return "NO_CYCLIC_CUT"


NO_CYCLIC_CUT = _NoCyclicCut()

SMALL_CUT_LIMIT = 4  # the census keeps every connected side cut this small


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    bridge_count: int
    edge_connectivity: int
    vertex_connectivity: int
    cyclic_edge_connectivity: int | _NoCyclicCut


@dataclass(frozen=True)
class SeparationWitness:
    separates: bool
    vertices: frozenset[int] | None

    def __bool__(self) -> bool:
        return self.separates


def bridges(g: MultiGraph) -> list[int]:
    """Edge indices whose removal disconnects their component.

    Parallel edges are never bridges.
    """
    n = g.vertex_count
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    out: list[int] = []
    counter = [0]

    def dfs(root: int) -> None:
        stack = [(root, -1, iter(g.incidence[root]))]
        visited[root] = True
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for ei, u in it:
                if ei == in_edge:
                    continue
                if not visited[u]:
                    visited[u] = True
                    disc[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append((u, ei, iter(g.incidence[u])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[u])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.append(in_edge)

    for s in range(n):
        if not visited[s]:
            dfs(s)
    return sorted(out)


def _has_cycle(g: MultiGraph, side: frozenset[int]) -> bool:
    """True when the subgraph induced by `side` contains a cycle.

    A parallel pair counts as a cycle, consistent with contraction
    semantics.
    """
    sub, _, _ = induced_subgraph(g, side)
    if len(sub.edges) >= len(side):
        return True
    comp = 0
    seen = [False] * sub.vertex_count
    for s in range(sub.vertex_count):
        if seen[s]:
            continue
        comp += 1
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            for _, u in sub.incidence[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return len(sub.edges) > sub.vertex_count - comp


def is_cyclic_cut(g: MultiGraph, cut: Cut) -> bool:
    """True when both sides of the cut induce a subgraph containing a cycle."""
    return _has_cycle(g, cut.side_a) and _has_cycle(g, cut.side_b)


def _connected_side_masks(g: MultiGraph) -> Iterator[tuple[int, int]]:
    """Yields (mask, cut_size) for every non-empty proper connected vertex
    subset, each exactly once, in no particular order.

    Subsets are grown from their minimum vertex on an explicit stack; cut
    sizes are maintained incrementally (multiplicities included).
    """
    n = g.vertex_count
    deg = g.degrees()
    # levels[u][k]: the neighbours joined to u by more than k parallel edges,
    # so the edges from u into a set S number sum((m & S).bit_count())
    levels: list[list[int]] = [[] for _ in range(n)]
    for (u, v), mult in Counter(g.edges).items():
        for a, b in ((u, v), (v, u)):
            lv = levels[a]
            lv.extend([0] * (mult - len(lv)))
            for k in range(mult):
                lv[k] |= 1 << b
    nbr = [lv[0] if lv else 0 for lv in levels]
    full = (1 << n) - 1
    for s in range(n):
        # frame: (subset, its neighbourhood, vertices it may still take, cut)
        stack = [(1 << s, nbr[s], full & ~((2 << s) - 1), deg[s])]
        while stack:
            cur, reach, avail, cut = stack.pop()
            if cur != full:
                yield cur, cut
            ext = reach & avail
            while ext:
                low = ext & -ext
                ext ^= low
                # later siblings and their subtrees never take this vertex
                avail ^= low
                u = low.bit_length() - 1
                into = 0
                for m in levels[u]:
                    into += (m & cur).bit_count()
                stack.append((cur | low, reach | nbr[u], avail, cut + deg[u] - 2 * into))


class _CutCensus:
    """What one walk of a graph's connected sides says about its cuts.

    small_sides holds every connected side whose cut has at most
    SMALL_CUT_LIMIT edges, each as the int mask << 3 | cut_size.
    """

    __slots__ = ("edge_connectivity", "cyclic_edge_connectivity", "small_sides")

    def __init__(self, g: MultiGraph) -> None:
        n = g.vertex_count
        full = (1 << n) - 1
        deg = g.degrees()
        total_deg = 2 * len(g.edges)
        by_degree = [(d, sum(1 << v for v in range(n) if deg[v] == d)) for d in set(deg)]
        best = len(g.edges)
        cyclic: int | None = None
        small: list[int] = []
        for mask, cut in _connected_side_masks(g):
            if cut < best:
                best = cut
            if cut <= SMALL_CUT_LIMIT:
                small.append(mask << 3 | cut)
            if cyclic is not None and cut >= cyclic:
                continue
            size = mask.bit_count()
            side_deg = 0
            for d, vertices in by_degree:
                side_deg += d * (mask & vertices).bit_count()
            # a connected side has a cycle exactly when it spans |S| edges;
            # a possibly disconnected rest has one at least when it does
            if side_deg - cut < 2 * size:
                continue
            if total_deg - side_deg - cut >= 2 * (n - size) or _has_cycle(
                g, _mask_vertices(full & ~mask)
            ):
                cyclic = cut
        self.edge_connectivity = best
        self.cyclic_edge_connectivity = NO_CYCLIC_CUT if cyclic is None else cyclic
        self.small_sides = tuple(small)


def _census(g: MultiGraph) -> _CutCensus:
    """The graph's cut census: taken on first use, then kept on the
    instance next to its cached incidence lists (graphs are immutable)."""
    census = g.__dict__.get("_cut_census")
    if census is None:
        census = g.__dict__["_cut_census"] = _CutCensus(g)
    return census


def _mask_vertices(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def enumerate_cuts(
    g: MultiGraph, max_size: int, nontrivial_only: bool = False
) -> list[Cut]:
    """All edge-cuts of size <= max_size, one representative per bipartition.

    Connected sides are enumerated directly; cuts with both sides
    disconnected arise as unions of vertex-disjoint connected pieces with
    no edges between them, and are closed over explicitly. With
    nontrivial_only, both sides must have at least 3 vertices. side_a is
    always the side containing vertex 0.
    """
    n = g.vertex_count
    if n < 2:
        return []
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    if max_size <= SMALL_CUT_LIMIT:
        base = [
            (side >> 3, side & 7)
            for side in _census(g).small_sides
            if side & 7 <= max_size
        ]
    else:
        base = [(mask, cut) for mask, cut in _connected_side_masks(g) if cut <= max_size]
    sides: dict[int, int] = dict(base)
    # a union adds at least the smallest base cut, so a piece whose cut
    # plus that exceeds max_size can grow no further
    room = max_size - min((cut for _, cut in base), default=0)
    pool = list(base)
    full = (1 << n) - 1
    while pool:
        new_pool = []
        for a_mask, a_cut in pool:
            if a_cut > room:
                continue
            a_reach = 0
            m = a_mask
            while m:
                low = m & -m
                a_reach |= nbr[low.bit_length() - 1]
                m &= m - 1
            for b_mask, b_cut in base:
                if (a_mask & b_mask) or (a_reach & b_mask):
                    continue
                if (b_mask & -b_mask) <= (a_mask & -a_mask):
                    continue
                union = a_mask | b_mask
                total = a_cut + b_cut
                if union == full or total > max_size or union in sides:
                    continue
                sides[union] = total
                new_pool.append((union, total))
        pool = new_pool
    out: dict[int, Cut] = {}
    for mask in sides:
        canon = mask if mask & 1 else full & ~mask
        if canon in out:
            continue
        if nontrivial_only and not 3 <= canon.bit_count() <= n - 3:
            continue
        out[canon] = make_cut(g, _mask_vertices(canon))
    return sorted(
        out.values(), key=lambda c: (c.size, len(c.side_a), tuple(sorted(c.side_a)))
    )


def edge_connectivity(g: MultiGraph) -> int:
    """Minimum edge-cut size; 0 for disconnected graphs."""
    if g.vertex_count <= 1:
        return 0
    if not g.is_connected():
        return 0
    return _census(g).edge_connectivity


def cyclic_edge_connectivity(g: MultiGraph) -> int | _NoCyclicCut:
    """Minimum size of a cyclic edge-cut, or NO_CYCLIC_CUT if none exists.

    Requires a connected graph of minimum degree at least 3. Both sides of
    a minimum cyclic cut induce connected subgraphs: if a side split into
    parts, moving one part across while a cycle stays behind would give a
    smaller cyclic cut, since the part has edges only to the other side
    and the graph is connected. So the connected sides of the graph's cut
    census suffice.
    """
    if not g.is_connected():
        raise ValueError("cyclic_edge_connectivity requires a connected graph")
    if any(d < 3 for d in g.degrees()):
        raise ValueError("cyclic_edge_connectivity requires minimum degree 3")
    return _census(g).cyclic_edge_connectivity


def cyclic_value_at_least(c: int | _NoCyclicCut, k: int) -> bool:
    """Compares a cyclic_edge_connectivity value with k; NO_CYCLIC_CUT is >= k."""
    return c is NO_CYCLIC_CUT or c >= k


def cyclically_edge_connected_at_least(g: MultiGraph, k: int) -> bool:
    """Treats the NO_CYCLIC_CUT sentinel as vacuously >= k."""
    return cyclic_value_at_least(cyclic_edge_connectivity(g), k)


def vertex_connectivity_at_most(g: MultiGraph, k: int) -> SeparationWitness:
    """Searches for a separating vertex set of size <= k (k <= 3).

    Returns a truthy witness holding the separating set when one exists.
    A disconnected graph is separated by the empty set.
    """
    if k > 3:
        raise ValueError("vertex connectivity checks support k <= 3 only")
    n = g.vertex_count
    for size in range(0, k + 1):
        if n - size < 2:
            break
        for subset in combinations(range(n), size):
            rest = [v for v in range(n) if v not in subset]
            sub, _, _ = induced_subgraph(g, rest)
            if not sub.is_connected():
                return SeparationWitness(True, frozenset(subset))
    return SeparationWitness(False, None)


def vertex_connectivity(g: MultiGraph) -> int:
    """Exact vertex connectivity by brute force, desk scale."""
    n = g.vertex_count
    if n <= 1:
        return 0
    for size in range(0, n - 1):
        for subset in combinations(range(n), size):
            rest = [v for v in range(n) if v not in subset]
            sub, _, _ = induced_subgraph(g, rest)
            if not sub.is_connected():
                return size
    return n - 1


def connectivity_report(g: MultiGraph) -> ConnectivityReport:
    connected = g.is_connected()
    bcount = len(bridges(g))
    ec = edge_connectivity(g)
    vc = vertex_connectivity(g)
    if connected and all(d >= 3 for d in g.degrees()):
        cec = cyclic_edge_connectivity(g)
    else:
        cec = NO_CYCLIC_CUT
    return ConnectivityReport(connected, bcount, ec, vc, cec)
