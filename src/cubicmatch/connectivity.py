"""Bridges, cut enumeration, edge/vertex connectivity, cyclic edge-connectivity.

All routines are pure functions over immutable MultiGraph values. Cut
searches enumerate connected side-A seeds rather than all bipartitions;
the 2^n bipartition scan survives in the test suite as an oracle.
"""

from __future__ import annotations

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


NO_CYCLIC_CUT = _NoCyclicCut()


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
    subset, each exactly once.

    Subsets are grown from their minimum vertex; cut sizes are maintained
    incrementally (multiplicities included).
    """
    n = g.vertex_count
    nbr = [0] * n
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        mult[(u, v)] = mult.get((u, v), 0) + 1
        mult[(v, u)] = mult[(u, v)]
    full = (1 << n) - 1

    def edges_into(u: int, mask: int) -> int:
        total = 0
        inside = nbr[u] & mask
        while inside:
            low = inside & -inside
            total += mult[(u, low.bit_length() - 1)]
            inside &= inside - 1
        return total

    def rec(cur: int, reach: int, allowed: int, excluded: int, cut: int) -> Iterator[tuple[int, int]]:
        if cur != full:
            yield cur, cut
        ext = reach & allowed & ~cur & ~excluded
        ex = excluded
        while ext:
            low = ext & -ext
            u = low.bit_length() - 1
            new_cut = cut + deg[u] - 2 * edges_into(u, cur)
            yield from rec(cur | low, reach | nbr[u], allowed, ex, new_cut)
            ex |= low
            ext &= ext - 1

    for s in range(n):
        allowed = full & ~((1 << (s + 1)) - 1)
        yield from rec(1 << s, nbr[s], allowed, 0, deg[s])


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
    base: list[tuple[int, int]] = [
        (mask, cut) for mask, cut in _connected_side_masks(g) if cut <= max_size
    ]
    sides: dict[int, int] = dict(base)
    pool = list(base)
    full = (1 << n) - 1
    while pool:
        new_pool = []
        for a_mask, a_cut in pool:
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
        cut = make_cut(g, _mask_vertices(canon))
        if nontrivial_only and (len(cut.side_a) < 3 or len(cut.side_b) < 3):
            continue
        out[canon] = cut
    return sorted(
        out.values(), key=lambda c: (c.size, len(c.side_a), tuple(sorted(c.side_a)))
    )


def edge_connectivity(g: MultiGraph) -> int:
    """Minimum edge-cut size; 0 for disconnected graphs."""
    if g.vertex_count <= 1:
        return 0
    if not g.is_connected():
        return 0
    best = len(g.edges)
    for _, cut in _connected_side_masks(g):
        if cut < best:
            best = cut
    return best


def cyclic_edge_connectivity(g: MultiGraph) -> int | _NoCyclicCut:
    """Minimum size of a cyclic edge-cut, or NO_CYCLIC_CUT if none exists.

    Requires a connected graph of minimum degree at least 3. Some minimum
    cyclic cut always has one connected side, so connected seeds suffice.
    """
    if not g.is_connected():
        raise ValueError("cyclic_edge_connectivity requires a connected graph")
    if any(d < 3 for d in g.degrees()):
        raise ValueError("cyclic_edge_connectivity requires minimum degree 3")
    all_vertices = frozenset(range(g.vertex_count))
    best: int | None = None
    for mask, cut in _connected_side_masks(g):
        if best is not None and cut >= best:
            continue
        side = _mask_vertices(mask)
        if _has_cycle(g, side) and _has_cycle(g, all_vertices - side):
            best = cut
    return NO_CYCLIC_CUT if best is None else best


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
