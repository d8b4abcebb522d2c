"""Bridges, cut enumeration, edge/vertex connectivity, cyclic edge-connectivity.

All routines are pure functions over immutable MultiGraph values. Cut
queries read the graph's cut space through a spanning forest: every edge
gets a signature, the set of fundamental cycles through it, and an edge
set is a cut exactly when its signatures XOR to 0. The cuts of size k
are the zero-XOR k-edge sets, found by a meet-in-the-middle match, so
edge connectivity and every query for the cuts up to a fixed size take
time polynomial in the number of edges m; a cyclic edge connectivity of
c takes about m^ceil(c/2) steps and as many stored edge sets. The
signatures and every cut of at most four edges are kept on the graph
instance. The 2^n bipartition scan and the former census of connected
sides survive in the test suite as oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

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
    sizes are maintained incrementally (multiplicities included). No query
    uses this exponential walk; the name stays because perfbench/run.py
    traces it by name as part of the connectivity layer.
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


class _CutSpace:
    """A graph's cut space, read through a BFS spanning forest.

    sig[e] holds the fundamental cycles through edge e as bits: the i-th
    non-tree edge owns bit i, and a tree edge carries the bits of the
    non-tree edges that leave the subtree below it. An edge set F is a cut
    delta(S) exactly when its signatures XOR to 0, since the cut space is
    the orthogonal complement of the cycle space. Then the XOR of the
    below masks of F's tree edges (below[e] is the vertex set of the
    subtree under tree edge e, 0 for a non-tree edge) is the S that holds
    no tree root; with several components, every component but vertex 0's
    may also move to the other side.

    small holds every cut of at most _KEPT_CUT_SIZE edges as (side_a mask,
    size), side_a holding vertex 0, in enumerate_cuts' order. cyclic is the
    cyclic edge connectivity once asked for, None before.
    """

    __slots__ = ("sig", "below", "components", "small", "cyclic")

    def __init__(self, g: MultiGraph) -> None:
        n = g.vertex_count
        edges = g.edges
        parent_edge = [-1] * n
        seen = [False] * n
        order: list[int] = []
        components = []
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            start = len(order)
            order.append(root)
            i = start
            while i < len(order):
                v = order[i]
                i += 1
                for e, u in g.incidence[v]:
                    if not seen[u]:
                        seen[u] = True
                        parent_edge[u] = e
                        order.append(u)
            components.append(sum(1 << v for v in order[start:]))
        tree = set(parent_edge)
        sig = [0] * len(edges)
        # at[v]: XOR of the bits of the non-tree edges at v, then of those
        # leaving v's subtree once its children are folded in
        at = [0] * n
        bit = 1
        for e, (u, v) in enumerate(edges):
            if e not in tree:
                sig[e] = bit
                at[u] ^= bit
                at[v] ^= bit
                bit <<= 1
        below = [0] * len(edges)
        sub = [1 << v for v in range(n)]
        for v in reversed(order):
            e = parent_edge[v]
            if e >= 0:
                sig[e] = at[v]
                below[e] = sub[v]
                u, w = edges[e]
                p = u + w - v
                at[p] ^= at[v]
                sub[p] |= sub[v]
        self.sig = tuple(sig)
        self.below = tuple(below)
        self.components = tuple(components)
        self.small = tuple(self.sides(range(_KEPT_CUT_SIZE + 1), n))
        self.cyclic: int | _NoCyclicCut | None = None

    def zero_sets(self, k: int, levels: dict) -> Iterator[tuple[int, ...]]:
        """Every k-edge set whose signatures XOR to 0, as a sorted tuple of
        edge indices, each once: its first k // 2 edges are matched against
        the rest through levels, which caches the j-edge sets by XOR."""
        if k == 0:
            yield ()
            return
        lows = _level(self.sig, k // 2, levels)
        highs = _level(self.sig, k - k // 2, levels)
        for x, heads in lows.items():
            tails = highs.get(x)
            if not tails:
                continue
            for a in heads:
                last = a[-1] if a else -1
                for b in tails:
                    if b[0] > last:
                        yield a + b

    def side(self, edge_set: tuple[int, ...]) -> int:
        """The side of the cut edge_set that holds no tree root."""
        s = 0
        below = self.below
        for e in edge_set:
            s ^= below[e]
        return s

    def sides(self, sizes: Iterable[int], n: int) -> list[tuple[int, int]]:
        """(side_a mask, size) of every cut whose size is in sizes, one per
        bipartition, side_a holding vertex 0, in enumerate_cuts' order."""
        full = (1 << n) - 1
        levels: dict = {}
        flips = [0]
        for comp in self.components[1:]:
            flips += [f | comp for f in flips]
        out = []
        for k in sizes:
            found = []
            for edge_set in self.zero_sets(k, levels):
                s = self.side(edge_set)
                for f in flips:
                    if s ^ f:
                        side_a = full ^ s ^ f
                        found.append((side_a.bit_count(), _bits(side_a), side_a))
            found.sort()
            out += [(side_a, k) for _, _, side_a in found]
        return out


_KEPT_CUT_SIZE = 4  # the cut space keeps every cut this small on the instance


def _level(sig: tuple[int, ...], j: int, levels: dict) -> dict[int, list[tuple[int, ...]]]:
    """The j-edge sets as sorted index tuples, grouped by the XOR of their
    signatures; built once per levels dict."""
    level = levels.get(j)
    if level is None:
        level = levels[j] = {}
        for combo in combinations(range(len(sig)), j):
            x = 0
            for e in combo:
                x ^= sig[e]
            level.setdefault(x, []).append(combo)
    return level


def _cut_space(g: MultiGraph) -> _CutSpace:
    """The graph's cut space: built on first use, then kept on the instance
    next to its cached incidence lists (graphs are immutable)."""
    space = g.__dict__.get("_cut_space")
    if space is None:
        space = g.__dict__["_cut_space"] = _CutSpace(g)
    return space


def _bits(mask: int) -> tuple[int, ...]:
    """The vertices (or edges) of a bit mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _cut_sides(
    g: MultiGraph, max_size: int, nontrivial_only: bool = False
) -> list[tuple[int, int]]:
    """(side_a mask, size) of every cut of size <= max_size, one per
    bipartition, in enumerate_cuts' order; see enumerate_cuts."""
    n = g.vertex_count
    if n < 2:
        return []
    space = _cut_space(g)
    sides = [c for c in space.small if c[1] <= max_size]
    if max_size > _KEPT_CUT_SIZE:
        sides += space.sides(range(_KEPT_CUT_SIZE + 1, max_size + 1), n)
    if nontrivial_only:
        sides = [c for c in sides if 3 <= c[0].bit_count() <= n - 3]
    return sides


def enumerate_cuts(
    g: MultiGraph, max_size: int, nontrivial_only: bool = False
) -> list[Cut]:
    """All edge-cuts of size <= max_size, one representative per bipartition.

    Cuts of size k are the k-edge sets whose cycle-space signatures XOR
    to 0, matched in the middle, so the work is polynomial in the number
    of edges for fixed k. With nontrivial_only, both sides must have at
    least 3 vertices. side_a is always the side containing vertex 0; cuts
    come sorted by (size, |side_a|, sorted side_a).
    """
    return [
        make_cut(g, _bits(side_a))
        for side_a, _ in _cut_sides(g, max_size, nontrivial_only)
    ]


def edge_connectivity(g: MultiGraph) -> int:
    """Minimum edge-cut size; 0 for disconnected graphs."""
    n = g.vertex_count
    if n <= 1:
        return 0
    if not g.is_connected():
        return 0
    space = _cut_space(g)
    if space.small:
        return space.small[0][1]
    # a vertex star is a cut, so the search ends by the minimum degree
    levels: dict = {}
    k = _KEPT_CUT_SIZE + 1
    while next(space.zero_sets(k, levels), None) is None:
        k += 1
    return k


def cyclic_edge_connectivity(g: MultiGraph) -> int | _NoCyclicCut:
    """Minimum size of a cyclic edge-cut, or NO_CYCLIC_CUT if none exists.

    Requires a connected graph of minimum degree at least 3. Both sides of
    a minimum cyclic cut induce connected subgraphs: if a side split into
    parts, moving one part across while a cycle stays behind would give a
    smaller cyclic cut, since the part has edges only to the other side
    and the graph is connected. A connected side with a cycle spans at
    least as many edges as it has vertices, so a minimum cyclic k-cut has
    m >= n + k: the search over cuts by size stops at k = m - n and
    reports NO_CYCLIC_CUT when none of them is cyclic.
    """
    if not g.is_connected():
        raise ValueError("cyclic_edge_connectivity requires a connected graph")
    if any(d < 3 for d in g.degrees()):
        raise ValueError("cyclic_edge_connectivity requires minimum degree 3")
    space = _cut_space(g)
    if space.cyclic is None:
        space.cyclic = _cyclic_value(g, space)
    return space.cyclic


def _cyclic_value(g: MultiGraph, space: _CutSpace) -> int | _NoCyclicCut:
    """The smallest k <= m - n with a k-cut whose sides both span at least
    as many edges as they have vertices, else NO_CYCLIC_CUT.

    Such a side has a cycle, so each cut found is cyclic; and the sides of
    a minimum cyclic cut are connected, so they pass the test at the
    minimum size (see cyclic_edge_connectivity).
    """
    n = g.vertex_count
    full = (1 << n) - 1
    deg = g.degrees()
    by_degree = [(d, sum(1 << v for v in range(n) if deg[v] == d)) for d in set(deg)]

    def spans_cycle(side: int, cut: int) -> bool:
        side_deg = 0
        for d, vertices in by_degree:
            side_deg += d * (side & vertices).bit_count()
        return side_deg - cut >= 2 * side.bit_count()

    for side_a, k in space.small:
        if spans_cycle(side_a, k) and spans_cycle(full ^ side_a, k):
            return k
    levels: dict = {}
    for k in range(_KEPT_CUT_SIZE + 1, len(g.edges) - n + 1):
        for edge_set in space.zero_sets(k, levels):
            s = space.side(edge_set)
            if spans_cycle(s, k) and spans_cycle(full ^ s, k):
                return k
    return NO_CYCLIC_CUT


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
