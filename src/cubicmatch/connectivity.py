"""Bridges, cut enumeration, edge connectivity and cyclic edge-connectivity.

All routines are pure functions over immutable MultiGraph values. Cut
queries read the graph's cut space through its cached BFS spanning forest
(`MultiGraph.forest`): every edge gets a signature, the set of fundamental
cycles through it, and an edge set is a cut exactly when its signatures
XOR to 0. The cuts of size k
are the zero-XOR k-edge sets, found by one meet-in-the-middle rule for
every k: the k // 2-edge sets are grouped by XOR in a table of edge
masks, grown from kept lists of fewer edges, and each (k - k // 2)-edge
set is streamed, as a prefix with one more edge, and looked up in it.
So edge connectivity and every query for the cuts up to a fixed size
take time polynomial in the number of edges m; a cyclic edge connectivity of c takes about
m^ceil(c/2) steps and m^floor(c/2) stored edge masks. The bridges are
the edges of signature 0. Every query walks the cut sizes k = 0, 1, 2,
... in order and stops where its answer is found; each size is matched
the first time any walk reaches it, then kept on the graph instance with
the signatures, every cut as its side mask beside its edge tuple, so no
query scans the edges again to rebuild a cut. Each value has one checked
public entry point and no unchecked copy: the checks read the graph's
cached forest and incidence lists, so they cost no traversal. The 2^n
bipartition scan, the former census of connected sides, the former
pair-table match, Tarjan's bridge search and the brick test's vertex
separator search survive in the test suite as oracles.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from .multigraph import Cut, MultiGraph, _is_int, _require_cut, induced_subgraph


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


def _require(
    g: MultiGraph,
    who: str,
    *,
    cubic: bool = False,
    connected: bool = False,
    bridgeless: bool = False,
) -> None:
    """Raises ValueError naming ``who`` and the first requested property
    that g lacks, checked in the order cubic, connected, bridgeless."""
    if cubic and not g.is_cubic():
        raise ValueError(f"{who} requires a cubic graph")
    if connected and not g.is_connected():
        raise ValueError(f"{who} requires a connected graph")
    if bridgeless and bridges(g):
        raise ValueError(f"{who} requires a bridgeless graph")


def bridges(g: MultiGraph) -> list[int]:
    """Edge indices whose removal disconnects their component.

    They are the edges of cut-space signature 0: a non-tree edge carries
    its own bit, and a tree edge carries the bits of the non-tree edges
    leaving the subtree below it, which are none exactly when it is a
    bridge. Parallel edges are never bridges. The cut space is kept on g
    for the cut queries that follow.
    """
    return [e for e, s in enumerate(_cut_space(g).sig) if not s]


def _has_cycle(g: MultiGraph, side: frozenset[int]) -> bool:
    """True when the subgraph induced by `side` has more edges than its
    spanning forest, that is, contains a cycle.

    A parallel pair counts as a cycle, consistent with contraction
    semantics.
    """
    sub, _, _ = induced_subgraph(g, side)
    return len(sub.edges) > sub.vertex_count - len(sub.forest.starts)


def is_cyclic_cut(g: MultiGraph, cut: Cut) -> bool:
    """True when both sides of the cut induce a subgraph containing a cycle."""
    _require_cut(g, cut)
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
    """A graph's cut space, read through its cached BFS spanning forest.

    sig[e] holds the fundamental cycles through edge e as bits: the i-th
    non-tree edge owns bit i, and a tree edge carries the bits of the
    non-tree edges that leave the subtree below it. An edge set F is a cut
    delta(S) exactly when its signatures XOR to 0, since the cut space is
    the orthogonal complement of the cycle space. Then the XOR of the
    below masks of F's tree edges (below[e] is the vertex set of the
    subtree under tree edge e, 0 for a non-tree edge) is the S that holds
    no tree root; with several components, every component but vertex 0's
    may also move to the other side.

    by_size[k] holds the k-edge cuts as (side_a mask, cut edges) pairs,
    one per bipartition, side_a holding vertex 0, in enumerate_cuts'
    order; the cut edges are the zero-XOR edge set the side came from, a
    sorted tuple of edge indices, shared by the flipped sides of one edge
    set. by_size grows by one size each time a walk reaches the first
    size not yet matched. cyclic is the cyclic edge connectivity once
    asked for, None before.

    The match of size k (zero_sets) keeps, in a levels dict shared by the
    sizes one walk matches, one table, the k // 2-edge sets as edge masks
    grouped by XOR, and the j-edge prefix lists it is grown from, j below
    k // 2, as (sorted index tuple, XOR) in lexicographic order, each
    built by extending the (j - 1)-edge list. The table is replaced when
    the size moves past it. The streamed (k - k // 2)-edge sets, and at
    odd k their prefixes too, are never stored: at k = 2h + 1 the stored
    state is the C(m, h)-mask table and lists of fewer edges.
    """

    __slots__ = ("sig", "below", "components", "by_size", "cyclic")

    def __init__(self, g: MultiGraph) -> None:
        n = g.vertex_count
        edges = g.edges
        forest = g.forest
        parent_edge = forest.parent_edge
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
        for v in reversed(forest.order):
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
        self.components = tuple(sum(1 << v for v in comp) for comp in forest.components())
        self.by_size: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        self.cyclic: int | _NoCyclicCut | None = None

    def walk(self, max_size: int, n: int) -> Iterator[tuple[tuple[int, tuple[int, ...]], ...]]:
        """by_size[k] for k = 0..max_size in turn, on an n-vertex graph.
        A size not yet in by_size is matched, sorted and appended before it
        is yielded; the sizes one walk matches share one levels dict. Every
        walk runs from 0 and rereads len(by_size) at each k, so walks that
        interleave never match a size twice."""
        by_size = self.by_size
        levels: dict = {}
        full = (1 << n) - 1
        flips = [0]
        for comp in self.components[1:]:
            flips += [f | comp for f in flips]
        for k in range(max_size + 1):
            if k == len(by_size):
                found = []
                for edge_set in self.zero_sets(k, levels):
                    s = self.side(edge_set)
                    for f in flips:
                        if s ^ f:
                            side_a = full ^ s ^ f
                            found.append((*_side_key(side_a, n), side_a, edge_set))
                # the side keys are distinct, so the edge sets are never compared
                found.sort()
                by_size.append(tuple((side_a, edges) for _, _, side_a, edges in found))
            yield by_size[k]

    def zero_sets(self, k: int, levels: dict) -> list[tuple[int, ...]]:
        """Every k-edge set whose signatures XOR to 0, as a sorted tuple of
        edge indices, each once.

        The k // 2-edge sets are grouped by XOR in a table, as edge masks.
        Each (k - k // 2)-edge set is streamed as a prefix with one more
        edge and looked up there by its XOR; a match is kept when the
        table's set lies wholly below the streamed set's first edge, so
        each zero set is found from its lowest k // 2 edges only. Only
        what the table is built from is stored: levels keeps the table,
        under "table", and the prefix lists below its size. At odd k the
        streamed sets' prefixes are one edge longer than the longest kept
        list, and are streamed too."""
        if k == 0:
            return [()]
        half = k // 2
        table = self._table(half, levels)
        sig = self.sig
        m = len(sig)
        kept = max(half - 1, 0)
        prefixes: Iterable[tuple[tuple[int, ...], int]] = self._prefixes(kept, levels)
        if k - half - 1 > kept:
            prefixes = (
                (p + (d,), x ^ sig[d])
                for p, x in prefixes
                for d in range(p[-1] + 1 if p else 0, m)
            )
        # a prefix whose first edge has fewer than half edges below it
        # cannot match, so it is skipped
        return [
            _bits(a) + p + (e,)
            for p, x in prefixes
            if not p or p[0] >= half
            for e in range(p[-1] + 1 if p else 0, m)
            if (y := x ^ sig[e]) in table
            for a in table[y]
            if not a >> (p[0] if p else e)
        ]

    def _prefixes(self, j: int, levels: dict) -> list[tuple[tuple[int, ...], int]]:
        """The j-edge sets as (sorted index tuple, XOR of signatures), in
        lexicographic order: the (j - 1)-edge list, each set extended by
        every later edge. Kept in levels[j] once built."""
        prefixes = levels.get(j)
        if prefixes is None:
            if j == 0:
                prefixes = [((), 0)]
            else:
                sig = self.sig
                m = len(sig)
                prefixes = [
                    (p + (e,), x ^ sig[e])
                    for p, x in self._prefixes(j - 1, levels)
                    for e in range(p[-1] + 1 if p else 0, m)
                ]
            levels[j] = prefixes
        return prefixes

    def _table(self, j: int, levels: dict) -> dict[int, list[int]]:
        """The j-edge sets as edge masks grouped by XOR, grown from the
        (j - 1)-edge prefixes without listing them. levels["table"] holds
        (j, table) for one j at a time."""
        held = levels.get("table")
        if held is not None and held[0] == j:
            return held[1]
        # the former table is dropped before the new one grows
        del held
        levels.pop("table", None)
        table: dict[int, list[int]] = {}
        if j == 0:
            table[0] = [0]
        else:
            sig = self.sig
            m = len(sig)
            for p, x in self._prefixes(j - 1, levels):
                base = 0
                for e in p:
                    base |= 1 << e
                for e in range(p[-1] + 1 if p else 0, m):
                    y = x ^ sig[e]
                    group = table.get(y)
                    if group is None:
                        table[y] = [base | 1 << e]
                    else:
                        group.append(base | 1 << e)
        levels["table"] = (j, table)
        return table

    def side(self, edge_set: tuple[int, ...]) -> int:
        """The side of the cut edge_set that holds no tree root."""
        s = 0
        below = self.below
        for e in edge_set:
            s ^= below[e]
        return s


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


# byte b to 255 minus b with its bits reversed: the lowest bit (vertex)
# becomes the highest, and a byte holding it compares smaller
_SIDE_BYTES = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _side_key(mask: int, n: int) -> tuple[int, bytes]:
    """enumerate_cuts' side order (|S|, sorted S) as an integer and a byte
    string, for a mask S of at most n bits. Of two sets of one size, the
    one holding their lowest differing vertex has the smaller sorted
    tuple; in S's little-endian bytes, each byte bit-reversed and
    complemented by _SIDE_BYTES, that vertex's byte is the first to differ
    and is smaller in that set. Keys compare this way only at one n."""
    return mask.bit_count(), mask.to_bytes((n + 7) >> 3, "little").translate(_SIDE_BYTES)


def _cut_sides(
    g: MultiGraph, max_size: int, nontrivial_only: bool = False
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(side_a mask, cut edges) of every cut of size <= max_size, one per
    bipartition, in enumerate_cuts' order; see enumerate_cuts. Lazy: a
    size is matched only when the caller reads past the smaller ones. No
    cut has more edges than g, so the walk stops at len(g.edges)."""
    n = g.vertex_count
    if n < 2:
        return
    for sides in _cut_space(g).walk(min(max_size, len(g.edges)), n):
        for side_a, edges in sides:
            if not nontrivial_only or 3 <= side_a.bit_count() <= n - 3:
                yield side_a, edges


def _side_cut(g: MultiGraph, side: int, cut_edges: tuple[int, ...]) -> Cut:
    """The Cut of g with side_a the vertex mask side, given its edges."""
    rest = ((1 << g.vertex_count) - 1) & ~side
    return Cut(frozenset(_bits(side)), frozenset(_bits(rest)), cut_edges)


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
    if not _is_int(max_size):
        raise ValueError(f"max_size must be an int, got {max_size!r}")
    return [
        _side_cut(g, side_a, edges)
        for side_a, edges in _cut_sides(g, max_size, nontrivial_only)
    ]


def edge_connectivity(g: MultiGraph) -> int:
    """Minimum edge-cut size; 0 for disconnected graphs and for graphs of
    at most one vertex. A vertex star is a cut, so the walk ends by the
    minimum degree."""
    if g.vertex_count <= 1 or not g.is_connected():
        return 0
    return len(next(_cut_sides(g, min(g.degrees())))[1])


def cyclic_edge_connectivity(g: MultiGraph) -> int | _NoCyclicCut:
    """Minimum size of a cyclic edge-cut, or NO_CYCLIC_CUT if none exists.

    Requires a connected graph of minimum degree at least 3. Both sides of
    a minimum cyclic cut induce connected subgraphs: if a side split into
    parts, moving one part across while a cycle stays behind would give a
    smaller cyclic cut, since the part has edges only to the other side
    and the graph is connected. A connected side with a cycle spans at
    least as many edges as it has vertices, so a minimum cyclic k-cut has
    m >= n + k: the search over cuts by size stops at k = m - n and
    reports NO_CYCLIC_CUT when none of them is cyclic. The value is kept
    on the graph's cut space, so it is searched for once per graph.
    """
    _require(g, "cyclic_edge_connectivity", connected=True)
    if any(d < 3 for d in g.degrees()):
        raise ValueError("cyclic_edge_connectivity requires minimum degree 3")
    space = _cut_space(g)
    if space.cyclic is None:
        space.cyclic = _cyclic_value(g)
    return space.cyclic


def _cyclic_value(g: MultiGraph) -> int | _NoCyclicCut:
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

    for side_a, edges in _cut_sides(g, len(g.edges) - n):
        k = len(edges)
        if spans_cycle(side_a, k) and spans_cycle(full ^ side_a, k):
            return k
    return NO_CYCLIC_CUT


def cyclic_value_at_least(c: int | _NoCyclicCut, k: int) -> bool:
    """Compares a cyclic_edge_connectivity value with k; NO_CYCLIC_CUT is >= k."""
    return c is NO_CYCLIC_CUT or c >= k


def cyclically_edge_connected_at_least(g: MultiGraph, k: int) -> bool:
    """Treats the NO_CYCLIC_CUT sentinel as vacuously >= k."""
    return cyclic_value_at_least(cyclic_edge_connectivity(g), k)
