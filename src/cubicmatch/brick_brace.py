"""Tight cuts, brick-and-brace decomposition, and the matching polytope's
dimension.

The decomposition of a cubic bridgeless graph only needs size-3 odd cuts:
every tight cut of a cubic bridgeless graph has size three, and the pieces
stay cubic and bridgeless, each inheriting its 3-cuts from its parent.
A cut of a piece is tight there exactly when it is tight in the input
(Lovasz 1987), so every 3-cut is decided once, from the per-edge table of
the input's matching kernel, and no piece builds a kernel. The pieces stay
masks of the input while the decomposition runs, and are built as graphs
only when read. Polytope quantities are exact. The affine rank reads the
matching differences on co-tree coordinates: a GF(2) basis of them
certifies the rank as soon as it is as large as the column count, and
otherwise integer elimination of every difference gives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .connectivity import _bits, _cut_sides, _require, _side_cut, _side_key
from .matching import _covered, _Kernel
from .multigraph import Cut, MultiGraph, _contract_parts, _part_names

BRICK = "brick"
BRACE = "brace"


@dataclass(frozen=True, eq=False, repr=False)
class Decomposition:
    """Final pieces of the tight-cut decomposition with their kinds.

    Each piece is kept as the tuple of its contracted parts, as vertex
    masks of the input graph, and is built into a MultiGraph only when
    pieces or cut_trace is first read; brick_count and brace_count need
    no piece. cut_trace records every tight cut split, each in the
    coordinates of the intermediate piece it was found in (original
    coordinates for the first split). Equality, hashing and repr read
    pieces and cut_trace.
    """

    _graph: MultiGraph
    _leaves: tuple[tuple[tuple[int, ...], str], ...]  # (parts, kind)
    _splits: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]  # (parts, side, cut edges)

    @property
    def brick_count(self) -> int:
        return sum(1 for _, kind in self._leaves if kind == BRICK)

    @property
    def brace_count(self) -> int:
        return sum(1 for _, kind in self._leaves if kind == BRACE)

    @property
    def dimension(self) -> int:
        """Dimension m - n + 1 - b of the input's perfect matching polytope."""
        return len(self._graph.edges) - self._graph.vertex_count + 1 - self.brick_count

    @cached_property
    def pieces(self) -> tuple[tuple[MultiGraph, str], ...]:
        g = self._graph
        return tuple((_piece(g, parts)[0], kind) for parts, kind in self._leaves)

    @cached_property
    def cut_trace(self) -> tuple[Cut, ...]:
        trace = []
        for parts, side, cut_edges in self._splits:
            h, vmap, edge_map = _piece(self._graph, parts)
            image = 0
            for v in _bits(side):
                image |= 1 << vmap[v]
            trace.append(_side_cut(h, image, tuple(edge_map[e] for e in cut_edges)))
        return tuple(trace)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return (self.pieces, self.cut_trace) == (other.pieces, other.cut_trace)

    def __hash__(self) -> int:
        return hash((self.pieces, self.cut_trace))

    def __repr__(self) -> str:
        return f"Decomposition(pieces={self.pieces!r}, cut_trace={self.cut_trace!r})"


def _piece(g: MultiGraph, parts: tuple[int, ...]) -> tuple[MultiGraph, list[int], list[int]]:
    """g with each part mask contracted in one step, with the vertex and
    edge maps of `_contract_parts`. A vertex's id is the rank of its
    _part_names name, so the numbering and edge order are those of
    contracting the parts one split at a time. With no part it is g
    itself."""
    if not parts:
        return g, list(range(g.vertex_count)), list(range(len(g.edges)))
    return _contract_parts(g, map(_bits, parts))


def _is_tight_unchecked(kernel: _Kernel, side_size: int, cut_edges: Iterable[int]) -> bool:
    """Whether delta(S), the cut_edges of a side of side_size vertices, is
    tight: the cut edges' per-edge counts sum to the sum over all perfect
    matchings M of |M & delta(S)|, which has the parity of |S|, so with
    |S| odd they sum to the total exactly when every M uses one."""
    table = kernel.edge_counts()
    return side_size % 2 == 1 and sum(table[e] for e in cut_edges) == kernel.count(0)


def _require_covered(kernel: _Kernel, who: str) -> None:
    """The matching covered precondition, read from the kernel's per-edge
    table."""
    if not _covered(kernel.edge_counts(), kernel.forbidden, 1):
        raise ValueError(f"{who} requires a matching covered graph")


def _tight_cuts(kernel: _Kernel, g: MultiGraph) -> list[tuple[int, tuple[int, ...]]]:
    """The nontrivial tight 3-cuts of a matching covered cubic graph g as
    (side_a mask, cut edges), in enumerate_cuts order, each decided by
    _is_tight_unchecked on the kernel's per-edge table."""
    return [
        (side, cut_edges)
        for side, cut_edges in _cut_sides(g, 3, nontrivial_only=True)
        if len(cut_edges) == 3 and _is_tight_unchecked(kernel, side.bit_count(), cut_edges)
    ]


def decompose(g: MultiGraph) -> Decomposition:
    """Brick and brace decomposition by repeated tight-cut splits.

    Each split contracts one side of the first nontrivial tight cut in
    enumerate_cuts order; recursion stops at pieces without nontrivial
    tight cuts, classified as braces when bipartite and bricks otherwise.
    Up to edge multiplicities the pieces do not depend on which tight cuts
    are split (Lovasz 1987).
    """
    _require(g, "decompose", cubic=True, connected=True, bridgeless=True)
    return _decompose(_Kernel(g, who="decompose"), g)


def _decompose(kernel: _Kernel, g: MultiGraph) -> Decomposition:
    """decompose on a graph already checked cubic, connected and
    bridgeless, through the caller's kernel on g. Only the input's cuts
    are enumerated and decided, and no piece is built: every piece stays
    in the input's coordinates.

    A piece is the tuple of its contracted parts, disjoint vertex masks of
    g; its vertices are those parts and the vertices of g outside them.
    Splitting a piece h along the side S of a tight cut (S holds vertex 0)
    gives h/S, whose parts are S and those of h outside S, and h/(V - S),
    whose parts are V - S and those of h inside S.

    Cuts are inherited. A cut of h/P is exactly a cut of h that does not
    cross P, with the same edges, so a cut of a piece is a cut of g, named
    for good by its side in g (holding vertex 0) and g's edge indices. A
    trivial side of h never contains P (|P| >= 3), so no cut of h/P is
    missing from h's. When delta(P) is tight and h matching covered, the
    perfect matchings of h/P are the restrictions of those of h, so a cut
    of h/P is tight exactly when it is tight in h, hence in g (Lovasz
    1987). P needs no connectivity check: it is a side of a 3-cut of the
    connected bridgeless h, and each component of a side has at least 2
    cut edges (a lone one would be a bridge of h).

    Cut order is kept. A piece's vertex ids rank the _part_names names of
    its vertices, the smallest input vertex of each. With reps the mask of
    those names, a side T of a piece maps to a vertex set of size
    |T & reps|, ordered among the others as T & reps is: its place in
    enumerate_cuts' order is _side_key(T & reps), the nontrivial test is
    3 <= |T & reps| <= |reps| - 3, and vertex 0 stays in side_a. So each
    split picks the same cut as contracting h step by step would.

    The edges of a piece are g's edges between different vertices of it,
    in g's order; it is a brick exactly when they close an odd cycle.
    """
    _require_covered(kernel, "decompose")
    n = g.vertex_count
    full = (1 << n) - 1
    edges = g.edges
    cuts = _tight_cuts(kernel, g)
    leaves: list[tuple[tuple[int, ...], str]] = []
    splits: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
    # frame: (parts, reps, the piece's nontrivial tight cuts in cut order)
    stack = [((), full, cuts)]
    while stack:
        parts, reps, cuts = stack.pop()
        if not cuts:
            leaves.append((parts, BRICK if _odd_cycle(n, edges, parts) else BRACE))
            continue
        side, cut_edges = cuts[0]
        splits.append((parts, side, cut_edges))
        for part, kept in (
            (side, [p for p in parts if not p & side]),
            (full ^ side, [p for p in parts if p & side == p]),
        ):
            child_reps = reps & ~part | (part & -part)
            size = child_reps.bit_count()
            child_cuts = []
            for t, t_edges in cuts:
                inside = t & part
                if inside and inside != part:
                    continue
                if 3 <= (t & child_reps).bit_count() <= size - 3:
                    child_cuts.append((t, t_edges))
            child_cuts.sort(key=lambda c: _side_key(c[0] & child_reps, n))
            stack.append(((*kept, part), child_reps, child_cuts))
    return Decomposition(g, tuple(leaves), tuple(splits))


def _odd_cycle(n: int, edges: tuple[tuple[int, int], ...], parts: tuple[int, ...]) -> bool:
    """True when the edges between different parts (each vertex outside
    the parts being a part of its own) close an odd cycle. Union-find on
    the parts' _part_names names, each node holding its parity to its
    parent: an edge inside one tree whose ends have equal parity to the
    root closes an odd cycle."""
    region = _part_names(n, map(_bits, parts))
    parent = list(range(n))
    parity = [0] * n

    def find(v: int) -> tuple[int, int]:
        odd = 0
        while parent[v] != v:
            odd ^= parity[v]
            v = parent[v]
        return v, odd

    for u, v in edges:
        a, b = region[u], region[v]
        if a == b:
            continue
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            if pa == pb:
                return True
        else:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ 1
    return False


def _exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each pivot step every entry below the pivot row is a minor of
    the input, and the division by the previous pivot is exact
    (Sylvester's identity), so the arithmetic stays in the integers.
    """
    mat = [row[:] for row in rows]
    cols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(cols):
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            f = row[col]
            mat[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        rank += 1
    return rank


def pm_affine_dimension(g: MultiGraph) -> int:
    """Affine dimension of the perfect matching characteristic vectors,
    by exact integer rank of difference vectors. Independent of the
    decomposition-based dimension formula."""
    return _affine_dimension(_Kernel(g, who="pm_affine_dimension"), g)


def _cotree_edges(g: MultiGraph) -> list[int]:
    """The edges outside g's BFS spanning forest, less the first edge of
    each component (in visiting order) joining two vertices of one depth,
    which closes an odd cycle; in index order, m - n + (number of
    bipartite components) edges."""
    forest = g.forest
    depth = forest.depth
    dropped = set(forest.parent_edge)
    for component in forest.components():
        odd = [e for v in component for e, u in g.incidence[v] if depth[u] == depth[v]]
        dropped.update(odd[:1])
    return [e for e in range(len(g.edges)) if e not in dropped]


def _affine_dimension(kernel: _Kernel, g: MultiGraph) -> int:
    """The rank of the differences of the perfect matching vectors from the
    first, each restricted to the co-tree edges of _cotree_edges.

    The restriction keeps the rank. Every difference x has Ax = 0, A the
    vertex-edge incidence matrix, as each matching covers each vertex
    once. A nonzero x with Ax = 0 that vanishes on the co-tree edges
    would be supported on a forest plus one odd-cycle-closing edge per
    non-bipartite component, and those incidence columns are independent:
    a tree's columns span the vectors y with sum (-1)^depth(v) y_v = 0,
    and an edge between two vertices of one depth parity does not.

    The kernel streams each matching's co-tree bits as the XOR of its
    edges' column bits, and each difference, taken mod 2 (the co-tree
    bits of M_i XOR those of M_0), goes into a GF(2) basis keyed
    by its top bit. Once the basis holds one vector per co-tree column,
    the rank is the column count: the GF(2) rank of an integer matrix is
    at most its rational rank, since a minor that is nonzero mod 2 is a
    nonzero integer, and the rational rank is at most the column count.
    Short of that, every difference row is ranked exactly by _exact_rank:
    the GF(2) rank can fall below the rational one (Petersen's is 4 of
    5), and a graph with more than one brick has rank below the column
    count. The value always comes from the matchings, never from the
    decomposition.
    """
    cols = _cotree_edges(g)
    bit = [0] * len(g.edges)
    for j, e in enumerate(cols):
        bit[e] = 1 << j
    masks = []
    basis: dict[int, int] = {}
    for mask in kernel.xor_walk(0, bit):
        if masks:
            x = mask ^ masks[0]
            while x:
                top = x.bit_length() - 1
                b = basis.get(top)
                if b is None:
                    basis[top] = x
                    break
                x ^= b
        masks.append(mask)
        if len(basis) == len(cols):
            return len(cols)
    if not masks:
        raise ValueError("pm_affine_dimension requires at least one perfect matching")
    first = masks[0]
    rows = [
        [((mask >> j) & 1) - ((first >> j) & 1) for j in range(len(cols))]
        for mask in masks[1:]
    ]
    return _exact_rank(rows)

