"""Tight cuts, brick-and-brace decomposition, and the matching polytope.

The decomposition of a cubic bridgeless graph only needs size-3 odd cuts:
every tight cut of a cubic bridgeless graph has size three, and the pieces
stay cubic and bridgeless, each inheriting its 3-cuts from its parent.
A cut of a piece is tight there exactly when it is tight in the input
(Lovasz 1987), so every 3-cut is decided once, by one forced count on the
input's matching kernel, and no piece builds a kernel. Polytope
quantities are exact. The affine rank reads the matching differences on
co-tree coordinates: a GF(2) basis of them certifies the rank as soon as
it is as large as the column count, and otherwise integer elimination of
every difference gives it. Membership uses rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .connectivity import _bits, _cut_sides, _require, _side_key, vertex_connectivity_at_most
from .matching import _boundary_profile, _Kernel
from .multigraph import Cut, MultiGraph, _contract_parts

BRICK = "brick"
BRACE = "brace"

ODD_SET_LIMIT = 16  # exhaustive odd-set checks are capped at this order


@dataclass(frozen=True)
class Decomposition:
    """Final pieces of the tight-cut decomposition with their kinds.

    cut_trace records every tight cut split, each in the coordinates of
    the intermediate piece it was found in (original coordinates for the
    first split).
    """

    pieces: tuple[tuple[MultiGraph, str], ...]
    cut_trace: tuple[Cut, ...]

    @property
    def brick_count(self) -> int:
        return sum(1 for _, kind in self.pieces if kind == BRICK)

    @property
    def brace_count(self) -> int:
        return sum(1 for _, kind in self.pieces if kind == BRACE)


def _is_tight_unchecked(kernel: _Kernel, g: MultiGraph, cut: Cut) -> bool:
    profile = _boundary_profile(kernel, g, cut)
    return all(
        profile.m_a[x] * profile.m_b[x] == 0
        for x in profile.m_a
        if len(x) != 1
    )


def is_tight(g: MultiGraph, cut: Cut) -> bool:
    """True when every perfect matching uses exactly one cut edge."""
    kernel = _Kernel(g)
    _require_covered(kernel, "is_tight")
    return _is_tight_unchecked(kernel, g, cut)


def _require_covered(kernel: _Kernel, who: str) -> None:
    """The matching covered precondition, read from the kernel's per-edge
    table."""
    if not kernel.matching_covered():
        raise ValueError(f"{who} requires a matching covered graph")


def find_nontrivial_tight_cut(g: MultiGraph) -> Cut | None:
    """First tight cut with both sides of at least 3 vertices, or None.

    Only size-3 odd cuts are searched: tight cuts of cubic bridgeless
    graphs cannot be larger.
    """
    who = "find_nontrivial_tight_cut"
    _require(g, who, cubic=True, connected=True, bridgeless=True)
    kernel = _Kernel(g)
    _require_covered(kernel, who)
    cuts = _tight_cuts(kernel, g)
    return _side_cut(g, *cuts[0]) if cuts else None


def _tight_cuts(kernel: _Kernel, g: MultiGraph) -> list[tuple[int, tuple[int, ...]]]:
    """The nontrivial tight 3-cuts of a matching covered cubic graph g as
    (side_a mask, cut edges), in enumerate_cuts order.

    A 3-cut has an odd side, so a perfect matching uses one or three of
    its edges, and the cut is tight exactly when none uses all three:
    when two cut edges share an end, or else when the kernel counts no
    perfect matching of g less the six ends of the cut edges.
    """
    edges = g.edges
    out = []
    for side, size in _cut_sides(g, 3, nontrivial_only=True):
        if size != 3:
            continue
        cut_edges = tuple(
            e for e, (u, v) in enumerate(edges) if ((side >> u) ^ (side >> v)) & 1
        )
        ends = 0
        for e in cut_edges:
            u, v = edges[e]
            ends |= (1 << u) | (1 << v)
        if ends.bit_count() < 6 or not kernel.count(ends):
            out.append((side, cut_edges))
    return out


def _side_cut(g: MultiGraph, side: int, cut_edges: tuple[int, ...]) -> Cut:
    rest = ((1 << g.vertex_count) - 1) & ~side
    return Cut(frozenset(_bits(side)), frozenset(_bits(rest)), cut_edges)


def _contract_side(
    h: MultiGraph, part: int, cuts: list[tuple[int, tuple[int, ...]]]
) -> tuple[MultiGraph, list[tuple[int, tuple[int, ...]]]]:
    """h with the vertex set `part` contracted, and the nontrivial tight
    3-cuts of the result in enumerate_cuts order, inherited from h's
    nontrivial tight 3-cuts `cuts`, each given as (side_a mask, cut edges).

    A cut of h/part is exactly a cut of h that does not cross part, with
    the same edges. A trivial side of h never contains part (|part| >= 3),
    so no cut of h/part is missing from cuts. When delta(part) is tight
    and h matching covered, the perfect matchings of h/part are the
    restrictions of those of h, so a cut of h/part is tight exactly when
    it is tight in h.

    part is not checked again: it is a side of a 3-cut of the connected
    bridgeless h, and each component of a side has at least 2 cut edges
    (a lone one would be a bridge of h), so the side is connected.
    """
    piece, vmap = _contract_parts(h, [frozenset(_bits(part))])
    edge_map = []
    kept = 0
    for u, v in h.edges:
        edge_map.append(kept)
        if not (part >> u) & (part >> v) & 1:
            kept += 1
    n = piece.vertex_count
    out = []
    for side, cut_edges in cuts:
        inside = side & part
        if inside and inside != part:
            continue
        image = 0
        for v in _bits(side):
            image |= 1 << vmap[v]
        # contract numbers vertex 0 first, so the image keeps vertex 0 in side_a
        if 3 <= image.bit_count() <= n - 3:
            out.append((image, tuple(edge_map[e] for e in cut_edges)))
    # enumerate_cuts' key (size, |side_a|, sorted side_a); every size is 3
    out.sort(key=lambda c: _side_key(c[0], n))
    return piece, out


def decompose(g: MultiGraph, tight_cut_strategy: str = "first") -> Decomposition:
    """Brick and brace decomposition by repeated tight-cut splits.

    Each split contracts one side of a nontrivial tight cut; recursion
    stops at pieces without nontrivial tight cuts, classified as braces
    when bipartite and bricks otherwise. The strategy ("first" or "last"
    in cut enumeration order) only affects intermediate splits: the final
    multiset of pieces is unique up to edge multiplicities.
    """
    if tight_cut_strategy not in ("first", "last"):
        raise ValueError("tight_cut_strategy must be 'first' or 'last'")
    _require(g, "decompose", cubic=True, connected=True, bridgeless=True)
    return _decompose(_Kernel(g), g, tight_cut_strategy)


def _decompose(kernel: _Kernel, g: MultiGraph, tight_cut_strategy: str) -> Decomposition:
    """decompose on a graph already checked cubic, connected and
    bridgeless, through the caller's kernel on g. Only the input's cuts
    are enumerated and decided; each piece inherits its tight ones."""
    _require_covered(kernel, "decompose")
    pieces: list[tuple[MultiGraph, str]] = []
    trace: list[Cut] = []
    stack = [(g, _tight_cuts(kernel, g))]
    while stack:
        h, cuts = stack.pop()
        if not cuts:
            pieces.append((h, BRACE if h.is_bipartite() else BRICK))
            continue
        side, cut_edges = cuts[0] if tight_cut_strategy == "first" else cuts[-1]
        trace.append(_side_cut(h, side, cut_edges))
        stack.append(_contract_side(h, side, cuts))
        stack.append(_contract_side(h, ((1 << h.vertex_count) - 1) & ~side, cuts))
    return Decomposition(tuple(pieces), tuple(trace))


def is_bicritical(g: MultiGraph) -> bool:
    """True when removing any two vertices leaves a perfectly matchable graph."""
    if g.vertex_count % 2:
        raise ValueError("is_bicritical requires an even number of vertices")
    kernel = _Kernel(g)
    pairs = combinations(range(g.vertex_count), 2)
    return all(kernel.count((1 << u) | (1 << v)) for u, v in pairs)


def is_brick(g: MultiGraph) -> bool:
    """Edmonds et al.: a brick is exactly a 3-vertex-connected bicritical graph."""
    if g.vertex_count < 4 or g.vertex_count % 2:
        return False
    if vertex_connectivity_at_most(g, 2):
        return False
    return is_bicritical(g)


def polytope_dimension(g: MultiGraph) -> int:
    """Dimension |E| - |V| + 1 - b(G) of the perfect matching polytope."""
    b = decompose(g).brick_count
    return len(g.edges) - g.vertex_count + 1 - b


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
    return _affine_dimension(_Kernel(g), g)


def _cotree_edges(g: MultiGraph) -> list[int]:
    """The edges outside a BFS spanning forest of g, less one edge closing
    an odd cycle in each non-bipartite component, in index order:
    m - n + (number of bipartite components) edges."""
    n = g.vertex_count
    depth = [-1] * n
    dropped = [False] * len(g.edges)
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        component = [root]
        for v in component:
            for e, u in g.incidence[v]:
                if depth[u] < 0:
                    depth[u] = depth[v] + 1
                    dropped[e] = True
                    component.append(u)
        odd = next(
            (
                e
                for v in component
                for e, u in g.incidence[v]
                if depth[u] == depth[v] and not dropped[e]
            ),
            None,
        )
        if odd is not None:
            dropped[odd] = True
    return [e for e, d in enumerate(dropped) if not d]


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

    The matchings are streamed, and each difference, taken mod 2 (the
    co-tree bits of M_i XOR those of M_0), goes into a GF(2) basis keyed
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
    for pm in kernel.matchings(0, []):
        mask = 0
        for e in pm:
            mask |= bit[e]
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


def polytope_membership(
    g: MultiGraph, w: Sequence[Fraction | int]
) -> tuple[bool, tuple | None]:
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
            return False, ("odd_set", frozenset(_bits(mask)), s)
    return True, None
