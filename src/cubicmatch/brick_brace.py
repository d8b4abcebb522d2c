"""Tight cuts, brick-and-brace decomposition, and the matching polytope.

The decomposition of a cubic bridgeless graph only needs size-3 odd cuts:
every tight cut of a cubic bridgeless graph has size three, and the pieces
stay cubic and bridgeless, each inheriting its 3-cuts from its parent.
Polytope quantities are exact: the affine rank by integer elimination,
membership by rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .connectivity import _bits, bridges, enumerate_cuts, vertex_connectivity_at_most
from .matching import (
    _Kernel,
    _vertex_mask,
    boundary_profile,
    enumerate_perfect_matchings,
    is_matching_covered,
)
from .multigraph import Cut, MultiGraph, contract

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


def _is_tight_unchecked(g: MultiGraph, cut: Cut) -> bool:
    profile = boundary_profile(g, cut)
    return all(
        profile.m_a[x] * profile.m_b[x] == 0
        for x in profile.m_a
        if len(x) != 1
    )


def is_tight(g: MultiGraph, cut: Cut) -> bool:
    """True when every perfect matching uses exactly one cut edge."""
    if not is_matching_covered(g):
        raise ValueError("is_tight requires a matching covered graph")
    return _is_tight_unchecked(g, cut)


def _require_cubic_bridgeless_covered(g: MultiGraph, who: str) -> None:
    if not g.is_cubic():
        raise ValueError(f"{who} requires a cubic graph")
    if not g.is_connected():
        raise ValueError(f"{who} requires a connected graph")
    if bridges(g):
        raise ValueError(f"{who} requires a bridgeless graph")
    if not is_matching_covered(g):
        raise ValueError(f"{who} requires a matching covered graph")


def find_nontrivial_tight_cut(g: MultiGraph) -> Cut | None:
    """First tight cut with both sides of at least 3 vertices, or None.

    Only size-3 odd cuts are searched: tight cuts of cubic bridgeless
    graphs cannot be larger.
    """
    _require_cubic_bridgeless_covered(g, "find_nontrivial_tight_cut")
    return _tight_cut(g, enumerate_cuts(g, 3, nontrivial_only=True), "first")


def _tight_cut(g: MultiGraph, cuts: Iterable[Cut], strategy: str) -> Cut | None:
    """The first (strategy "first") or last ("last") tight 3-cut in cuts."""
    found = None
    for cut in cuts:
        if cut.size == 3 and _is_tight_unchecked(g, cut):
            if strategy == "first":
                return cut
            found = cut
    return found


def _side_cut(g: MultiGraph, side: int, cut_edges: tuple[int, ...]) -> Cut:
    rest = ((1 << g.vertex_count) - 1) & ~side
    return Cut(frozenset(_bits(side)), frozenset(_bits(rest)), cut_edges)


def _contract_side(
    h: MultiGraph, part: int, cuts: list[tuple[int, tuple[int, ...]]]
) -> tuple[MultiGraph, list[tuple[int, tuple[int, ...]]]]:
    """h with the vertex set `part` contracted, and the nontrivial 3-cuts of
    the result in enumerate_cuts order, inherited from h's nontrivial
    3-cuts `cuts`, each given as (side_a mask, cut edges).

    A cut of h/part is exactly a cut of h that does not cross part, with
    the same edges. A trivial side of h never contains part (|part| >= 3),
    so no cut of h/part is missing from cuts.
    """
    piece, vmap = contract(h, [_bits(part)])
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
    out.sort(key=lambda c: (c[0].bit_count(), tuple(_bits(c[0]))))
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
    _require_cubic_bridgeless_covered(g, "decompose")
    pieces: list[tuple[MultiGraph, str]] = []
    trace: list[Cut] = []
    # only the input's cuts are enumerated; each piece inherits its own
    top = [
        (_vertex_mask(c.side_a), c.cut_edges)
        for c in enumerate_cuts(g, 3, nontrivial_only=True)
        if c.size == 3
    ]
    stack = [(g, top)]
    while stack:
        h, cuts = stack.pop()
        cut = _tight_cut(h, (_side_cut(h, *c) for c in cuts), tight_cut_strategy)
        if cut is None:
            pieces.append((h, BRACE if h.is_bipartite() else BRICK))
            continue
        trace.append(cut)
        stack.append(_contract_side(h, _vertex_mask(cut.side_a), cuts))
        stack.append(_contract_side(h, _vertex_mask(cut.side_b), cuts))
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
    pms = list(enumerate_perfect_matchings(g))
    if not pms:
        raise ValueError("pm_affine_dimension requires at least one perfect matching")
    base = [0] * len(g.edges)
    for e in pms[0]:
        base[e] = -1
    rows = []
    for pm in pms[1:]:
        row = base[:]
        for e in pm:
            row[e] += 1
        rows.append(row)
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
