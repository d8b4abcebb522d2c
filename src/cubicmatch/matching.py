"""Exact perfect-matching existence, counting, and boundary profiles.

Counts treat parallel edges as distinguishable objects: the 3-bond has
three perfect matchings. One memoized kernel answers every count and
every existence question. The kernel branches on the first free
vertex of least remaining degree, read as popcounts of per-vertex
neighbour masks, and each state keeps the branches its count found
nonzero. Per-edge counts come from one forward sweep over those kept
branches, which carries the number of paths to each state, and
enumeration walks them depth first with one explicit stack, yielding
either edge tuples or the XOR of caller-given edge weights. A kernel
belongs to one call: the public functions here build their own, and
verify_graph builds one for its input, shares it between its stages and
drops it on return, so no memo outlives the call or sits on the graph.
The kernel is guarded by a plain edge-subset oracle that walks the full
inclusion/exclusion tree; the tests also hold a blossom existence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Iterator, Sequence

from .connectivity import _bits
from .multigraph import Cut, MultiGraph, _is_int, _require_cut

COUNT_LIMIT = 1 << 63  # counts are required to fit in 64-bit integers
# the count recurses once per matched edge, so n/2 frames deep, and the
# subset-walk oracle once per edge; at most 512 frames stay well inside
# Python's default recursion limit of 1000
_FRAME_LIMIT = 512
_ORDER_LIMIT = 2 * _FRAME_LIMIT


@dataclass(frozen=True)
class MatchingProfile:
    """Exact per-edge perfect matching counts under the given constraints."""

    total: int
    per_edge: dict[int, int]
    forced: frozenset[int]
    forbidden: frozenset[int]

    @property
    def matching_covered(self) -> bool:
        return _covered(self.per_edge, self.forbidden, 1)

    @property
    def double_covered(self) -> bool:
        return _covered(self.per_edge, self.forbidden, 2)


def _covered(counts: Sequence[int] | dict[int, int], forbidden: frozenset[int], times: int) -> bool:
    """The one covering rule: some edge is not forbidden, and each such
    edge lies in at least ``times`` counted matchings. ``counts[e]`` is
    edge e's count (a kernel's per-edge table or a profile's per_edge)."""
    kept = [counts[e] for e in range(len(counts)) if e not in forbidden]
    return bool(kept) and min(kept) >= times


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
    g: MultiGraph, forced: Iterable[int], forbidden: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """The forced and forbidden edge indices as frozensets, once each is
    known to be an int edge index of g (a bool is refused: True would
    stand for edge 1) and the forced edges form a matching that shares no
    edge with the forbidden ones."""
    forced_edges = tuple(forced)
    forbidden_edges = tuple(forbidden)
    m = len(g.edges)
    for e in forced_edges + forbidden_edges:
        if not _is_int(e):
            raise ValueError(f"edge index must be an int, got {e!r}")
        if not 0 <= e < m:
            raise ValueError(f"edge index {e} out of range")
    forced_set = frozenset(forced_edges)
    forbidden_set = frozenset(forbidden_edges)
    if forced_set & forbidden_set:
        raise ValueError("forced and forbidden edges overlap")
    used: set[int] = set()
    for e in forced_set:
        u, v = g.edges[e]
        if u in used or v in used:
            raise ValueError("forced edges do not form a matching")
        used.update((u, v))
    return forced_set, forbidden_set


class _Kernel:
    """Every matching answer for one graph without the forbidden edges.

    Counts perfect matchings of G - X (X a vertex bitmask), branching on a
    vertex of minimum remaining degree. The count depends on the mask
    alone, so one memo serves every query made through one kernel: forced
    edges, per-edge counts, boundary tables and vertex deletions are all
    masks. While it counts a state, the kernel keeps that state's branches
    below which the count is positive; the per-edge sweep and enumeration
    read those kept lists and never branch again. A kernel lives as long
    as the call that built it; nothing keeps it on the graph. A graph of
    more than _ORDER_LIMIT vertices is refused before any table is built,
    with a ValueError naming ``who``, the function that asked.
    """

    def __init__(
        self, g: MultiGraph, forbidden: frozenset[int] = frozenset(),
        who: str = "the matching kernel",
    ) -> None:
        n = g.vertex_count
        if n > _ORDER_LIMIT:
            raise ValueError(
                f"{who} counts perfect matchings of at most {_ORDER_LIMIT} vertices, got {n}"
            )
        self.full = (1 << n) - 1
        self.edge_count = len(g.edges)
        self.forbidden = forbidden
        if forbidden:
            inc = [
                [(i, u) for i, u in edges if i not in forbidden] for edges in g.incidence
            ]
        else:
            inc = g.incidence
        # levels[v][k]: the neighbours joined to v by more than k kept
        # edges, so v's remaining degree is a sum of popcounts
        levels: list[list[int]] = []
        for edges in inc:
            lv = [0]
            for _, u in edges:
                bit = 1 << u
                k = 0
                while lv[k] & bit:
                    k += 1
                    if k == len(lv):
                        lv.append(0)
                lv[k] |= bit
            levels.append(lv)
        self.inc = inc
        self.levels = levels
        self._memo = {self.full: 1}
        # (edge, state, count below) for each branch of a state with a
        # positive count, in incidence order, skipping branches that count 0
        self._branches: dict[int, list[tuple[int, int, int]]] = {}
        self._tables: dict[int, list[int]] = {}

    def pivot(self, mask: int) -> int:
        """The first uncovered vertex in index order of minimum remaining
        degree, stopping at degree 1, or -1 when some uncovered vertex has
        none left."""
        free = self.full ^ mask
        levels = self.levels
        best_v, best_d = -1, 1 << 30
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = 0
            for level in levels[v]:
                d += (level & free).bit_count()
            if d < best_d:
                best_v, best_d = v, d
                if d <= 1:
                    break
        return -1 if best_d == 0 else best_v

    def _rec(self, mask: int) -> int:
        memo = self._memo
        total = 0
        v = self.pivot(mask)
        if v >= 0:
            kept = []
            base = mask | (1 << v)
            for i, u in self.inc[v]:
                if not (mask >> u) & 1:
                    sub = base | (1 << u)
                    below = memo.get(sub)
                    if below is None:
                        below = self._rec(sub)
                    if below:
                        total += below
                        kept.append((i, sub, below))
            if kept:
                self._branches[mask] = kept
        memo[mask] = total
        return total

    def count(self, mask: int) -> int:
        """Number of perfect matchings of G - mask."""
        if (self.full ^ mask).bit_count() % 2:
            return 0
        result = self._memo.get(mask)
        if result is None:
            result = self._rec(mask)
        if result >= COUNT_LIMIT:
            raise OverflowError("perfect matching count exceeds 64-bit range")
        return result

    def edge_counts(self, covered: int = 0) -> list[int]:
        """Per edge index, the perfect matchings of G - covered that use
        the edge: 0 for forbidden edges and edges touching covered.

        One forward sweep over the branching of count(covered), layer by
        layer, carries ways[S], the number of branch paths from covered to
        S. Every perfect matching follows one path to the full mask and
        branches on each of its edges exactly once, so an edge taken at S
        gains ways[S] times the count below the branch.
        """
        table = self._tables.get(covered)
        if table is not None:
            return table
        table = [0] * self.edge_count
        if self.count(covered):
            layer = {covered: 1}
            while self.full not in layer:
                nxt: dict[int, int] = {}
                for mask, ways in layer.items():
                    for i, sub, below in self._branches[mask]:
                        table[i] += ways * below
                        nxt[sub] = nxt.get(sub, 0) + ways
                layer = nxt
        self._tables[covered] = table
        return table

    def matchings(self, covered: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
        """Every perfect matching of G - covered together with the edges
        in chosen, as a sorted tuple, in the order of xor_walk: with edge i
        weighted 2^i, the XOR of a matching's weights is its edge mask."""
        chosen_mask = 0
        for i in chosen:
            chosen_mask |= 1 << i
        unit = [1 << i for i in range(self.edge_count)]
        for edges in self.xor_walk(covered, unit):
            yield _bits(chosen_mask | edges)

    def xor_walk(self, covered: int, weight: list[int]) -> Iterator[int]:
        """For each perfect matching of G - covered, the XOR of weight[i]
        over its edges i, following the kept branches in depth-first
        order. The stack is explicit, so a suspended walk holds no
        reference cycle."""
        if not self.count(covered):
            return
        if covered == self.full:
            yield 0
            return
        full = self.full
        branches = self._branches
        steps = [iter(branches[covered])]
        values = [0]
        while steps:
            step = next(steps[-1], None)
            if step is None:
                steps.pop()
                values.pop()
                continue
            i, sub, _ = step
            value = values[-1] ^ weight[i]
            if sub == full:
                yield value
            else:
                steps.append(iter(branches[sub]))
                values.append(value)


def _vertex_mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


def _forced_mask(g: MultiGraph, forced: Iterable[int]) -> int:
    return _vertex_mask(v for e in forced for v in g.edges[e])


def count_perfect_matchings(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> int:
    """Exact number of perfect matchings containing all forced edges and
    avoiding all forbidden ones."""
    forced, forbidden = _validate_constraints(g, forced, forbidden)
    return _Kernel(g, forbidden, who="count_perfect_matchings").count(_forced_mask(g, forced))


def count_perfect_matchings_oracle(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> int:
    """Brute-force oracle: walks the 2^|E| edge-subset tree in index order,
    counting subsets that are perfect matchings. Kept deliberately free of
    the optimized counter's heuristics. The walk recurses once per edge,
    so a graph of more than _FRAME_LIMIT edges is refused before it
    starts."""
    forced, forbidden = _validate_constraints(g, forced, forbidden)
    n = g.vertex_count
    m = len(g.edges)
    if m > _FRAME_LIMIT:
        raise ValueError(
            f"count_perfect_matchings_oracle walks at most {_FRAME_LIMIT} edges, got {m}"
        )
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
    forced, forbidden = _validate_constraints(g, forced, forbidden)
    kernel = _Kernel(g, forbidden, who="enumerate_perfect_matchings")
    yield from kernel.matchings(_forced_mask(g, forced), list(forced))


# Existence is a kernel lookup; the name stays because perfbench/run.py
# traces it by name as part of the matching layer.
def _has_pm(g: MultiGraph, forced: frozenset[int] = frozenset(),
            forbidden: frozenset[int] = frozenset()) -> bool:
    """True when some perfect matching holds the forced edges and avoids
    the forbidden ones."""
    return _Kernel(g, forbidden, who="_has_pm").count(_forced_mask(g, forced)) > 0


def matching_profile(
    g: MultiGraph, forced: Iterable[int] = (), forbidden: Iterable[int] = ()
) -> MatchingProfile:
    """Total and per-edge perfect matching counts; flags matching covered
    and double covered via the per-edge table."""
    forced, forbidden = _validate_constraints(g, forced, forbidden)
    return _matching_profile(_Kernel(g, forbidden, who="matching_profile"), g, forced)


def _matching_profile(kernel: _Kernel, g: MultiGraph, forced: frozenset[int]) -> MatchingProfile:
    covered = _forced_mask(g, forced)
    total = kernel.count(covered)
    table = kernel.edge_counts(covered)
    per = {e: total if e in forced else table[e] for e in range(len(g.edges))}
    return MatchingProfile(total, per, forced, kernel.forbidden)


def is_matching_covered(g: MultiGraph) -> bool:
    return matching_profile(g).matching_covered


def boundary_profile(g: MultiGraph, cut: Cut) -> BoundaryProfile:
    """Builds the m_a / m_b tables by constrained counting on each side.

    Cut sizes up to 4 are supported; the total count of g equals
    sum over X of m_a[X] * m_b[X].
    """
    _require_cut(g, cut)
    return _boundary_profile(_Kernel(g, who="boundary_profile"), g, cut)


def _boundary_profile(kernel: _Kernel, g: MultiGraph, cut: Cut) -> BoundaryProfile:
    """boundary_profile on a shared kernel: both tables are the side
    counts of _side_counts, keyed by the frozenset of each bit subset."""
    k = cut.size
    if k > 4:
        raise ValueError(f"boundary_profile supports cuts of size <= 4, got {k}")
    side = _vertex_mask(cut.side_a)
    keys = [frozenset(_bits(x)) for x in range(1 << k)]
    m_a = _side_counts(kernel, g, side, cut.cut_edges)
    m_b = _side_counts(kernel, g, kernel.full ^ side, cut.cut_edges)
    return BoundaryProfile(cut, dict(zip(keys, m_a)), dict(zip(keys, m_b)))


def _side_counts(
    kernel: _Kernel,
    g: MultiGraph,
    side: int,
    cut_edges: Sequence[int],
    needed: Sequence[int] | None = None,
) -> list[int]:
    """One side's boundary table on masks. Entry x, for a bit subset x of
    positions into cut_edges, counts the matchings of the side's induced
    subgraph that cover it all but the side's endpoints of the cut edges
    in x. Two cut edges of x sharing an endpoint leave count 0, and so
    does every x with needed[x] == 0 when needed is given."""
    other = kernel.full ^ side
    # opens[x]: the side's endpoints of the cut edges in x
    opens = [0]
    for e in cut_edges:
        u, v = g.edges[e]
        end = 1 << (u if (side >> u) & 1 else v)
        opens += [att | end for att in opens]
    return [
        kernel.count(other | att)
        if att.bit_count() == x.bit_count() and (needed is None or needed[x])
        else 0
        for x, att in enumerate(opens)
    ]


def _cut_identity_total(
    kernel: _Kernel, g: MultiGraph, side: int, cut_edges: Sequence[int]
) -> int:
    """The sum over bit subsets x of m_a[x] * m_b[x] for the cut with
    side_a the vertex mask side: the perfect matching count of g when
    the boundary identity holds. m_b[x] is counted only where m_a[x] is
    not 0."""
    m_a = _side_counts(kernel, g, side, cut_edges)
    m_b = _side_counts(kernel, g, kernel.full ^ side, cut_edges, m_a)
    return sum(map(mul, m_a, m_b))
