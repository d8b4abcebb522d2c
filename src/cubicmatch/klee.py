"""Klee-graph recognition, enumeration, vertex types, and nice 3-cuts.

A klee-graph is K4 or the result of repeatedly replacing a vertex of a
klee-graph by a triangle. Recognition runs the replacement backwards:
contract triangles whose three outgoing edges reach three distinct
vertices until K4 appears or no such triangle is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .connectivity import enumerate_cuts, is_cyclic_cut
from .matching import _Kernel, _vertex_mask, count_perfect_matchings
from .multigraph import (
    Cut,
    MultiGraph,
    canonical_form,
    contract,
    replace_vertex_with_triangle,
)

CLASS_A = "A"
CLASS_B = "B"
CLASS_C = "C"
DANGEROUS = "DANGEROUS"
GOOD = "GOOD"


@dataclass(frozen=True)
class KleeResult:
    is_klee: bool
    contractions: tuple[tuple[int, int, int], ...]

    def __bool__(self) -> bool:
        return self.is_klee


@dataclass(frozen=True)
class KleeVertexType:
    """The 4-tuple (omega; mu1, mu2, mu3) of constrained matching counts.

    omega counts perfect matchings after deleting v with all three
    neighbors, mu[i] after deleting v with its i-th neighbor (slots in
    incident-edge order).
    """

    omega: int
    mu: tuple[int, int, int]
    vertex_class: str


@dataclass(frozen=True)
class KleeStats:
    matchings: int
    alpha: int
    beta: int

    @property
    def potential(self) -> Fraction:
        return Fraction(self.matchings) - self.alpha - Fraction(self.beta, 2)


@dataclass(frozen=True)
class ExpansionReport:
    """Verification record for one triangle expansion."""

    omega: int
    count_before: int
    count_after: int
    count_ok: bool
    new_vertex_types_ok: tuple[bool, bool, bool]

    @property
    def ok(self) -> bool:
        return self.count_ok and all(self.new_vertex_types_ok)


@dataclass(frozen=True)
class NiceCutResult:
    nice: bool
    clause: str | None
    contracted_side: str | None  # which side plays the 'A' role in the clause

    def __bool__(self) -> bool:
        return self.nice


def triangles(g: MultiGraph) -> list[tuple[int, int, int]]:
    """All vertex triples that are pairwise adjacent."""
    out = []
    for a, b, c in combinations(range(g.vertex_count), 3):
        if g.multiplicity(a, b) and g.multiplicity(b, c) and g.multiplicity(a, c):
            out.append((a, b, c))
    return out


def _contractible_triangles(g: MultiGraph) -> list[tuple[int, int, int]]:
    """Triangles whose three outgoing edges lead to three distinct vertices."""
    out = []
    for tri in triangles(g):
        tset = set(tri)
        targets = []
        for i, (u, v) in enumerate(g.edges):
            if (u in tset) != (v in tset):
                targets.append(v if u in tset else u)
        if len(targets) == 3 and len(set(targets)) == 3:
            out.append(tri)
    return out


def is_klee(g: MultiGraph) -> KleeResult:
    """Klee-graph test with the triangle contraction sequence as certificate."""
    if not g.is_cubic():
        raise ValueError("is_klee requires a cubic graph")
    if not g.is_connected():
        raise ValueError("is_klee requires a connected graph")
    steps: list[tuple[int, int, int]] = []
    cur = g
    while True:
        if cur.vertex_count == 4 and cur.is_simple():
            return KleeResult(True, tuple(steps))
        if cur.vertex_count <= 4:
            return KleeResult(False, tuple(steps))
        candidates = _contractible_triangles(cur)
        if not candidates:
            return KleeResult(False, tuple(steps))
        tri = candidates[0]
        steps.append(tri)
        cur, _ = contract(cur, [tri])


def core(g: MultiGraph) -> MultiGraph:
    """Contracts every triangle of g simultaneously.

    Requires every cyclic 3-edge-cut to separate a triangle and all
    triangles to be vertex-disjoint; violations raise ValueError.
    """
    tris = triangles(g)
    seen: set[int] = set()
    for tri in tris:
        if seen & set(tri):
            raise ValueError("overlapping triangles; core is not defined")
        seen |= set(tri)
    for cut in enumerate_cuts(g, 3, nontrivial_only=True):
        if cut.size == 3 and is_cyclic_cut(g, cut):
            small = cut.side_a if len(cut.side_a) <= len(cut.side_b) else cut.side_b
            if len(small) != 3 or tuple(sorted(small)) not in tris:
                raise ValueError(
                    f"cyclic 3-edge-cut with side {sorted(small)} does not "
                    "separate a triangle"
                )
    if not tris:
        return g
    contracted, _ = contract(g, tris)
    return contracted


def vertex_type(g: MultiGraph, v: int) -> KleeVertexType:
    """Counts (omega; mu1, mu2, mu3) for a degree-3 vertex with distinct
    neighbors, classified into A, B, C, DANGEROUS or GOOD."""
    if g.degree(v) != 3:
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, need 3")
    nbrs = [u for _, u in g.incidence[v]]
    if len(set(nbrs)) != 3:
        raise ValueError(f"vertex {v} has repeated neighbors")
    kernel = _Kernel(g)
    omega = kernel.count(_vertex_mask([v] + nbrs))
    mu = tuple(kernel.count((1 << v) | (1 << u)) for u in nbrs)
    return KleeVertexType(omega, mu, _classify(omega, mu))


def _classify(omega: int, mu: tuple[int, int, int]) -> str:
    ones = (omega == 1) + sum(1 for x in mu if x == 1)
    if ones >= 3:
        return DANGEROUS
    if omega == 1 and sum(1 for x in mu if x == 1) == 1:
        return CLASS_A
    if omega == 1 and all(x > 1 for x in mu):
        return CLASS_B
    if omega > 1 and sum(1 for x in mu if x == 1) == 2:
        return CLASS_C
    return GOOD


def expand_and_check(g: MultiGraph, v: int) -> tuple[MultiGraph, ExpansionReport]:
    """Replaces v by a triangle and verifies the expansion calculus.

    Checks m(G triangle v) = m(G) + omega and that the new vertex attached
    to the i-th former neighbor has type (mu_i; {mu_i + omega} with the
    other two mu values), compared as multisets.
    """
    t = vertex_type(g, v)
    before = count_perfect_matchings(g)
    expanded = replace_vertex_with_triangle(g, v)
    after = count_perfect_matchings(expanded)
    new_vertices = (v, g.vertex_count, g.vertex_count + 1)
    type_ok = []
    for i, nv in enumerate(new_vertices):
        expected_omega = t.mu[i]
        expected_mu = sorted(
            [t.mu[i] + t.omega] + [t.mu[j] for j in range(3) if j != i]
        )
        actual = vertex_type(expanded, nv)
        type_ok.append(
            actual.omega == expected_omega and sorted(actual.mu) == expected_mu
        )
    report = ExpansionReport(
        omega=t.omega,
        count_before=before,
        count_after=after,
        count_ok=(after == before + t.omega),
        new_vertex_types_ok=tuple(type_ok),
    )
    return expanded, report


_KLEE_CACHE: dict[int, tuple[MultiGraph, ...]] = {}


def enumerate_klee(n: int) -> tuple[MultiGraph, ...]:
    """All isomorphism classes of klee-graphs of order n, sorted by
    canonical form. Generated by expanding every vertex of every class
    two vertices smaller, with isomorph rejection."""
    if n % 2 or not 4 <= n <= 16:
        raise ValueError("enumerate_klee requires even n with 4 <= n <= 16")
    if n in _KLEE_CACHE:
        return _KLEE_CACHE[n]
    if n == 4:
        from .named_graphs import k4

        result = (k4(),)
    else:
        seen: dict[bytes, MultiGraph] = {}
        for parent in enumerate_klee(n - 2):
            for v in range(parent.vertex_count):
                child = replace_vertex_with_triangle(parent, v)
                key = canonical_form(child)
                if key not in seen:
                    seen[key] = child
        result = tuple(seen[k] for k in sorted(seen))
    _KLEE_CACHE[n] = result
    return result


def klee_stats(g: MultiGraph) -> KleeStats:
    """Matching count, A/B vertex counts, and the potential m - alpha - beta/2."""
    if not is_klee(g):
        raise ValueError("klee_stats requires a klee-graph")
    m = count_perfect_matchings(g)
    alpha = beta = 0
    for v in range(g.vertex_count):
        cls = vertex_type(g, v).vertex_class
        if cls == CLASS_A:
            alpha += 1
        elif cls == CLASS_B:
            beta += 1
    return KleeStats(m, alpha, beta)


def _nice_oriented(g: MultiGraph, cut: Cut) -> str | None:
    """Evaluates the nice-cut clauses with cut.side_a in the 'A' role.

    Returns the clause label that fires, or None. The roles: the cut is
    nice when contracting A leaves a non-klee graph and one of
    (i) contracting B also leaves a non-klee graph, (ii) |A| >= 9,
    (iii) |A| >= 5 and the cut is not tight, (iv) |A| = 3 and at least two
    perfect matchings contain all three cut edges.
    """
    from .brick_brace import _is_tight_unchecked

    g_over_a, _ = contract(g, [cut.side_a])
    if not g_over_a.is_connected() or is_klee(g_over_a):
        return None
    g_over_b, _ = contract(g, [cut.side_b])
    if g_over_b.is_connected() and not is_klee(g_over_b):
        return "i"
    a = len(cut.side_a)
    if a >= 9:
        return "ii"
    if a >= 5 and not _is_tight_unchecked(g, cut):
        return "iii"
    if a == 3:
        endpoints = [v for e in cut.cut_edges for v in g.edges[e]]
        if len(set(endpoints)) == 6:
            if count_perfect_matchings(g, forced=cut.cut_edges) >= 2:
                return "iv"
    return None


def is_nice_cut(g: MultiGraph, cut: Cut) -> NiceCutResult:
    """Nice 3-edge-cut test; both orientations of the cut are tried."""
    if cut.size != 3:
        raise ValueError(f"nice cuts must have size 3, got {cut.size}")
    if not g.is_cubic():
        raise ValueError("is_nice_cut requires a cubic graph")
    clause = _nice_oriented(g, cut)
    if clause is not None:
        return NiceCutResult(True, clause, "side_a")
    clause = _nice_oriented(g, cut.flipped())
    if clause is not None:
        return NiceCutResult(True, clause, "side_b")
    return NiceCutResult(False, None, None)
