"""Klee-graph recognition, enumeration, vertex types and statistics.

A klee-graph is K4 or the result of repeatedly replacing a vertex of a
klee-graph by a triangle. Recognition runs the replacement backwards:
contract triangles whose three outgoing edges reach three distinct
vertices until K4 appears or no such triangle is left. The contractions
run on regions of the input graph, so no contracted graph is built.
is_klee checks its input, cubic and connected, before it contracts; the
check reads the graph's cached forest, so no unchecked copy is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterator

from .connectivity import _require
from .matching import _Kernel, _vertex_mask
from .multigraph import (
    DEFAULT_CANONICAL_BOUND,
    MultiGraph,
    _is_int,
    canonical_form,
    replace_vertex_with_triangle,
)
from .named_graphs import k4

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


def _triangles(nbrs: dict[int, Collection[int]]) -> Iterator[tuple[int, int, int]]:
    """The triples a < b < c of pairwise adjacent keys of nbrs, which maps
    each vertex to its neighbours, in lexicographic order."""
    for a in sorted(nbrs):
        na = set(nbrs[a])
        for b in sorted(u for u in na if u > a):
            for c in sorted(na.intersection(nbrs[b])):
                if c > b:
                    yield a, b, c


def is_klee(g: MultiGraph) -> KleeResult:
    """Klee-graph test with the triangle contraction sequence as certificate.

    Requires a cubic connected graph. The current graph is kept as a
    partition of g into regions, each named by its smallest vertex (the
    _part_names rule), with the names of each region's three neighbours
    (one per outgoing edge of g); no graph is built. The current graph's
    vertex ids rank the names, so triangles scanned in name order come in
    its lexicographic order, and a contraction is recorded by the ranks
    of its names. The current graph stays cubic, as a contracted triangle
    has three outgoing edges, and with four vertices it is simple, hence
    K4, exactly when every region has three distinct neighbours.
    """
    _require(g, "is_klee", cubic=True, connected=True)
    nbrs = {v: [u for _, u in g.incidence[v]] for v in range(g.vertex_count)}
    steps: list[tuple[int, int, int]] = []
    while True:
        if len(nbrs) <= 4:
            k4 = len(nbrs) == 4 and all(len(set(ns)) == 3 for ns in nbrs.values())
            return KleeResult(k4, tuple(steps))
        for tri in _triangles(nbrs):
            targets = [u for x in tri for u in nbrs[x] if u not in tri]
            if len(targets) == 3 and len(set(targets)) == 3:
                break
        else:
            return KleeResult(False, tuple(steps))
        names = sorted(nbrs)
        steps.append(tuple(names.index(x) for x in tri))
        a, b, c = tri
        # each target has one edge into the triangle; it now leads to a
        for t in targets:
            ns = nbrs[t]
            ns[next(i for i, x in enumerate(ns) if x in tri)] = a
        del nbrs[b], nbrs[c]
        nbrs[a] = targets


def vertex_type(g: MultiGraph, v: int) -> KleeVertexType:
    """Counts (omega; mu1, mu2, mu3) for a degree-3 vertex with distinct
    neighbors, classified into A, B, C, DANGEROUS or GOOD."""
    return _vertex_type(_Kernel(g, who="vertex_type"), g, v)


def _vertex_type(kernel: _Kernel, g: MultiGraph, v: int) -> KleeVertexType:
    """vertex_type through the caller's kernel on g. With distinct
    neighbours, mu[i] is the per-edge count of the edge to the i-th."""
    if g.degree(v) != 3:  # degree refuses a non-vertex first
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, need 3")
    nbrs = [u for _, u in g.incidence[v]]
    if len(set(nbrs)) != 3:
        raise ValueError(f"vertex {v} has repeated neighbors")
    omega = kernel.count(_vertex_mask([v] + nbrs))
    table = kernel.edge_counts()
    mu = tuple(table[e] for e, _ in g.incidence[v])
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
    kernel = _Kernel(g, who="expand_and_check")
    t = _vertex_type(kernel, g, v)
    before = kernel.count(0)
    expanded = replace_vertex_with_triangle(g, v)
    kernel = _Kernel(expanded, who="expand_and_check")
    after = kernel.count(0)
    new_vertices = (v, g.vertex_count, g.vertex_count + 1)
    type_ok = []
    for i, nv in enumerate(new_vertices):
        expected_omega = t.mu[i]
        expected_mu = sorted(
            [t.mu[i] + t.omega] + [t.mu[j] for j in range(3) if j != i]
        )
        actual = _vertex_type(kernel, expanded, nv)
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
    two vertices smaller, with isomorph rejection.

    ``n`` must be an ``int`` (not a ``bool``): a float such as 6.0 hashes
    like 6, so it is refused before the cache is read."""
    if not _is_int(n):
        raise ValueError(f"klee order must be an int, got {n!r}")
    if n % 2 or not 4 <= n <= DEFAULT_CANONICAL_BOUND:
        raise ValueError(f"enumerate_klee requires even n with 4 <= n <= {DEFAULT_CANONICAL_BOUND}")
    if n in _KLEE_CACHE:
        return _KLEE_CACHE[n]
    if n == 4:
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
    _require(g, "klee_stats", cubic=True, connected=True)
    if not is_klee(g):
        raise ValueError("klee_stats requires a klee-graph")
    kernel = _Kernel(g, who="klee_stats")
    m = kernel.count(0)
    alpha = beta = 0
    for v in range(g.vertex_count):
        cls = _vertex_type(kernel, g, v).vertex_class
        if cls == CLASS_A:
            alpha += 1
        elif cls == CLASS_B:
            beta += 1
    return KleeStats(m, alpha, beta)
