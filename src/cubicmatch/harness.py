"""Catalog generation, per-instance verification of the matching-count
bounds, and the bipartite bound table.

Catalogs are exhaustive isomorph-free lists of connected cubic bridgeless
multigraphs. Every such graph splits into a 2-factor plus a perfect
matching, so enumerating all cycle types with all matchings on top and
rejecting isomorphs is exhaustive by construction; known simple-graph
census values and a half-edge pairing oracle guard the claim in tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from .brick_brace import decompose, pm_affine_dimension
from .connectivity import (
    NO_CYCLIC_CUT,
    _bits,
    _cut_sides,
    bridges,
    cyclic_edge_connectivity,
    cyclic_value_at_least,
    cyclically_edge_connected_at_least,
    edge_connectivity,
)
from .klee import is_klee
from .matching import _Kernel, boundary_profile, count_perfect_matchings, matching_profile
from .multigraph import MultiGraph, canonical_form, make_cut
from .named_graphs import exceptional_graph

CATALOG_CLASSES = (
    "all_bridgeless_cubic",
    "three_edge_connected",
    "bipartite",
    "cyclically_4ec",
    "cyclically_5ec",
)

CATALOG_LIMIT = 14


@dataclass(frozen=True)
class BipartiteBoundTable:
    """g(3)=4, g(k)=ceil(4 g(k-1)/3), f(k)=ceil(3 g(k)/2)."""

    g: dict[int, int]
    f: dict[int, int]


def bound_table(max_k: int) -> BipartiteBoundTable:
    if max_k < 3:
        raise ValueError("bound_table requires max_k >= 3")
    g = {3: 4}
    for k in range(4, max_k + 1):
        g[k] = -((-4 * g[k - 1]) // 3)
    f = {k: -((-3 * g[k]) // 2) for k in g}
    return BipartiteBoundTable(g, f)


# --------------------------------------------------------------------------
# Catalog generation
# --------------------------------------------------------------------------


def _partitions_min2(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts >= 2, parts non-increasing."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 1, -1):
            if remaining - part == 1:
                continue
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def _two_factor(cycle_type: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of the fixed 2-factor with the given cycle lengths, plus the
    block id of each vertex. A length-2 cycle is a doubled edge."""
    edges: list[tuple[int, int]] = []
    block: list[int] = []
    offset = 0
    for bid, length in enumerate(cycle_type):
        block.extend([bid] * length)
        if length == 2:
            edges.append((offset, offset + 1))
            edges.append((offset, offset + 1))
        else:
            for i in range(length):
                edges.append((offset + i, offset + (i + 1) % length))
        offset += length
    return edges, block


def _pairings(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not items:
        yield ()
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1:]
        for tail in _pairings(rest):
            yield ((a, b),) + tail


_SYMMETRY_CAP = 2048


def _two_factor_symmetries(cycle_type: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Vertex permutations from the dihedral group of each cycle block.

    These are automorphisms of the fixed 2-factor, so pairings in the same
    orbit produce isomorphic unions; the orbit filter only prunes
    duplicates and never loses classes. Large products fall back to the
    first block's dihedral group alone.
    """
    per_cycle: list[tuple[list[int], list[tuple[int, ...]]]] = []
    offset = 0
    for c in cycle_type:
        idx = list(range(offset, offset + c))
        elems: set[tuple[int, ...]] = set()
        for r in range(c):
            rot = tuple(idx[r:] + idx[:r])
            elems.add(rot)
            elems.add(rot[::-1])
        per_cycle.append((idx, sorted(elems)))
        offset += c
    total = 1
    for _, elems in per_cycle:
        total *= len(elems)
    if total > _SYMMETRY_CAP:
        per_cycle = per_cycle[:1]
    perms = []
    for combo in product(*(elems for _, elems in per_cycle)):
        perm = list(range(n))
        for (idx, _), image in zip(per_cycle, combo):
            for src, dst in zip(idx, image):
                perm[src] = dst
        perms.append(tuple(perm))
    return perms


def _pair_code_table(perm: tuple[int, ...]) -> bytes:
    """Translation table of a vertex permutation on pair codes: entry
    u*16+v (u < v) holds the code of the image pair {perm[u], perm[v]}."""
    table = bytearray(256)
    n = len(perm)
    for u in range(n):
        for v in range(u + 1, n):
            a, b = perm[u], perm[v]
            table[u * 16 + v] = a * 16 + b if a < b else b * 16 + a
    return bytes(table)


def _is_orbit_minimal(pm: tuple[tuple[int, int], ...], tables: list[bytes]) -> bool:
    """Whether no symmetry maps the pairing to one with a smaller sorted
    code sequence; ``tables`` are the symmetries' `_pair_code_table`s.

    Pair codes u*16+v fit in a byte only while u, v < 16, i.e. for
    n <= 16; CATALOG_LIMIT keeps catalogs below that.
    """
    codes = bytes(sorted(u * 16 + v for u, v in pm))
    base = list(codes)
    for table in tables:
        if sorted(codes.translate(table)) < base:
            return False
    return True


def _quotient_connected_bridgeless(
    cross: list[tuple[int, int]], blocks: int
) -> bool:
    """Connectivity plus bridgelessness of the block quotient.

    Cycle blocks are internally 2-edge-connected, so the whole union is
    connected and bridgeless exactly when the quotient over blocks by the
    cross matching edges is.
    """

    def connected(skip: int) -> bool:
        parent = list(range(blocks))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (a, b) in enumerate(cross):
            if i == skip:
                continue
            parent[find(a)] = find(b)
        return len({find(x) for x in range(blocks)}) == 1

    if not connected(-1):
        return False
    for i, (a, b) in enumerate(cross):
        if cross.count((a, b)) + cross.count((b, a)) == 1 and not connected(i):
            return False
    return True


_CATALOG_CACHE: dict[int, tuple[MultiGraph, ...]] = {}


def bridgeless_cubic_catalog(n: int) -> tuple[MultiGraph, ...]:
    """All isomorphism classes of connected bridgeless cubic multigraphs
    of order n, sorted by canonical form."""
    if n % 2 or n < 2:
        raise ValueError("catalogs require even n >= 2")
    if n > CATALOG_LIMIT:
        raise ValueError(f"exhaustive catalogs are capped at n = {CATALOG_LIMIT}")
    if n in _CATALOG_CACHE:
        return _CATALOG_CACHE[n]
    seen: dict[bytes, MultiGraph] = {}
    vertices = tuple(range(n))
    for cycle_type in _partitions_min2(n):
        factor_edges, block = _two_factor(cycle_type)
        blocks = len(cycle_type)
        tables = [_pair_code_table(p) for p in _two_factor_symmetries(cycle_type, n)]
        for pm in _pairings(vertices):
            if not _is_orbit_minimal(pm, tables):
                continue
            cross = [
                (block[u], block[v]) for u, v in pm if block[u] != block[v]
            ]
            if not _quotient_connected_bridgeless(cross, blocks):
                continue
            g = MultiGraph(n, tuple(factor_edges) + pm)
            key = canonical_form(g)
            if key not in seen:
                seen[key] = g
    result = tuple(seen[k] for k in sorted(seen))
    _CATALOG_CACHE[n] = result
    return result


def _in_class(g: MultiGraph, klass: str) -> bool:
    if klass == "all_bridgeless_cubic":
        return True
    if klass == "three_edge_connected":
        return edge_connectivity(g) >= 3
    if klass == "bipartite":
        return g.is_bipartite()
    if klass in ("cyclically_4ec", "cyclically_5ec"):
        return cyclically_edge_connected_at_least(g, 4 if klass == "cyclically_4ec" else 5)
    raise ValueError(f"unknown catalog class {klass!r}")


def generate_catalog(
    n: int, klass: str = "all_bridgeless_cubic", simple_only: bool = False
) -> list[MultiGraph]:
    """Exhaustive isomorph-free catalog of order n in the requested class.

    simple_only drops graphs with parallel edges, for comparison with
    published simple-graph census counts.
    """
    if klass not in CATALOG_CLASSES:
        raise ValueError(f"unknown catalog class {klass!r}")
    out = []
    for g in bridgeless_cubic_catalog(n):
        if simple_only and not g.is_simple():
            continue
        if _in_class(g, klass):
            out.append(g)
    return out


def brute_force_cubic_multigraphs(n: int) -> list[MultiGraph]:
    """Independent oracle: all connected cubic multigraphs of order n by
    exhausting upper-triangular multiplicity matrices with row sums 3.

    Intended for tiny n; returns isomorphism class representatives sorted
    by canonical form (bridged graphs included)."""
    if n % 2 or n < 2:
        return []
    seen: dict[bytes, MultiGraph] = {}
    row = [[0] * n for _ in range(n)]
    residual = [3] * n

    def rec(i: int, j: int) -> None:
        if i == n - 1:
            if residual[i] == 0:
                edges = []
                for a in range(n):
                    for b in range(a + 1, n):
                        edges.extend([(a, b)] * row[a][b])
                g = MultiGraph(n, tuple(edges))
                if g.is_connected():
                    key = canonical_form(g)
                    if key not in seen:
                        seen[key] = g
            return
        if j == n:
            if residual[i] == 0:
                rec(i + 1, i + 2)
            return
        limit = min(residual[i], residual[j], 3)
        for m in range(limit + 1):
            row[i][j] = m
            residual[i] -= m
            residual[j] -= m
            rec(i, j + 1)
            residual[i] += m
            residual[j] += m
            row[i][j] = 0

    rec(0, 1)
    return [seen[k] for k in sorted(seen)]


# --------------------------------------------------------------------------
# Per-instance verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremResult:
    tag: str
    kind: str  # "bound" or "identity"
    bound: Fraction
    value: Fraction
    satisfied: bool

    @property
    def slack(self) -> Fraction:
        return self.value - self.bound

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "kind": self.kind,
            "bound": str(self.bound),
            "value": str(self.value),
            "satisfied": self.satisfied,
            "slack": str(self.slack),
        }


@dataclass
class BoundReport:
    canonical_hex: str
    n: int
    pm_count: int
    brick_count: int
    dimension: int
    affine_dimension: int
    invariants: dict
    results: list[TheoremResult] = field(default_factory=list)
    index: int = -1

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.results)

    @property
    def is_exceptional(self) -> bool:
        return self.invariants["exceptional"]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "canonical": self.canonical_hex,
            "n": self.n,
            "pm_count": self.pm_count,
            "brick_count": self.brick_count,
            "dimension": self.dimension,
            "affine_dimension": self.affine_dimension,
            "invariants": self.invariants,
            "results": [r.to_json() for r in self.results],
            "all_satisfied": self.all_satisfied,
        }


_EXCEPTIONAL_CANONICAL: list[bytes] = []


def exceptional_canonical() -> bytes:
    if not _EXCEPTIONAL_CANONICAL:
        _EXCEPTIONAL_CANONICAL.append(canonical_form(exceptional_graph()))
    return _EXCEPTIONAL_CANONICAL[0]


def _sample_cut_for_identity(g: MultiGraph):
    """The first nontrivial cut of at most 4 edges in enumerate_cuts' order,
    else the star of vertex 0; only that one Cut is built."""
    sides = _cut_sides(g, 4, nontrivial_only=True)
    if sides:
        return make_cut(g, _bits(sides[0][0]))
    return make_cut(g, {0})


def verify_graph(g: MultiGraph) -> BoundReport:
    """Evaluates every applicable per-instance bound and identity.

    Hypotheses (3-edge-connectivity, bipartiteness, klee membership,
    cyclic connectivity, 2-edge-cuts) are computed here; a theorem is
    evaluated exactly when its hypothesis holds.
    """
    if not g.is_cubic():
        raise ValueError("verify_graph requires a cubic graph")
    if not g.is_connected():
        raise ValueError("verify_graph requires a connected graph")
    if bridges(g):
        raise ValueError("verify_graph requires a bridgeless graph")
    n = g.vertex_count
    counts = matching_profile(g)
    pm = counts.total
    min_avoiding = pm - max(counts.per_edge.values())
    dec = decompose(g)
    dim = len(g.edges) - n + 1 - dec.brick_count
    affine = pm_affine_dimension(g)
    ec = edge_connectivity(g)
    cyc = cyclic_edge_connectivity(g)
    cyc5 = cyclic_value_at_least(cyc, 5)
    bip = g.is_bipartite()
    klee = bool(is_klee(g))
    exceptional = canonical_form(g) == exceptional_canonical()
    invariants = {
        "bridgeless": True,
        "edge_connectivity": ec,
        "cyclic_edge_connectivity": (
            "NO_CYCLIC_CUT" if cyc is NO_CYCLIC_CUT else cyc
        ),
        "three_edge_connected": ec >= 3,
        "bipartite": bip,
        "klee": klee,
        "cyclically_5ec": cyc5,
        "exceptional": exceptional,
    }
    results: list[TheoremResult] = []

    def bound(tag: str, b: Fraction, value: Fraction, ok: bool | None = None) -> None:
        satisfied = (value >= b) if ok is None else ok
        results.append(TheoremResult(tag, "bound", b, value, satisfied))

    pmf = Fraction(pm)
    bound("pm_ge_n4_plus_2", Fraction(n, 4) + 2, pmf)
    bound(
        "pm_ge_n2_plus_1_unless_exceptional",
        Fraction(n, 2) + 1,
        pmf,
        ok=(pmf >= Fraction(n, 2) + 1) or (exceptional and pm == n // 2),
    )
    bound("pm_ge_3n4_minus_10", Fraction(3 * n, 4) - 10, pmf)
    if ec >= 3:
        bound("pm_ge_3n4_minus_9", Fraction(3 * n, 4) - 9, pmf)
    if bip:
        bound("pm_ge_3n2_minus_9", Fraction(3 * n, 2) - 9, pmf)
    if klee:
        bound("pm_ge_3n4_minus_6", Fraction(3 * n, 4) - 6, pmf)
    if cyc5:
        bound("cyc5_pm_ge_3n4_minus_3_2", Fraction(3 * n, 4) - Fraction(3, 2), pmf)
        bound(
            "cyc5_edge_deleted_pm_ge_n2_minus_1",
            Fraction(n, 2) - 1,
            Fraction(min_avoiding),
        )
    if ec == 2:
        bound("two_cut_avoid_ge_3", Fraction(3), Fraction(min_avoiding))
    results.append(
        TheoremResult(
            "dim_equals_affine_rank",
            "identity",
            Fraction(dim),
            Fraction(affine),
            dim == affine,
        )
    )
    cut = _sample_cut_for_identity(g)
    profile = boundary_profile(g, cut)
    total = sum(profile.m_a[x] * profile.m_b[x] for x in profile.m_a)
    results.append(
        TheoremResult(
            "cut_identity_sampled", "identity", pmf, Fraction(total), total == pm
        )
    )
    return BoundReport(
        canonical_hex=canonical_form(g).hex(),
        n=n,
        pm_count=pm,
        brick_count=dec.brick_count,
        dimension=dim,
        affine_dimension=affine,
        invariants=invariants,
        results=results,
    )


def verify_catalog(graphs: Iterable[MultiGraph], workers: int | None = None) -> list[BoundReport]:
    """Verifies a stream of graphs, preserving input order in the reports.

    Workers default to the CUBICMATCH_WORKERS environment variable; any
    value above 1 distributes graphs over a process pool.
    """
    graphs = list(graphs)
    if workers is None:
        workers = int(os.environ.get("CUBICMATCH_WORKERS", "1"))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(verify_graph, graphs)
    else:
        reports = [verify_graph(g) for g in graphs]
    for i, r in enumerate(reports):
        r.index = i
    return reports


def scarce_matching_graphs(max_n: int) -> list[tuple[int, str, int]]:
    """Graphs in the catalogs up to max_n with at most n/2 + 1 perfect
    matchings, reported as (n, canonical hex, pm count). Reported only:
    the sweep cannot bound the full family."""
    out = []
    for n in range(2, max_n + 1, 2):
        for g in bridgeless_cubic_catalog(n):
            pm = count_perfect_matchings(g)
            if pm <= n // 2 + 1:
                out.append((n, canonical_form(g).hex(), pm))
    return out


# --------------------------------------------------------------------------
# Bipartite companion search (cyclically 5-edge-connected instances)
# --------------------------------------------------------------------------

NOT_APPLICABLE = "NOT_APPLICABLE"
FOUND = "FOUND"
NOT_FOUND = "NOT_FOUND"


@dataclass(frozen=True)
class CompanionResult:
    status: str
    partner_edge: int | None


def bipartite_companion_check(g: MultiGraph, e: int) -> CompanionResult:
    """For cyclically 5-edge-connected cubic g where G-e is not matching
    covered, searches for an edge f making G-{e,f} bipartite and matching
    covered. NOT_APPLICABLE when the hypotheses fail."""
    if not g.is_cubic() or bridges(g):
        return CompanionResult(NOT_APPLICABLE, None)
    if not cyclically_edge_connected_at_least(g, 5):
        return CompanionResult(NOT_APPLICABLE, None)
    m = len(g.edges)

    def covered_without(removed: frozenset[int]) -> bool:
        """Every remaining edge lies in a perfect matching of G - removed."""
        kernel = _Kernel(g, removed)
        return all(
            kernel.count((1 << u) | (1 << v))
            for h, (u, v) in enumerate(g.edges)
            if h not in removed
        )

    if covered_without(frozenset((e,))):
        return CompanionResult(NOT_APPLICABLE, None)
    for f in range(m):
        if f == e:
            continue
        reduced = MultiGraph(
            g.vertex_count,
            tuple(pair for i, pair in enumerate(g.edges) if i not in (e, f)),
        )
        if not reduced.is_bipartite():
            continue
        if covered_without(frozenset((e, f))):
            return CompanionResult(FOUND, f)
    return CompanionResult(NOT_FOUND, None)
