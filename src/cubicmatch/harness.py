"""Catalog generation, per-instance verification of the matching-count
bounds, and the bipartite bound table.

Catalogs are exhaustive isomorph-free lists of connected cubic bridgeless
multigraphs. Every such graph splits into a 2-factor plus a perfect
matching, so enumerating all cycle types with all matchings on top and
rejecting isomorphs is exhaustive by construction; known simple-graph
census values and a half-edge pairing oracle guard the claim in tests.

Only unions built from their largest 2-factor type are canonically
labelled (McKay's rule of accepting an object only when it was built the
canonical way, with the 2-factor type standing in for the canonical
parent). The rule stays exhaustive because every graph has a 2-factor of
its largest type, and the sweep of that type meets it. It keeps the same
representative because types are swept from largest to smallest, so the
first union of every class already has its largest type.

Each pairing meets the filters cheapest first: the block-quotient test
(connected and bridgeless), marking its symmetry orbit, the depth-first
search for a 2-factor of larger type, and last `canonical_form`. The
quotient verdict is the same on a whole orbit, so a pairing that fails
it is dropped without marking and exactly the orbit minima that pass
are kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator

from .brick_brace import _affine_dimension, _decompose
from .connectivity import (
    NO_CYCLIC_CUT,
    _cut_sides,
    _cyclic_connectivity,
    _edge_connectivity,
    _require,
    _side_cut,
    bridges,
    cyclic_value_at_least,
    cyclically_edge_connected_at_least,
    edge_connectivity,
)
from .klee import _klee_steps
from .matching import (
    _boundary_profile,
    _Kernel,
    _matching_profile,
    count_perfect_matchings,
)
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
    """Partitions of n into parts >= 2, parts non-increasing, in
    descending lexicographic order: an earlier type is a larger one."""

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


def _symmetries(cycle_type: tuple[int, ...], n: int) -> tuple[list[bytes], list[bytes]]:
    """The symmetry group of the fixed 2-factor of ``cycle_type`` as
    (inverse, forward) vertex tables: the product of the dihedral groups of
    the cycle blocks.

    For the i-th element pi, ``forwards[i]`` is a translation table with
    entry u = pi(u) (every entry from n on is its own index) and
    ``inverses[i]`` is pi^-1 as n bytes. These are automorphisms of the
    2-factor, so pairings in the same orbit give isomorphic unions; the
    orbit filter only prunes duplicates and never loses classes. Each
    block's group gets one pair of tables per element, with every other
    vertex fixed, and the tables of the product are their compositions by
    ``translate``: one C call per table and group element. Blocks are
    disjoint, so their elements commute and the order of composition does
    not matter.
    """
    ident = bytes(range(256))
    per_block: list[list[tuple[bytes, bytes]]] = []
    offset = 0
    for c in cycle_type:
        cycle = ident[offset:offset + c]
        images = {cycle[r:] + cycle[:r] for r in range(c)}
        images |= {image[::-1] for image in images}
        head, tail = ident[:offset], ident[offset + c:]
        per_block.append(
            [(bytes.maketrans(image, cycle), head + image + tail) for image in images]
        )
        offset += c
    group = [(ident, ident)]
    for elements in per_block:
        group = [
            (inverse.translate(b_inverse), forward.translate(b_forward))
            for inverse, forward in group
            for b_inverse, b_forward in elements
        ]
    return [inverse[:n] for inverse, _ in group], [forward for _, forward in group]


# No block-pair code reaches it: with n <= 16 and blocks of length >= 2
# there are at most 8 blocks, so block-pair codes stay below 0x78.
_SAME_BLOCK = 255


def _block_pair_table(block: list[int]) -> bytes:
    """Translation table from pair codes u*16+v (u < v) to the block-pair
    code block[u]*16 + block[v], or `_SAME_BLOCK` when u and v share a
    block. Blocks are numbered in vertex order, so block[u] <= block[v]."""
    table = bytearray([_SAME_BLOCK]) * 256
    n = len(block)
    for u in range(n):
        for v in range(u + 1, n):
            if block[u] != block[v]:
                table[u * 16 + v] = block[u] * 16 + block[v]
    return bytes(table)


def _pairing_codes(n: int) -> list[bytes]:
    """Every pairing of range(n) as its sorted pair codes u*16+v, in
    strictly increasing code order, which orbit marking needs.

    Pair codes fit in a byte only while u, v < 16, i.e. for n <= 16;
    CATALOG_LIMIT keeps catalogs below that.
    """
    return _codes_of(tuple(range(n)), {(): [b""]})


def _codes_of(items: tuple[int, ...], memo: dict[tuple[int, ...], list[bytes]]) -> list[bytes]:
    """`_pairing_codes` of the sorted ``items``: the first item paired with
    each later one, ahead of every pairing of the rest. The codes of each
    rest are built once and kept in ``memo``, which the caller owns and
    drops on return."""
    found = memo.get(items)
    if found is None:
        a = items[0]
        found = memo[items] = [
            head + tail
            for i in range(1, len(items))
            for head in (bytes([a * 16 + items[i]]),)
            for tail in _codes_of(items[1:i] + items[i + 1:], memo)
        ]
    return found


# High and low nibble of every pair code u*16+v.
_HIGH = bytes(c >> 4 for c in range(256))
_LOW = bytes(c & 15 for c in range(256))


def _partner_table(codes: bytes) -> bytes:
    """The pairing ``codes`` as a translation table of its fixed-point-free
    involution: entry u holds the partner of u for every paired u, and
    every other entry its own index. Built in C from the codes' nibbles."""
    us = codes.translate(_HIGH)
    vs = codes.translate(_LOW)
    return bytes.maketrans(us + vs, vs + us)


def _pairings(n: int) -> tuple[list[bytes], list[bytes]]:
    """Every pairing of range(n) as its partner array (index u holds the
    partner of u: the first n bytes of `_partner_table`) and, at the same
    index of a second list, its pair codes, both in the increasing code
    order of `_pairing_codes`."""
    codes = _pairing_codes(n)
    return [_partner_table(c)[:n] for c in codes], codes


def _is_orbit_minimal(
    partner: bytes, symmetries: tuple[list[bytes], list[bytes]], marked: set[bytes]
) -> bool:
    """Whether the pairing with partner array ``partner`` is the first of
    its orbit to arrive under the group whose (inverse, forward) vertex
    tables are ``symmetries`` (`_symmetries`).

    Pairings must arrive in increasing code order, all with the same
    ``marked`` set of partner arrays. The first pairing of an orbit to
    arrive is then its minimum: it marks every image and is accepted;
    later members find themselves marked. The image of p under pi is
    pi p pi^-1, i.e. ``inverse.translate(table of p).translate(forward)``:
    two C calls per group element, with no sort. The tables form a group,
    so the images are the whole orbit.

    `_candidate_pairings` calls this only on unmarked pairings that pass
    the block-quotient test. Its verdict is the same on a whole orbit, so
    it withholds whole orbits only; the first member of every orbit that
    arrives is still its minimum, and there the call always marks.
    """
    if partner in marked:
        return False
    inverses, forwards = symmetries
    # Entries from n on are never read: every inverse entry is below n.
    table = partner.ljust(256, b"\0")
    marked.update(map(bytes.translate, map(bytes.translate, inverses, repeat(table)), forwards))
    return True


def _candidate_pairings(
    cycle_type: tuple[int, ...], block: list[int], pairings: tuple[list[bytes], list[bytes]]
) -> Iterator[bytes]:
    """The pair codes of the orbit-minimal ``pairings`` (every pairing as
    its partner array and its codes, in code order; see `_pairings`) whose
    union with the 2-factor of ``cycle_type`` is connected and bridgeless,
    in code order.

    Orbits are marked on partner arrays, whose images are two byte
    translates each (`_is_orbit_minimal`); the quotient test reads the
    codes kept beside each array and runs before the orbit is marked.
    Every symmetry maps each cycle block to itself, so all pairings of an
    orbit have the same multiset of block pairs, hence the same quotient
    verdict. A pairing that fails it is skipped without marking: the rest
    of its orbit fails too, and orbits are disjoint, so no other orbit's
    marks are lost. A pairing that passes and is not marked is its orbit's
    minimum, since an earlier member would have passed too and marked it.
    So exactly the orbit minima that pass are yielded, as when every
    pairing was marked first.

    Quotient verdicts are cached per block-pair key, the codes translated
    by `_block_pair_table`: far fewer distinct keys than partner arrays
    would give.
    """
    blocks = len(cycle_type)
    symmetries = _symmetries(cycle_type, len(block))
    block_table = _block_pair_table(block)
    verdicts: dict[bytes, bool] = {}
    marked: set[bytes] = set()
    for partner, codes in zip(*pairings):
        if partner in marked:
            continue
        key = codes.translate(block_table)
        passes = verdicts.get(key)
        if passes is None:
            cross = [divmod(c, 16) for c in key if c != _SAME_BLOCK]
            passes = verdicts[key] = _quotient_connected_bridgeless(cross, blocks)
        if passes and _is_orbit_minimal(partner, symmetries, marked):
            yield codes


def _two_factor_type(g: MultiGraph, matching: Iterable[int]) -> tuple[int, ...]:
    """Cycle type, lengths non-increasing, of the 2-factor g - matching."""
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    skip = set(matching)
    for i, (u, v) in enumerate(g.edges):
        if i not in skip:
            parent[find(u)] = find(v)
    sizes: dict[int, int] = {}
    for x in range(g.vertex_count):
        root = find(x)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def _has_larger_two_factor(g: MultiGraph, cycle_type: tuple[int, ...]) -> bool:
    """Whether some 2-factor of cubic g has a cycle type lexicographically
    larger than ``cycle_type``, i.e. one that `_partitions_min2` yields
    earlier. Stops at the first; a Hamiltonian type has none larger.

    This is the generator's one larger-type rule. It also drops every
    union where two matching edges could replace a cycle edge on each of
    two cycles: joining cycles of lengths a and b into one of length
    a + b gives a larger sorted type, and the search tries every 2-factor.
    """
    if len(cycle_type) == 1:
        return False
    return _larger_two_factor_below(g, cycle_type, 0, [])


def _larger_two_factor_below(
    g: MultiGraph, cycle_type: tuple[int, ...], covered: int, matching: list[int]
) -> bool:
    """Depth-first search for a perfect matching of g that extends
    ``matching`` (covering the vertex bitmask ``covered``) and leaves a
    2-factor of type larger than ``cycle_type``.

    It branches at the lowest uncovered vertex, once per free neighbour:
    parallel edges to one neighbour leave 2-factors with the same cycles.
    It only looks for a witness and counts nothing, so it needs no memo.
    """
    if covered == (1 << g.vertex_count) - 1:
        return _two_factor_type(g, matching) > cycle_type
    low = ~covered & (covered + 1)
    covered |= low
    tried = covered
    for e, w in g.incidence[low.bit_length() - 1]:
        bit = 1 << w
        if tried & bit:
            continue
        tried |= bit
        matching.append(e)
        if _larger_two_factor_below(g, cycle_type, covered | bit, matching):
            return True
        matching.pop()
    return False


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
    of order n, sorted by canonical form.

    Each cycle type T is swept in `_partitions_min2` order with every
    orbit-minimal pairing M on top (`_candidate_pairings`). Every pairing
    is held as its partner array next to its pair codes (`_pairings`). The
    cheap, orbit-invariant block-quotient test (cached per block-pair key
    of the codes) runs first, and only a pairing that passes it marks its
    orbit: the partner arrays of its images, each two byte translates
    through the (inverse, forward) vertex tables of a symmetry
    (`_symmetries`). The accepted pairings are the orbit minima with a
    connected bridgeless union, as when every orbit is marked first. Such
    a union reaches `canonical_form` only when the witness search of
    `_has_larger_two_factor` finds no 2-factor of it with a type larger
    than T. Exhaustive: every graph has a 2-factor of its largest type,
    and the sweep of that type meets it. Same representative as labelling
    every union: a class first appears at its largest type, where no union
    of it is skipped.

    ``n`` must be an ``int`` (not a ``bool``): a float such as 6.0 hashes
    like 6, so it is refused before the cache is read.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"catalog order must be an int, got {n!r}")
    if n % 2 or n < 2:
        raise ValueError("catalogs require even n >= 2")
    if n > CATALOG_LIMIT:
        raise ValueError(f"exhaustive catalogs are capped at n = {CATALOG_LIMIT}")
    if n in _CATALOG_CACHE:
        return _CATALOG_CACHE[n]
    seen: dict[bytes, MultiGraph] = {}
    pairings = _pairings(n)
    for cycle_type in _partitions_min2(n):
        factor_edges, block = _two_factor(cycle_type)
        for codes in _candidate_pairings(cycle_type, block, pairings):
            g = MultiGraph(n, tuple(factor_edges) + tuple(divmod(c, 16) for c in codes))
            if _has_larger_two_factor(g, cycle_type):
                continue
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
    """One evaluated bound or identity. witness locates a failure (the
    arg-min edge of an avoiding bound, the sampled cut of the cut
    identity); satisfied entries carry none, and only a witness that is
    set appears in to_json."""

    tag: str
    kind: str  # "bound" or "identity"
    bound: Fraction
    value: Fraction
    satisfied: bool
    witness: dict | None = None

    @property
    def slack(self) -> Fraction:
        return self.value - self.bound

    def to_json(self) -> dict:
        out = {
            "tag": self.tag,
            "kind": self.kind,
            "bound": str(self.bound),
            "value": str(self.value),
            "satisfied": self.satisfied,
            "slack": str(self.slack),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


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
    else the star of vertex 0; only that one Cut is built, and the cut
    walk stops at its size."""
    first = next(_cut_sides(g, 4, nontrivial_only=True), None)
    return make_cut(g, {0}) if first is None else _side_cut(g, *first)


def verify_graph(g: MultiGraph) -> BoundReport:
    """Evaluates every applicable per-instance bound and identity.

    Hypotheses (3-edge-connectivity, bipartiteness, klee membership,
    cyclic connectivity, 2-edge-cuts) are computed here; a theorem is
    evaluated exactly when its hypothesis holds.

    g is checked once, and one matching kernel on g serves the profile, the
    decomposition's tight cuts, the affine rank and the sampled cut; it is
    freed on return. A failed avoiding bound carries its arg-min edge as
    its witness, and a failed cut identity its cut.
    """
    _require(g, "verify_graph", cubic=True, connected=True, bridgeless=True)
    n = g.vertex_count
    kernel = _Kernel(g)
    counts = _matching_profile(kernel, g, frozenset())
    pm = counts.total
    # the first edge of largest count leaves the fewest matchings behind
    heaviest = max(counts.per_edge, key=counts.per_edge.__getitem__)
    min_avoiding = pm - counts.per_edge[heaviest]
    dec = _decompose(kernel, g)
    dim = len(g.edges) - n + 1 - dec.brick_count
    affine = _affine_dimension(kernel, g)
    # g passed _require above, so neither value checks it again
    ec = _edge_connectivity(g)
    cyc = _cyclic_connectivity(g)
    cyc5 = cyclic_value_at_least(cyc, 5)
    bip = g.is_bipartite()
    klee = bool(_klee_steps(g))
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

    def bound(
        tag: str,
        b: Fraction,
        value: Fraction,
        ok: bool | None = None,
        witness: dict | None = None,
    ) -> None:
        satisfied = (value >= b) if ok is None else ok
        results.append(
            TheoremResult(tag, "bound", b, value, satisfied, None if satisfied else witness)
        )

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
            witness={"edge": heaviest},
        )
    if ec == 2:
        bound(
            "two_cut_avoid_ge_3",
            Fraction(3),
            Fraction(min_avoiding),
            witness={"edge": heaviest},
        )
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
    profile = _boundary_profile(kernel, g, cut)
    total = sum(profile.m_a[x] * profile.m_b[x] for x in profile.m_a)
    witness = None
    if total != pm:
        witness = {"side_a": sorted(cut.side_a), "cut_edges": sorted(cut.cut_edges)}
    results.append(
        TheoremResult(
            "cut_identity_sampled", "identity", pmf, Fraction(total), total == pm, witness
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
        value = os.environ.get("CUBICMATCH_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            raise ValueError(
                f"CUBICMATCH_WORKERS must be an integer, got {value!r}"
            ) from None
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
        return _Kernel(g, removed).matching_covered()

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
