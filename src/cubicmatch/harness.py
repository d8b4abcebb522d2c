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

Each class is labelled once. A union that is kept marks every other way
of building it from its type: each 2-factor of that type, laid on the
fixed 2-factor, with the rest of the union as the pairing. Those
pairings are then skipped like orbit images. `_is_orbit_minimal` is the
one marking step, and marking an orbit twice adds nothing. The first
union of a class at its largest type is the code-minimum of all these
pairings, so every one they mark comes later in the sweep and would have
been labelled only to be dropped as a duplicate; the representatives do
not change.

The sweep of a type T reads only pairings that can be orbit minima
(the first-partner rule). Let T's first, longest cycle lie on vertices
0..c-1, and F(T) be {1, ..., c // 2} with the first vertex of every
other cycle. A pairing's first pair in code order is (0, p[0]), so an
orbit minimum has the least p[0] of its orbit, which lies in F(T): with
0 fixed, the reflection of the first cycle turns a partner b on it into
c - b, and a rotation of any other cycle turns a partner on it into its
first vertex. So only pairings with p[0] in F(T) are walked, and an
orbit is marked only by its images with a first partner in F(T). The
pairings with p[0] = b form run b, which `_runs` relabels from the one
list of order n - 2; the sweep builds the runs once and reads them all.

Each pairing walked meets the filters cheapest first: the block-quotient
test (connected and bridgeless), marking its symmetry orbit, the
depth-first search for a 2-factor of larger type, and last
`canonical_form`. The quotient verdict is the same on a whole orbit, so
a pairing that fails it is dropped without marking and exactly the
orbit minima that pass are kept. Every filter before `canonical_form`
runs on arrays; a `MultiGraph` is built only for a union to be labelled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, groupby, permutations, product, repeat
from typing import Callable, Iterable, Iterator

from .brick_brace import _affine_dimension, _decompose
from .connectivity import (
    NO_CYCLIC_CUT,
    _bits,
    _cut_sides,
    _require,
    bridges,
    cyclic_edge_connectivity,
    cyclic_value_at_least,
    cyclically_edge_connected_at_least,
    edge_connectivity,
)
from .klee import is_klee
from .matching import (
    _cut_identity_total,
    _Kernel,
    _matching_profile,
    _validate_constraints,
    count_perfect_matchings,
    matching_profile,
)
from .multigraph import (
    DEFAULT_CANONICAL_BOUND,
    MultiGraph,
    _crossing_edges,
    _is_int,
    canonical_form,
)
from .named_graphs import exceptional_graph

# each catalog class and its membership test on a graph of the full
# catalog; CATALOG_CLASSES, the CLI's --class choices and
# generate_catalog all read it
_CLASS_TESTS: dict[str, Callable[[MultiGraph], bool]] = {
    "all_bridgeless_cubic": lambda g: True,
    "three_edge_connected": lambda g: edge_connectivity(g) >= 3,
    "bipartite": MultiGraph.is_bipartite,
    "cyclically_4ec": lambda g: cyclically_edge_connected_at_least(g, 4),
    "cyclically_5ec": lambda g: cyclically_edge_connected_at_least(g, 5),
}
CATALOG_CLASSES = tuple(_CLASS_TESTS)

CATALOG_LIMIT = 14


@dataclass(frozen=True)
class BipartiteBoundTable:
    """g(3)=4, g(k)=ceil(4 g(k-1)/3), f(k)=ceil(3 g(k)/2)."""

    g: dict[int, int]
    f: dict[int, int]


def bound_table(max_k: int) -> BipartiteBoundTable:
    if not _is_int(max_k) or max_k < 3:
        raise ValueError(f"bound_table requires an int max_k >= 3, got {max_k!r}")
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


class _BlockGroup:
    """The symmetry group of the fixed 2-factor of a cycle type T, the
    product of the dihedral groups of its cycle blocks, arranged for the
    first-partner rule (module docstring): F(T) as ``first_partners`` in
    increasing order, and the (inverse, forward) vertex tables of the
    elements pi with pi^-1(0) = a in ``by_first[a]``, for each vertex a
    of the first cycle.

    For each element pi, the forward table is a translation table with
    entry u = pi(u) (every entry from n on is its own index) and the
    inverse table is pi^-1 as n bytes. These are automorphisms of the
    2-factor, so pairings in the same orbit give isomorphic unions; the
    orbit filter only prunes duplicates and never loses classes. Each
    element of one block's dihedral group is a pair of tables that fix
    every other vertex, and the tables of the product are their
    compositions by ``translate``: one C call per table and group element.
    Blocks are disjoint, so their elements commute and the order of
    composition does not matter.

    ``selected(a, b)`` holds the (inverse, forward) tables of the elements
    pi with pi^-1(0) = a and pi(b) in F(T), built once per (a, b). The
    image pi p pi^-1 pairs 0 with pi(p[a]) for a = pi^-1(0), a vertex of
    the first cycle, so the selections for (a, p[a]) over those vertices
    give exactly p's images in F(T). None is empty (the rule's proof,
    after rotating a to 0).
    """

    def __init__(self, cycle_type: tuple[int, ...], n: int) -> None:
        c = cycle_type[0]
        self.first_partners = bytes(range(1, c // 2 + 1)) + bytes(accumulate(cycle_type[:-1]))
        self.cycle = range(c)
        ident = bytes(range(256))
        group = [(ident, ident)]
        offset = 0
        for length in cycle_type:
            cycle = ident[offset:offset + length]
            images = {cycle[r:] + cycle[:r] for r in range(length)}
            images |= {image[::-1] for image in images}
            head, tail = ident[:offset], ident[offset + length:]
            elements = [(bytes.maketrans(image, cycle), head + image + tail) for image in images]
            group = [
                (inverse.translate(b_inverse), forward.translate(b_forward))
                for inverse, forward in group
                for b_inverse, b_forward in elements
            ]
            offset += length
        self.by_first: list[list[tuple[bytes, bytes]]] = [[] for _ in self.cycle]
        for inverse, forward in group:
            self.by_first[inverse[0]].append((inverse[:n], forward))
        self._selected: dict[int, tuple[tuple[bytes, ...], ...]] = {}

    def selected(self, a: int, b: int) -> tuple[tuple[bytes, ...], ...]:
        found = self._selected.get(a * 16 + b)
        if found is None:
            kept = [pair for pair in self.by_first[a] if pair[1][b] in self.first_partners]
            found = self._selected[a * 16 + b] = tuple(zip(*kept))
        return found


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


def _pairings(n: int) -> tuple[list[bytes], list[bytes]]:
    """Every pairing of range(n) as its partner array (index u holds the
    partner of u) and, at the same index of a second list, its sorted pair
    codes u*16+v, both in strictly increasing code order, which orbit
    marking needs. It is the runs of `_runs` one after another, relabelled
    from the list of order n - 2; order 0 has one empty pairing.

    Pair codes fit in a byte only while u, v < 16, i.e. for n <= 16;
    CATALOG_LIMIT keeps catalogs below that.
    """
    if not n:
        return [b""], [b""]
    partners, codes = zip(*_runs(n, _pairings(n - 2)))
    return list(chain(*partners)), list(chain(*codes))


def _runs(
    n: int, base: tuple[list[bytes], list[bytes]]
) -> Iterator[tuple[list[bytes], list[bytes]]]:
    """Run b of the pairings of range(n), for b = 1, ..., n - 1: those with
    partner[0] = b as partner arrays and pair codes (see `_pairings`), in
    code order. Each is ``base``, the pairings of order n - 2, relabelled
    with vertex i sent to the i-th vertex of range(1, n) less b, and the
    pair (0, b) added. That map is increasing, so it keeps code order
    within a run, and the first code b orders the runs.

    A partner array is one translate through ``label``, the vertex map as
    a table, with 0 spliced in at index b; a code list is one translate
    through the code table behind the code of (0, b), which is below
    every other."""
    partners, codes = base
    for b in range(1, n):
        label = bytes(v for v in range(1, n) if v != b).ljust(256, b"\0")
        code_table = bytes(label[c >> 4] * 16 + label[c & 15] for c in range(256))
        head = bytes((b,))
        translated = map(bytes.translate, partners, repeat(label))
        yield (
            [head + p[:b - 1] + b"\0" + p[b - 1:] for p in translated],
            list(map(head.__add__, map(bytes.translate, codes, repeat(code_table)))),
        )


def _is_orbit_minimal(partner: bytes, group: _BlockGroup, marked: set[bytes]) -> bool:
    """Marks the orbit of the pairing with partner array ``partner`` under
    the block group ``group``, unless ``partner`` is in ``marked``, and
    says whether it did. Only the images the walk can read are marked,
    those with a first partner in F(T) (`_BlockGroup.selected`). The image
    of p under pi is pi p pi^-1, i.e.
    ``inverse.translate(table of p).translate(forward)``.

    Fed pairings in increasing code order from the runs of F(T)
    (`_candidate_pairings`), all with the same ``marked`` set of partner
    arrays, it accepts exactly the orbit minima: the first of an orbit to
    arrive is its minimum and marks the rest, which find themselves
    marked. `_candidate_pairings` calls it only on unmarked pairings that
    pass the block-quotient test, whose verdict is the same on a whole
    orbit.

    `bridgeless_cubic_catalog` also calls it, out of order, on each
    relabelling of a union it keeps (`_same_type_partners`); those orbits
    lie later in code order, so they are marked before any member
    arrives. A relabelling may lie in a run the walk skips, so it can be
    unmarked while its orbit is marked. Marking that orbit again adds
    nothing: every call marks all of the orbit's images in F(T).
    """
    if partner in marked:
        return False
    # Entries from n on are never read: every inverse entry is below n.
    table = partner.ljust(256, b"\0")
    for a in group.cycle:
        inverses, forwards = group.selected(a, partner[a])
        marked.update(map(bytes.translate, map(bytes.translate, inverses, repeat(table)), forwards))
    return True


def _candidate_pairings(
    cycle_type: tuple[int, ...],
    block: list[int],
    runs: list[tuple[list[bytes], list[bytes]]],
    group: _BlockGroup,
    marked: set[bytes],
) -> Iterator[bytes]:
    """The orbit-minimal pairings whose union with the 2-factor of
    ``cycle_type`` is connected and bridgeless, as partner arrays in code
    order. ``runs`` holds run b of `_runs` at index b - 1, ``block`` each
    vertex's block id (`_ring`), ``group`` the type's `_BlockGroup` and
    ``marked`` the partner arrays of the orbits marked so far. No graph is
    built.

    Only the runs of F(T) are walked, in order. A pairing of another run
    is not its orbit's minimum, which arrives first and either fails the
    quotient test with it or marks it.

    The quotient test reads the codes kept beside each array, whose only
    use is its block-pair key, and runs before the orbit is marked
    (`_is_orbit_minimal`). Every symmetry maps each cycle block to itself,
    so a whole orbit has one quotient verdict. A pairing that fails it is
    skipped without marking: the rest of its orbit fails too, and orbits
    are disjoint, so no other orbit's marks are lost. A pairing that
    passes and is not marked is its orbit's minimum, since an earlier
    member would have passed too and marked it.

    ``marked`` is read afresh for every pairing, so orbits that the caller
    marks between two yields (`bridgeless_cubic_catalog` marks the
    relabellings of each union it keeps) are skipped too.

    Quotient verdicts are cached per block-pair key, the codes translated
    by `_block_pair_table`: far fewer distinct keys than partner arrays
    would give.
    """
    blocks = len(cycle_type)
    block_table = _block_pair_table(block)
    verdicts: dict[bytes, bool] = {}
    for b in group.first_partners:
        for partner, pair_codes in zip(*runs[b - 1]):
            if partner in marked:
                continue
            key = pair_codes.translate(block_table)
            passes = verdicts.get(key)
            if passes is None:
                cross = [divmod(c, 16) for c in key if c != _SAME_BLOCK]
                passes = verdicts[key] = _quotient_connected_bridgeless(cross, blocks)
            if passes and _is_orbit_minimal(partner, group, marked):
                yield partner


_Ring = tuple[list[tuple[int, ...]], list[int], list[int], list[int]]


def _ring(cycle_type: tuple[int, ...]) -> _Ring:
    """The fixed 2-factor of ``cycle_type``, its cycles on consecutive
    vertices, as four per-vertex lists: the distinct ring neighbours above
    the vertex, the next ring vertex (the last of a cycle is followed by
    its first), the sum of both ring neighbours (twice the other end on a
    digon), and the block id, the index of the vertex's cycle."""
    above: list[tuple[int, ...]] = []
    first: list[int] = []
    sums: list[int] = []
    block: list[int] = []
    offset = 0
    for bid, length in enumerate(cycle_type):
        last = offset + length - 1
        for v in range(offset, last + 1):
            after = v + 1 if v < last else offset
            before = v - 1 if v > offset else last
            above.append(tuple(sorted({w for w in (after, before) if w > v})))
            first.append(after)
            sums.append(after + before)
            block.append(bid)
        offset += length
    return above, first, sums, block


def _union(ring: _Ring, partner: bytes) -> MultiGraph:
    """The union of the 2-factor ``ring`` (`_ring`) and the pairing
    ``partner``: the edges (v, next ring vertex) for every v, then
    (u, partner[u]) for every u < partner[u]. A digon's two ends give its
    two parallel edges."""
    pairs = tuple((u, p) for u, p in enumerate(partner) if u < p)
    return MultiGraph(len(partner), tuple(enumerate(ring[1])) + pairs)


_SameType = list[tuple[list[int], list[list[int]]]]


def _same_type_matchings(
    cycle_type: tuple[int, ...], ring: _Ring, partner: bytes
) -> _SameType | None:
    """The witness search on the union of the fixed 2-factor of
    ``cycle_type`` (its `_ring`) with the pairing ``partner``: None when
    some 2-factor of the union has a cycle type lexicographically larger
    than ``cycle_type``, i.e. one that `_partitions_min2` yields earlier;
    otherwise every perfect matching of the union whose 2-factor has
    exactly ``cycle_type``, once per set of vertex pairs, each as a mate
    list (entry u the vertex matched to u) beside its 2-factor's cycles
    (`_two_factor_cycles`). Works on the arrays alone: no graph is built.

    It stops at the first larger type. A union it does not stop on has had
    every perfect matching visited, so the list is complete; the
    Hamiltonian type has no larger type, and its search always walks to
    the end.

    This is the generator's one larger-type rule. It also drops every
    union where two matching edges could replace a cycle edge on each of
    two cycles: joining cycles of lengths a and b into one of length
    a + b gives a larger sorted type, and the search tries every 2-factor.
    """
    above, first, sums, _ = ring
    # each vertex's free neighbours once branching reaches it: every lower
    # vertex is covered by then
    options = [
        ups + (p,) if p > u and p not in ups else ups
        for u, (ups, p) in enumerate(zip(above, partner))
    ]
    mate = [-1] * len(partner)
    same: _SameType = []
    if _larger_two_factor_below(cycle_type, options, (first, sums, partner), mate, 0, same):
        return None
    return same


def _larger_two_factor_below(
    cycle_type: tuple[int, ...],
    options: list[tuple[int, ...]],
    union: tuple[list[int], list[int], bytes],
    mate: list[int],
    u: int,
    same: _SameType,
) -> bool:
    """Depth-first search for a perfect matching of the union that extends
    ``mate`` (-1 at each uncovered vertex; every vertex below ``u`` is
    covered) and leaves a 2-factor of type larger than ``cycle_type``.
    Each perfect matching met on the way whose 2-factor has exactly
    ``cycle_type`` is appended to ``same`` as a copy of ``mate`` beside
    the cycles of that 2-factor, walked once here.

    It branches at the lowest uncovered vertex, once per free neighbour in
    ``options``: parallel edges to one neighbour leave 2-factors with the
    same cycles. It only looks for a witness and counts nothing, so it
    needs no memo.
    """
    n = len(mate)
    while u < n and mate[u] >= 0:
        u += 1
    if u == n:
        cycles = _two_factor_cycles(union, mate)
        lengths = tuple(sorted(map(len, cycles), reverse=True))
        if lengths == cycle_type:
            same.append((mate[:], cycles))
        return lengths > cycle_type
    for w in options[u]:
        if mate[w] < 0:
            mate[u] = w
            mate[w] = u
            if _larger_two_factor_below(cycle_type, options, union, mate, u + 1, same):
                return True
            mate[w] = -1
    mate[u] = -1
    return False


def _two_factor_cycles(
    union: tuple[list[int], list[int], bytes], mate: list[int]
) -> list[list[int]]:
    """The cycles of the 2-factor that the perfect matching ``mate`` leaves
    in the union whose ring lists (`_ring`) and partner array are
    ``union``, each as its vertices in walk order, in the order of their
    least vertex.

    Each cycle is walked: the step after vertex x, entered from y, is
    (sum of the three neighbours of x) - mate[x] - y. Neighbour sums count
    parallel edges, so digons and a matching edge beside a parallel ring
    edge need no special case.
    """
    first, sums, partner = union
    seen = [False] * len(mate)
    cycles = []
    for start, matched in enumerate(mate):
        if seen[start]:
            continue
        # step off along the partner edge, unless that is the matched one
        here = partner[start] if partner[start] != matched else first[start]
        before, cycle = start, [start]
        while here != start:
            seen[here] = True
            cycle.append(here)
            here, before = sums[here] + partner[here] - mate[here] - before, here
        cycles.append(cycle)
    return cycles


def _same_type_partners(same: _SameType) -> Iterator[bytes]:
    """Partner arrays of a union of a ring (`_ring`) and a pairing,
    relabelled onto the same ring, once for each perfect matching of the
    union in ``same`` (`_same_type_matchings`, with its 2-factor's cycles)
    and each way of laying those cycles on the ring blocks.

    Every cycle goes to a block of its length, which holds it from one
    start in one direction: the block's dihedral group maps that choice
    onto every other, so the orbit of the array covers them. Equal-length
    cycles go to equal-length blocks in every order, since the group swaps
    no blocks. Blocks of one length are consecutive in the ring, longest
    first, as are the cycles once sorted by length. Each array pairs the
    labels of the matched ends of the matching, so its union with the ring
    is isomorphic to the union of the ring and the pairing.
    """
    for mate, cycles in same:
        cycles = sorted(cycles, key=len, reverse=True)
        runs = [list(group) for _, group in groupby(cycles, key=len)]
        for layout in product(*map(permutations, runs)):
            order = [v for run in layout for cycle in run for v in cycle]
            label = {v: i for i, v in enumerate(order)}
            yield bytes([label[mate[v]] for v in order])


def _quotient_connected_bridgeless(
    cross: list[tuple[int, int]], blocks: int
) -> bool:
    """Connectivity plus bridgelessness of the block quotient.

    Cycle blocks are internally 2-edge-connected, so the whole union is
    connected and bridgeless exactly when the quotient over blocks by the
    cross matching edges is. One depth-first lowpoint walk over the
    quotient's own incidence lists decides both (`_lowpoint`).
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(blocks)]
    for i, (a, b) in enumerate(cross):
        incident[a].append((b, i))
        incident[b].append((a, i))
    order = [0] * blocks
    order[0] = 1
    reached = [0]
    return _lowpoint(0, -1, incident, order, reached) > 0 and len(reached) == blocks


def _lowpoint(
    v: int, via: int, incident: list[list[tuple[int, int]]], order: list[int], reached: list[int]
) -> int:
    """The smallest discovery number among block v and the blocks that its
    depth-first subtree, entered by cross edge ``via``, reaches by one
    back edge; 0 when some tree edge in the subtree is a bridge.

    ``order`` holds discovery numbers from 1 (0 is unvisited) and
    ``reached`` the blocks visited so far. The tree edge to a child w is a
    bridge when w's subtree reaches nothing discovered before w. Edges are
    told apart by index, not by their other end, so a doubled cross edge
    is no bridge. Blocks number at most 8, so the recursion stays shallow.
    """
    low = here = order[v]
    for w, i in incident[v]:
        if i == via:
            continue
        seen = order[w]
        if not seen:
            reached.append(w)
            order[w] = len(reached)
            below = _lowpoint(w, i, incident, order, reached)
            if not below or below > here:
                return 0
            if below < low:
                low = below
        elif seen < low:
            low = seen
    return low


_CATALOG_CACHE: dict[int, tuple[MultiGraph, ...]] = {}


def bridgeless_cubic_catalog(n: int) -> tuple[MultiGraph, ...]:
    """All isomorphism classes of connected bridgeless cubic multigraphs
    of order n, sorted by canonical form.

    Each cycle type T is swept in `_partitions_min2` order with every
    orbit-minimal pairing M on top whose union is connected and bridgeless
    (`_candidate_pairings`). Only the pairings whose partner of vertex 0
    lies in F(T) are walked, and an accepted M marks only its images there
    (the first-partner rule, module docstring). The witness search of
    `_same_type_matchings` then looks for a 2-factor with a type larger
    than T on T's ring (`_ring`) and M's partner array. Only a union where
    it finds none is built as a `MultiGraph`, and only to reach
    `canonical_form`. Exhaustive: every graph has a 2-factor of its
    largest type, and the sweep of that type meets it.

    A union that reaches `canonical_form` is kept, and marks its other
    labellings of type T: the search has met every perfect matching of
    the union, and each one whose 2-factor has type T is laid on the ring
    in every way up to the group (`_same_type_partners`); each such
    partner array marks its orbit in the set the sweep of T reads, which
    adds nothing when the orbit is already marked (`_is_orbit_minimal`).
    So every class is labelled once. The representatives are those of
    labelling every union and keeping the first of each class. A class
    first appears at its largest type T, since the search drops it at
    every earlier type. There the code-minimum of all its type-T
    labellings arrives first and is kept: it is the minimum of its own
    orbit, the marks of other kept unions are labellings of other
    classes, and it passes the quotient test and the search, as every
    labelling of the class does. Every labelling the rule marks is
    therefore later in code order and of a class already kept, so it
    would only have been dropped as a duplicate.

    ``n`` must be an ``int`` (not a ``bool``): a float such as 6.0 hashes
    like 6, so it is refused before the cache is read.
    """
    if not _is_int(n):
        raise ValueError(f"catalog order must be an int, got {n!r}")
    if n % 2 or n < 2:
        raise ValueError("catalogs require even n >= 2")
    if n > CATALOG_LIMIT:
        raise ValueError(f"exhaustive catalogs are capped at n = {CATALOG_LIMIT}")
    if n in _CATALOG_CACHE:
        return _CATALOG_CACHE[n]
    seen: dict[bytes, MultiGraph] = {}
    runs = list(_runs(n, _pairings(n - 2)))
    for cycle_type in _partitions_min2(n):
        ring = _ring(cycle_type)
        group = _BlockGroup(cycle_type, n)
        marked: set[bytes] = set()
        for partner in _candidate_pairings(cycle_type, ring[3], runs, group, marked):
            same = _same_type_matchings(cycle_type, ring, partner)
            if same is None:
                continue
            g = _union(ring, partner)
            seen.setdefault(canonical_form(g), g)
            for relabelled in _same_type_partners(same):
                _is_orbit_minimal(relabelled, group, marked)
    result = tuple(seen[k] for k in sorted(seen))
    _CATALOG_CACHE[n] = result
    return result


def generate_catalog(
    n: int, klass: str = "all_bridgeless_cubic", simple_only: bool = False
) -> list[MultiGraph]:
    """Exhaustive isomorph-free catalog of order n in the requested class.

    simple_only drops graphs with parallel edges, for comparison with
    published simple-graph census counts.
    """
    if klass not in _CLASS_TESTS:
        raise ValueError(f"unknown catalog class {klass!r}")
    in_class = _CLASS_TESTS[klass]
    return [
        g for g in bridgeless_cubic_catalog(n)
        if (not simple_only or g.is_simple()) and in_class(g)
    ]


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


def _sample_cut_for_identity(g: MultiGraph) -> tuple[int, tuple[int, ...]]:
    """The first nontrivial cut of at most 4 edges in enumerate_cuts' order,
    as the cut walk's (side_a mask, cut edges) pair, else the star of
    vertex 0 as (1, its crossing edges). No Cut is built, and the cut walk
    stops at the sampled cut's size."""
    first = next(_cut_sides(g, 4, nontrivial_only=True), None)
    return (1, _crossing_edges(g, frozenset((0,)))) if first is None else first


def verify_graph(g: MultiGraph) -> BoundReport:
    """Evaluates every applicable per-instance bound and identity.

    Hypotheses (3-edge-connectivity, bipartiteness, klee membership,
    cyclic connectivity, 2-edge-cuts) are computed here; a theorem is
    evaluated exactly when its hypothesis holds. The report carries g's
    canonical form, so an order above ``DEFAULT_CANONICAL_BOUND``, which
    `canonical_form` cannot label, is refused before any counting.

    The hypotheses come from the public, checked queries, whose checks read
    g's cached forest. is_klee is asked only when n = 4 or the cyclic
    value is 3: a klee graph is K4, or has a last-inserted triangle whose
    3-cut is cyclic for n >= 6 (the other side has (3n - 12)/2 > n - 4
    edges, so it holds a cycle), and klee graphs are 3-edge-connected, so
    their cyclic value is exactly 3. One matching kernel on g serves the
    profile, the decomposition's tight cuts, the affine rank and the
    sampled cut; it is freed on return. Each bound is one Fraction of
    integers. A failed avoiding bound carries its arg-min edge as its
    witness, and a failed cut identity its cut.
    """
    _require(g, "verify_graph", cubic=True, connected=True, bridgeless=True)
    n = g.vertex_count
    if not n:  # cubic, connected and bridgeless hold vacuously
        raise ValueError("verify_graph requires a graph with at least one vertex")
    if n > DEFAULT_CANONICAL_BOUND:
        raise ValueError(f"verify_graph takes at most {DEFAULT_CANONICAL_BOUND} vertices, got {n}")
    kernel = _Kernel(g, who="verify_graph")
    counts = _matching_profile(kernel, g, frozenset())
    pm = counts.total
    # the first edge of largest count leaves the fewest matchings behind
    heaviest = max(counts.per_edge, key=counts.per_edge.__getitem__)
    min_avoiding = pm - counts.per_edge[heaviest]
    dec = _decompose(kernel, g)
    dim = dec.dimension
    affine = _affine_dimension(kernel, g)
    ec = edge_connectivity(g)
    cyc = cyclic_edge_connectivity(g)
    cyc5 = cyclic_value_at_least(cyc, 5)
    bip = g.is_bipartite()
    klee = (n == 4 or cyc == 3) and bool(is_klee(g))
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
    bound("pm_ge_n4_plus_2", Fraction(n + 8, 4), pmf)
    bound(
        "pm_ge_n2_plus_1_unless_exceptional",
        Fraction(n + 2, 2),
        pmf,
        ok=2 * pm >= n + 2 or (exceptional and pm == n // 2),
    )
    bound("pm_ge_3n4_minus_10", Fraction(3 * n - 40, 4), pmf)
    if ec >= 3:
        bound("pm_ge_3n4_minus_9", Fraction(3 * n - 36, 4), pmf)
    if bip:
        bound("pm_ge_3n2_minus_9", Fraction(3 * n - 18, 2), pmf)
    if klee:
        bound("pm_ge_3n4_minus_6", Fraction(3 * n - 24, 4), pmf)
    if cyc5:
        bound("cyc5_pm_ge_3n4_minus_3_2", Fraction(3 * n - 6, 4), pmf)
        bound(
            "cyc5_edge_deleted_pm_ge_n2_minus_1",
            Fraction(n - 2, 2),
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
    side, cut_edges = _sample_cut_for_identity(g)
    total = _cut_identity_total(kernel, g, side, cut_edges)
    witness = None
    if total != pm:
        witness = {"side_a": list(_bits(side)), "cut_edges": sorted(cut_edges)}
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

    Workers default to the CUBICMATCH_WORKERS environment variable. Either
    must be an integer >= 1 (a passed bool is not), or ValueError names
    the value; above 1, graphs are spread over a process pool.
    """
    name, value = "workers", workers
    if workers is None:
        name, value = "CUBICMATCH_WORKERS", os.environ.get("CUBICMATCH_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            pass
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    graphs = list(graphs)
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
    if not _is_int(max_n):
        raise ValueError(f"catalog order must be an int, got {max_n!r}")
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
    covered. NOT_APPLICABLE when the hypotheses fail; e must be an edge of g."""
    _validate_constraints(g, (), (e,))
    if not g.is_cubic() or not g.is_connected() or bridges(g):
        return CompanionResult(NOT_APPLICABLE, None)
    if not cyclically_edge_connected_at_least(g, 5):
        return CompanionResult(NOT_APPLICABLE, None)
    if matching_profile(g, forbidden=(e,)).matching_covered:
        return CompanionResult(NOT_APPLICABLE, None)
    for f in range(len(g.edges)):
        if f == e:
            continue
        reduced = MultiGraph(
            g.vertex_count,
            tuple(pair for i, pair in enumerate(g.edges) if i not in (e, f)),
        )
        if not reduced.is_bipartite():
            continue
        if matching_profile(g, forbidden=(e, f)).matching_covered:
            return CompanionResult(FOUND, f)
    return CompanionResult(NOT_FOUND, None)
