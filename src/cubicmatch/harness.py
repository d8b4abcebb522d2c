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
list of order n - 2. Every b in some F(T) is at most n - 2 (for n >= 4),
so the sweep builds runs 1, ..., n - 2 once and never run n - 1.

Each pairing walked meets the filters cheapest first: the block-quotient
test (connected and bridgeless), marking its symmetry orbit, the
depth-first search for a 2-factor of larger type, and last
`canonical_form`. The quotient verdict is the same on a whole orbit, so
a pairing that fails it is dropped without marking and exactly the
orbit minima that pass are kept. Every filter before `canonical_form`
runs on arrays: a pairing is held only as its partner array, and one
`_BlockGroup` per cycle type holds the fixed 2-factor beside its
symmetries. The quotient key is read off the pair codes of the order
n - 2 list, built once per sweep. A `MultiGraph` is built only for a
union to be labelled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, groupby, islice, permutations, product, repeat
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

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
    """The fixed 2-factor of a cycle type T, its cycles on consecutive
    vertices, and its symmetry group, the product of the dihedral groups
    of its cycle blocks, arranged for the first-partner rule (module
    docstring): F(T) as ``first_partners`` in increasing order, and the
    (inverse, forward) vertex tables of the elements pi with pi^-1(0) = a
    in ``by_first[a]``, for each vertex a of the first cycle.

    The 2-factor is four per-vertex lists: ``above``, the distinct ring
    neighbours above the vertex; ``after``, the next ring vertex (the last
    of a cycle is followed by its first); ``sums``, the sum of both ring
    neighbours (twice the other end on a digon); and ``block``, the index
    of the vertex's cycle.

    For each element pi, the forward table is a translation table with
    entry u = pi(u) (every entry from n on is its own index) and the
    inverse table is pi^-1 as n bytes. These are automorphisms of the
    2-factor, so pairings in the same orbit give isomorphic unions; the
    orbit filter only prunes duplicates and never loses classes. Each
    element of one block's dihedral group is a pair of tables that fix
    every other vertex, and the tables of the product are their
    compositions by ``translate``: one C call per table and group element.
    Blocks are disjoint, so their elements commute and the order of
    composition does not matter. Both tables are composed on n bytes, from
    the identity on range(n): every block table fixes each vertex from n
    on, so a product is the identity there, and a forward table is padded
    with that identity to 256 bytes once, when it is stored.

    ``selected(a, b)`` holds the (inverse, forward) tables of the elements
    pi with pi^-1(0) = a and pi(b) in F(T), built once per (a, b) and
    cached under a*n + b, which no other pair of vertices shares. The
    image pi p pi^-1 pairs 0 with pi(p[a]) for a = pi^-1(0), a vertex of
    the first cycle, so the selections for (a, p[a]) over those vertices
    give exactly p's images in F(T). None is empty (the rule's proof,
    after rotating a to 0).
    """

    def __init__(self, cycle_type: tuple[int, ...], n: int) -> None:
        self.cycle_type = cycle_type
        c = cycle_type[0]
        self.first_partners = bytes(range(1, c // 2 + 1)) + bytes(accumulate(cycle_type[:-1]))
        self.cycle = range(c)
        self.above: list[tuple[int, ...]] = []
        self.after: list[int] = []
        self.sums: list[int] = []
        self.block: list[int] = []
        ident = bytes(range(256))
        group = [(ident[:n], ident[:n])]
        offset = 0
        for bid, length in enumerate(cycle_type):
            last = offset + length - 1
            for v in range(offset, last + 1):
                after = v + 1 if v < last else offset
                before = v - 1 if v > offset else last
                self.above.append(tuple(sorted({w for w in (after, before) if w > v})))
                self.after.append(after)
                self.sums.append(after + before)
                self.block.append(bid)
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
            self.by_first[inverse[0]].append((inverse, forward + ident[n:]))
        self.n = n
        self._selected: dict[int, tuple[tuple[bytes, ...], ...]] = {}

    def selected(self, a: int, b: int) -> tuple[tuple[bytes, ...], ...]:
        key = a * self.n + b
        found = self._selected.get(key)
        if found is None:
            kept = [pair for pair in self.by_first[a] if pair[1][b] in self.first_partners]
            found = self._selected[key] = tuple(zip(*kept))
        return found


def _block_pair_table(block: list[int]) -> bytes:
    """Translation table from pair codes u*16+v (u < v) to the block-pair
    code block[u]*16 + block[v], or 0 when u and v share a block. Blocks
    are numbered in vertex order, so block[u] <= block[v], and no cross
    pair has code 0: its second block is at least 1."""
    table = bytearray(256)
    n = len(block)
    for u in range(n):
        for v in range(u + 1, n):
            if block[u] != block[v]:
                table[u * 16 + v] = block[u] * 16 + block[v]
    return bytes(table)


def _pairings(n: int) -> list[bytes]:
    """Every pairing of range(n) as its partner array (index u holds the
    partner of u), in strictly increasing order of its sorted pair codes
    u*16+v, which orbit marking needs. It is the runs of `_runs` one after
    another, relabelled from the list of order n - 2; order 0 has one
    empty pairing.

    Pair codes fit in a byte only while u, v < 16, i.e. for n <= 16;
    CATALOG_LIMIT keeps catalogs below that.
    """
    if not n:
        return [b""]
    return list(chain.from_iterable(partners for _, partners in _runs(n, _pairings(n - 2))))


def _runs(n: int, base: list[bytes]) -> Iterator[tuple[bytes, list[bytes]]]:
    """Run b of the pairings of range(n), for b = 1, ..., n - 1: those with
    partner[0] = b, as partner arrays in code order (see `_pairings`),
    beside ``label``, the map that relabels ``base``, the pairings of order
    n - 2, into them. Vertex i goes to label[i], the i-th vertex of
    range(1, n) less b, and the pair (0, b) is added. That map is
    increasing, so it keeps code order within a run, and the first pair
    (0, b) orders the runs.

    A partner array is one translate through ``label`` as a table, with 0
    spliced in at index b behind the head byte b."""
    for b in range(1, n):
        label = bytes(v for v in range(1, n) if v != b)
        table = label.ljust(256, b"\0")
        head = bytes((b,))
        translated = map(bytes.translate, base, repeat(table))
        yield label, [b"".join((head, p[:b - 1], b"\0", p[b - 1:])) for p in translated]


def _run_key_table(block: list[int], label: bytes, b: int) -> bytes:
    """The translation table from the base codes of a pairing of run b
    (`_runs`, relabelled by ``label``) to its block-pair key on the blocks
    ``block``. A base code list is the sorted pair codes of a pairing of
    order n - 2 behind a code 0, which no pair has. Base pair (i, j) is run
    pair (label[i], label[j]), in the same order, and code 0 stands for
    the run's first pair (0, b): block[0] is 0, so its block-pair code is
    block[b], which is 0 exactly when b shares vertex 0's block. Every key
    is the run pairing's own sorted pair codes translated by
    `_block_pair_table`."""
    table = bytearray(_block_pair_table([block[v] for v in label]))
    table[0] = block[b]
    return bytes(table)


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
    group: _BlockGroup,
    runs: list[tuple[bytes, list[bytes]]],
    codes: list[bytes],
    marked: set[bytes],
) -> Iterator[bytes]:
    """The orbit-minimal pairings whose union with the 2-factor of
    ``group`` (`_BlockGroup`) is connected and bridgeless, as partner
    arrays in code order. ``runs`` holds run b of `_runs` at index b - 1,
    ``codes`` the base codes (`_run_key_table`) of the list they were
    relabelled from, at the same index as each run's arrays, and
    ``marked`` the partner arrays of the orbits marked so far. No graph is
    built.

    Only the runs of F(T) are walked, in order. A pairing of another run
    is not its orbit's minimum, which arrives first and either fails the
    quotient test with it or marks it.

    The quotient test reads the pairing's block-pair key, its base codes
    translated by the run's `_run_key_table`, whose nonzero codes are the
    cross pairs (a same-block pair reads 0), and runs before the orbit is
    marked (`_is_orbit_minimal`). Every symmetry maps each cycle block to
    itself, so a whole orbit has one quotient verdict. A pairing that
    fails it is skipped without marking: the rest of its orbit fails too,
    and orbits are disjoint, so no other orbit's marks are lost. A pairing
    that passes and is not marked is its orbit's minimum, since an earlier
    member would have passed too and marked it.

    ``marked`` is read afresh for every pairing, so orbits that the caller
    marks between two yields (`bridgeless_cubic_catalog` marks the
    relabellings of each union it keeps) are skipped too.

    Quotient verdicts are cached per block-pair key: far fewer distinct
    keys than partner arrays would give.
    """
    blocks = len(group.cycle_type)
    verdicts: dict[bytes, bool] = {}
    for b in group.first_partners:
        label, partners = runs[b - 1]
        key_table = _run_key_table(group.block, label, b)
        for partner, base_codes in zip(partners, codes):
            if partner in marked:
                continue
            key = base_codes.translate(key_table)
            passes = verdicts.get(key)
            if passes is None:
                cross = [divmod(c, 16) for c in key if c]
                passes = verdicts[key] = _quotient_connected_bridgeless(cross, blocks)
            if passes and _is_orbit_minimal(partner, group, marked):
                yield partner


def _union(group: _BlockGroup, partner: bytes) -> MultiGraph:
    """The union of the fixed 2-factor of ``group`` (`_BlockGroup`) and the
    pairing ``partner``: the edges (v, next ring vertex) for every v, then
    (u, partner[u]) for every u < partner[u]. A digon's two ends give its
    two parallel edges."""
    pairs = tuple((u, p) for u, p in enumerate(partner) if u < p)
    return MultiGraph(len(partner), tuple(enumerate(group.after)) + pairs)


_SameType = list[tuple[list[int], list[list[int]]]]


def _same_type_matchings(group: _BlockGroup, partner: bytes) -> _SameType | None:
    """The witness search on the union of the fixed 2-factor of ``group``
    (`_BlockGroup`), of cycle type T, with the pairing ``partner``: None
    when some 2-factor of the union has a cycle type lexicographically
    larger than T, i.e. one that `_partitions_min2` yields earlier;
    otherwise every perfect matching of the union whose 2-factor has
    exactly type T, once per set of vertex pairs, each as a mate
    list (entry u the vertex matched to u) beside its 2-factor's cycles
    (`_larger_two_factor_below`). Works on the arrays alone: no graph is
    built.

    It stops at the first larger type. A union it does not stop on has had
    every perfect matching visited, so the list is complete; the
    Hamiltonian type has no larger type, and its search always walks to
    the end. A leaf walks its 2-factor only up to the first cycle that
    decides it, which never cuts a 2-factor of type T short, so no entry
    is lost.

    This is the generator's one larger-type rule. It also drops every
    union where two matching edges could replace a cycle edge on each of
    two cycles: joining cycles of lengths a and b into one of length
    a + b gives a larger sorted type, and the search tries every 2-factor.
    """
    # each vertex's free neighbours once branching reaches it: every lower
    # vertex is covered by then
    options = [
        ups + (p,) if p > u and p not in ups else ups
        for u, (ups, p) in enumerate(zip(group.above, partner))
    ]
    mate = [-1] * len(partner)
    same: _SameType = []
    if _larger_two_factor_below(group, partner, options, mate, 0, same):
        return None
    return same


def _larger_two_factor_below(
    group: _BlockGroup,
    partner: bytes,
    options: list[tuple[int, ...]],
    mate: list[int],
    u: int,
    same: _SameType,
) -> bool:
    """Depth-first search for a perfect matching of the union of the
    2-factor of ``group`` and ``partner`` that extends ``mate`` (-1 at each
    uncovered vertex; every vertex below ``u`` is covered) and leaves a
    2-factor of type larger than T = ``group.cycle_type``. Each perfect
    matching met on the way whose 2-factor has exactly type T is appended
    to ``same`` as a copy of ``mate`` beside the cycles of that 2-factor,
    each as its vertices in walk order, in the order of their least
    vertex.

    It branches at the lowest uncovered vertex, once per free neighbour in
    ``options``: parallel edges to one neighbour leave 2-factors with the
    same cycles. It only looks for a witness and counts nothing, so it
    needs no memo.

    A leaf walks the 2-factor's cycles one at a time and stops at the
    first that decides it. A cycle longer than T[0] makes the type larger.
    Once every cycle so far is shorter than T[0] and fewer than T[0]
    vertices are left, no cycle reaches T[0], so the type is smaller. A
    2-factor of type T is never cut short: until its cycle of length T[0]
    is walked, at least T[0] vertices are left. The step after vertex x,
    entered from y, is (sum of the three neighbours of x) - mate[x] - y.
    Neighbour sums count parallel edges, so digons and a matching edge
    beside a parallel ring edge need no special case.
    """
    n = len(mate)
    while u < n and mate[u] >= 0:
        u += 1
    if u == n:
        top = group.cycle_type[0]
        after, sums = group.after, group.sums
        seen = [False] * n
        cycles = []
        longest = 0
        left = n
        for start, matched in enumerate(mate):
            if seen[start]:
                continue
            # step off along the partner edge, unless that is the matched one
            here = partner[start] if partner[start] != matched else after[start]
            before, cycle = start, [start]
            while here != start:
                seen[here] = True
                cycle.append(here)
                here, before = sums[here] + partner[here] - mate[here] - before, here
            size = len(cycle)
            if size > top:
                return True
            if size > longest:
                longest = size
            left -= size
            if left < top and longest < top:
                return False
            cycles.append(cycle)
        lengths = tuple(sorted(map(len, cycles), reverse=True))
        if lengths == group.cycle_type:
            same.append((mate[:], cycles))
        return lengths > group.cycle_type
    for w in options[u]:
        if mate[w] < 0:
            mate[u] = w
            mate[w] = u
            if _larger_two_factor_below(group, partner, options, mate, u + 1, same):
                return True
            mate[w] = -1
    mate[u] = -1
    return False


def _same_type_partners(same: _SameType) -> Iterator[bytes]:
    """Partner arrays of a union of the fixed 2-factor of a cycle type (the
    ring lists of its `_BlockGroup`) and a pairing, relabelled onto the
    same ring, once for each perfect matching of the union in ``same``
    (`_same_type_matchings`, with its 2-factor's cycles) and each way of
    laying those cycles on the ring blocks.

    Every cycle goes to a block of its length, which holds it from one
    start in one direction: the block's dihedral group maps that choice
    onto every other, so the orbit of the array covers them. Equal-length
    cycles go to equal-length blocks in every order, since the group swaps
    no blocks. Blocks of one length are consecutive in the ring, longest
    first, as are the cycles once sorted by length. Each array pairs the
    labels of the matched ends of the matching, so its union with the ring
    is isomorphic to the union of the ring and the pairing. The labels are
    a list indexed by vertex, ``label[v]`` the ring position of v in the
    layout, rewritten whole for each layout.
    """
    for mate, cycles in same:
        label = [0] * len(mate)
        cycles = sorted(cycles, key=len, reverse=True)
        runs = [list(group) for _, group in groupby(cycles, key=len)]
        for layout in product(*map(permutations, runs)):
            order = [v for run in layout for cycle in run for v in cycle]
            for i, v in enumerate(order):
                label[v] = i
            yield bytes(map(label.__getitem__, map(mate.__getitem__, order)))


# Bipartition t of the blocks has the side {0} | (t << 1), t a subset of
# blocks 1..7: bit t of _SIDES[a] is set when that side holds block a, and
# of _CROSSES[a][b] when it holds exactly one of blocks a and b. With
# n <= 16 and cycles of length >= 2 there are at most 8 blocks, and every
# bipartition of the first `blocks` blocks is a bit t < 2 ** (blocks - 1) - 1.
_SIDES = [sum(1 << t for t in range(128) if (1 | t << 1) >> a & 1) for a in range(8)]
_CROSSES = [[side_a ^ side_b for side_b in _SIDES] for side_a in _SIDES]


def _quotient_connected_bridgeless(
    cross: list[tuple[int, int]], blocks: int
) -> bool:
    """Connectivity plus bridgelessness of the block quotient.

    Cycle blocks are internally 2-edge-connected, so the whole union is
    connected and bridgeless exactly when every bipartition of its blocks
    is crossed by at least two of the cross matching edges ``cross``. All
    2 ** (blocks - 1) - 1 bipartitions are counted at once: bit t of
    ``once`` (``twice``) says that bipartition t of `_CROSSES` is crossed
    at least once (twice). One block has no bipartition and passes.
    """
    once = twice = 0
    for a, b in cross:
        crossed = _CROSSES[a][b]
        twice |= once & crossed
        once |= crossed
    every = (1 << 2 ** (blocks - 1) - 1) - 1
    return twice & every == every


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
    than T on the ring lists of T's `_BlockGroup` and M's partner array.
    Only a union where it finds none is built as a `MultiGraph`, and only
    to reach `canonical_form`. Exhaustive: every graph has a 2-factor of
    its largest type, and the sweep of that type meets it.

    The runs of `_runs` are relabelled once from the pairings of order
    n - 2, whose pair codes behind a code 0 are the one code list the
    quotient keys are read from (`_run_key_table`). Only runs 1, ...,
    n - 2 are built: for n >= 4 no F(T) holds n - 1, since c // 2 and the
    first vertex of any later cycle are at most n - 2. At n = 2 the one
    run, b = 1, is F((2,)).

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
    base = _pairings(n - 2)
    codes = [bytes([0, *(u * 16 + v for u, v in enumerate(p) if u < v)]) for p in base]
    runs = list(islice(_runs(n, base), max(n - 2, 1)))
    for cycle_type in _partitions_min2(n):
        group = _BlockGroup(cycle_type, n)
        marked: set[bytes] = set()
        for partner in _candidate_pairings(group, runs, codes, marked):
            same = _same_type_matchings(group, partner)
            if same is None:
                continue
            g = _union(group, partner)
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


def _fraction_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, from the integers: lowest terms,
    the sign on p, and "p" when the denominator is 1."""
    d = gcd(p, q)
    p, q = p // d, q // d
    return str(p) if q == 1 else f"{p}/{q}"


class TheoremResult(NamedTuple):
    """One evaluated bound or identity: measured >= num/den for a bound
    (num/den holds the paper's bound, den > 0), measured == num for an
    identity (den = 1). witness locates a failure (the arg-min edge of an
    avoiding bound, the sampled cut of the cut identity); satisfied
    entries carry none, and only a witness that is set appears in
    to_json. bound, value and slack give the exact numbers as Fractions;
    the verdict and to_json use only the integers."""

    tag: str
    kind: str  # "bound" or "identity"
    num: int
    den: int
    measured: int
    satisfied: bool
    witness: dict | None = None

    @property
    def bound(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def value(self) -> Fraction:
        return Fraction(self.measured)

    @property
    def slack(self) -> Fraction:
        return self.value - self.bound

    def to_json(self) -> dict:
        num, den, measured = self.num, self.den, self.measured
        out = {
            "tag": self.tag,
            "kind": self.kind,
            "bound": _fraction_text(num, den),
            "value": str(measured),
            "satisfied": self.satisfied,
            "slack": _fraction_text(measured * den - num, den),
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


@cache
def exceptional_canonical() -> bytes:
    return canonical_form(exceptional_graph())


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
    sampled cut; it is freed on return. The paper's bounds are one table
    in report order, each a numerator and a denominator; a row whose
    hypothesis holds is judged by the integer test count * den >= num
    for the count it bounds, and no Fraction is built. A failed avoiding
    bound carries its arg-min edge as its witness, and a failed cut
    identity its cut.
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
    # the paper's bounds in report order: (tag, hypothesis, bound as
    # numerator and denominator, the count it bounds, the witness of a
    # failure, the exemption)
    edge = {"edge": heaviest}
    bounds = (
        ("pm_ge_n4_plus_2", True, n + 8, 4, pm, None, False),
        ("pm_ge_n2_plus_1_unless_exceptional", True, n + 2, 2, pm, None,
         exceptional and pm == n // 2),
        ("pm_ge_3n4_minus_10", True, 3 * n - 40, 4, pm, None, False),
        ("pm_ge_3n4_minus_9", ec >= 3, 3 * n - 36, 4, pm, None, False),
        ("pm_ge_3n2_minus_9", bip, 3 * n - 18, 2, pm, None, False),
        ("pm_ge_3n4_minus_6", klee, 3 * n - 24, 4, pm, None, False),
        ("cyc5_pm_ge_3n4_minus_3_2", cyc5, 3 * n - 6, 4, pm, None, False),
        ("cyc5_edge_deleted_pm_ge_n2_minus_1", cyc5, n - 2, 2, min_avoiding, edge, False),
        ("two_cut_avoid_ge_3", ec == 2, 3, 1, min_avoiding, edge, False),
    )
    results = []
    for tag, holds, num, den, value, witness, exempt in bounds:
        if holds:
            ok = value * den >= num or exempt
            results.append(
                TheoremResult(tag, "bound", num, den, value, ok, None if ok else witness)
            )
    results.append(
        TheoremResult("dim_equals_affine_rank", "identity", dim, 1, affine, dim == affine)
    )
    side, cut_edges = _sample_cut_for_identity(g)
    total = _cut_identity_total(kernel, g, side, cut_edges)
    witness = None
    if total != pm:
        witness = {"side_a": list(_bits(side)), "cut_edges": sorted(cut_edges)}
    results.append(
        TheoremResult(
            "cut_identity_sampled", "identity", pm, 1, total, total == pm, witness
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


def _worker_count(workers: int | None) -> int:
    """workers, or the CUBICMATCH_WORKERS environment variable (default 1)
    when it is None. Either must be an integer >= 1 (a passed bool is
    not), or ValueError names the value."""
    name, value = "workers", workers
    if workers is None:
        name, value = "CUBICMATCH_WORKERS", os.environ.get("CUBICMATCH_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            pass
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return workers


def verify_catalog(graphs: Iterable[MultiGraph], workers: int | None = None) -> list[BoundReport]:
    """Verifies a stream of graphs, preserving input order in the reports.

    Workers are read by _worker_count. The pool starts min(workers,
    number of graphs, CPU count) processes, so no process sits idle; when
    that is 1, the graphs are verified in this process.
    """
    workers = _worker_count(workers)
    graphs = list(graphs)
    processes = min(workers, len(graphs), os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            reports = pool.map(verify_graph, graphs)
    else:
        reports = [verify_graph(g) for g in graphs]
    for i, r in enumerate(reports):
        r.index = i
    return reports


def scarce_matching_graphs(max_n: int) -> list[tuple[int, str, int]]:
    """Graphs in the catalogs up to max_n with at most n/2 + 1 perfect
    matchings, reported as (n, canonical hex, pm count). Reported only:
    the sweep cannot bound the full family. A max_n that reaches an order
    past CATALOG_LIMIT is refused before any catalog is built."""
    if not _is_int(max_n):
        raise ValueError(f"catalog order must be an int, got {max_n!r}")
    if max_n >= CATALOG_LIMIT + 2:
        raise ValueError(
            f"scarce_matching_graphs reads catalogs up to n = {CATALOG_LIMIT}, got max_n = {max_n}"
        )
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
