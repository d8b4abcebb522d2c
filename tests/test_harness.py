import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from cubicmatch import connectivity, harness, matching, multigraph
from cubicmatch.formats import SPARSE6, parse
from cubicmatch.connectivity import (
    NO_CYCLIC_CUT,
    _side_cut,
    bridges,
    cyclic_edge_connectivity,
    enumerate_cuts,
    is_cyclic_cut,
)
from cubicmatch.harness import (
    FOUND,
    NOT_APPLICABLE,
    CompanionResult,
    bipartite_companion_check,
    bound_table,
    bridgeless_cubic_catalog,
    exceptional_canonical,
    generate_catalog,
    scarce_matching_graphs,
    verify_catalog,
    verify_graph,
)
from cubicmatch.matching import (
    boundary_profile,
    count_perfect_matchings,
    enumerate_perfect_matchings,
)
from cubicmatch.multigraph import MultiGraph, canonical_form, make_cut
from cubicmatch.named_graphs import (
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from cubicmatch.brick_brace import decompose
from cubicmatch.klee import enumerate_klee, is_klee, klee_stats
from conftest import (
    analyze16_draws,
    check_one_kernel_on_input,
    count_cut_spaces,
    count_kernels,
    count_multigraphs,
    random_bridgeless_cubic,
    record_zero_set_sizes,
    walk_forbidden,
)
from oracles import brute_force_cubic_multigraphs
from test_public_surface import TWO_K4


class TestBoundTable:
    def test_table_one_values(self):
        bt = bound_table(8)
        assert [bt.g[k] for k in range(3, 9)] == [4, 6, 8, 11, 15, 20]
        assert [bt.f[k] for k in range(3, 9)] == [6, 9, 12, 17, 23, 30]

    def test_growth_beyond_table(self):
        bt = bound_table(20)
        for k in range(7, 21):
            assert bt.g[k] >= 2 * k
            assert bt.f[k] >= 3 * k

    def test_bad_k(self):
        with pytest.raises(ValueError):
            bound_table(2)

    @pytest.mark.parametrize("max_k", [3.5, 4.0, True, "4"])
    def test_max_k_must_be_an_int(self, max_k):
        with pytest.raises(ValueError):
            bound_table(max_k)


class TestCatalog:
    def test_n4_matches_brute_force(self):
        brute = [
            g for g in brute_force_cubic_multigraphs(4) if not bridges(g)
        ]
        cat = bridgeless_cubic_catalog(4)
        assert {canonical_form(g) for g in brute} == {canonical_form(g) for g in cat}
        assert len(cat) == 2

    def test_n6_matches_brute_force(self):
        brute = [
            g for g in brute_force_cubic_multigraphs(6) if not bridges(g)
        ]
        cat = bridgeless_cubic_catalog(6)
        assert {canonical_form(g) for g in brute} == {canonical_form(g) for g in cat}

    def test_simple_census_counts(self, catalogs):
        # connected simple cubic graph counts are 1, 2, 5, 19 for n = 4..10;
        # the only bridged ones at n <= 10 are the two subdivided-K4 halves
        # joined by an edge (n = 10), so bridgeless simple counts follow
        simple = {
            n: sum(1 for g in catalogs(n) if g.is_simple()) for n in (4, 6, 8, 10)
        }
        assert simple == {4: 1, 6: 2, 8: 5, 10: 18}

    def test_multigraph_class_counts(self, catalogs):
        # derived on first run, kept as regression fixtures
        assert [len(catalogs(n)) for n in (2, 4, 6, 8, 10)] == [1, 2, 5, 16, 66]

    def test_random_pairing_membership(self, catalogs):
        rnd = random.Random(107)
        for n, samples in ((8, 60), (10, 60), (12, 30)):
            forms = {canonical_form(g) for g in catalogs(n)}
            for _ in range(samples):
                g = random_bridgeless_cubic(n, rnd)
                assert canonical_form(g) in forms

    def test_generator_soundness(self, catalogs):
        seen = set()
        for g in catalogs(8):
            assert g.is_cubic() and g.is_connected() and not bridges(g)
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)

    def test_classes(self):
        bip6 = generate_catalog(6, "bipartite")
        assert canonical_form(k33()) in {canonical_form(g) for g in bip6}
        cyc5 = generate_catalog(10, "cyclically_5ec", simple_only=True)
        assert [canonical_form(g) for g in cyc5] == [canonical_form(petersen())]
        three_ec = generate_catalog(6, "three_edge_connected")
        assert all(
            cyclic_edge_connectivity(g) is NO_CYCLIC_CUT or True
            for g in three_ec
        )

    def test_bad_n(self):
        with pytest.raises(ValueError):
            generate_catalog(7)
        with pytest.raises(ValueError):
            generate_catalog(16)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("n", [6.0, True, "6", None])
    def test_non_int_order_rejected(self, monkeypatch, warm, n):
        # 6.0 hashes like 6 and True like 1, so a warm cache would answer
        cache = {6: bridgeless_cubic_catalog(6), 1: ()} if warm else {}
        monkeypatch.setattr(harness, "_CATALOG_CACHE", cache)
        for build in (bridgeless_cubic_catalog, generate_catalog):
            with pytest.raises(ValueError, match="must be an int"):
                build(n)
        assert harness._CATALOG_CACHE == cache

    def test_n14_regression_counts(self):
        cat = bridgeless_cubic_catalog(14)
        assert len(cat) == 2602
        assert sum(1 for g in cat if g.is_simple()) == 480


def two_factor_symmetries(cycle_type, n):
    """Vertex permutations from the dihedral group of each cycle block,
    one full permutation per element of their product. The generator's
    symmetries as first written, before their tables were composed."""
    per_cycle = []
    offset = 0
    for c in cycle_type:
        idx = list(range(offset, offset + c))
        elems = set()
        for r in range(c):
            rot = tuple(idx[r:] + idx[:r])
            elems.add(rot)
            elems.add(rot[::-1])
        per_cycle.append((idx, sorted(elems)))
        offset += c
    perms = []
    for combo in itertools.product(*(elems for _, elems in per_cycle)):
        perm = list(range(n))
        for (idx, _), image in zip(per_cycle, combo):
            for src, dst in zip(idx, image):
                perm[src] = dst
        perms.append(tuple(perm))
    return perms


def pair_code_table(perm):
    """Translation table of a vertex permutation on pair codes: entry
    u*16+v (u < v) holds the code of the image pair {perm[u], perm[v]}.
    The generator's symmetry tables before they were vertex tables."""
    table = bytearray(256)
    n = len(perm)
    for u in range(n):
        for v in range(u + 1, n):
            a, b = perm[u], perm[v]
            table[u * 16 + v] = a * 16 + b if a < b else b * 16 + a
    return bytes(table)


def per_permutation_tables(cycle_type, n):
    return [pair_code_table(p) for p in two_factor_symmetries(cycle_type, n)]


def symmetry_tables(cycle_type, n):
    """The pair-code tables of the symmetry group as the generator composed
    them before partner arrays: one table per element of each block's
    dihedral group, composed by ``translate``."""
    ident = tuple(range(n))
    per_block = []
    offset = 0
    for c in cycle_type:
        cycle = ident[offset:offset + c]
        images = {cycle[r:] + cycle[:r] for r in range(c)}
        images |= {image[::-1] for image in images}
        before, after = ident[:offset], ident[offset + c:]
        per_block.append([pair_code_table(before + image + after) for image in images])
        offset += c
    tables = [bytes(range(256))]
    for block_tables in per_block:
        tables = [t.translate(b) for t in tables for b in block_tables]
    return tables


def code_orbit_minimal(codes, tables, marked):
    """Orbit marking on pair codes before partner arrays: every image is
    the sorted translation of the codes by one symmetry's table."""
    if codes in marked:
        return False
    marked.update(bytes(sorted(codes.translate(table))) for table in tables)
    return True


def code_table_candidates(cycle_type, block, pairings):
    """The generator's pairing sweep before partner arrays: the cached
    quotient key's verdict, then marking on pair codes by
    `symmetry_tables`."""
    blocks = len(cycle_type)
    tables = symmetry_tables(cycle_type, len(block))
    block_table = harness._block_pair_table(block)
    marked = set()
    out = []
    for codes in pairings:
        if codes in marked:
            continue
        cross = [divmod(c, 16) for c in codes.translate(block_table) if c]
        if not harness._quotient_connected_bridgeless(cross, blocks):
            continue
        if code_orbit_minimal(codes, tables, marked):
            out.append(codes)
    return out


def sorted_key_orbit_minimal(pm, perms):
    """The orbit filter before translation tables: one sorted key per
    (pairing, symmetry), built in Python."""
    base = bytes(sorted(u * 16 + v for u, v in pm))
    for perm in perms:
        key = bytes(
            sorted(
                perm[u] * 16 + perm[v] if perm[u] < perm[v] else perm[v] * 16 + perm[u]
                for u, v in pm
            )
        )
        if key < base:
            return False
    return True


def table_orbit_minimal(pm, tables):
    """The stateless table filter before orbit marking: every symmetry's
    image of the pairing is compared with the pairing itself."""
    codes = bytes(sorted(u * 16 + v for u, v in pm))
    base = list(codes)
    for table in tables:
        if sorted(codes.translate(table)) < base:
            return False
    return True


def all_pairings(items):
    """Perfect pairings of sorted items, each as pairs (a, b) with a < b in
    increasing order of a: the first item paired with each later one in
    turn, ahead of every pairing of the rest."""
    if not items:
        yield ()
        return
    a = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in all_pairings(rest):
            yield ((a, items[i]),) + tail


def oracle_codes(n):
    """The sorted pair codes of every pairing of range(n), from the
    `all_pairings` oracle in its order."""
    return [bytes(u * 16 + v for u, v in pm) for pm in all_pairings(tuple(range(n)))]


def decode(codes):
    return tuple(divmod(c, 16) for c in codes)


def first_partner_set(cycle_type):
    """F(T) of the first-partner rule, written out: the cyclic distances
    1..c // 2 from vertex 0 on the first cycle, and the first vertex of
    every later cycle."""
    firsts = {sum(cycle_type[:i]) for i in range(1, len(cycle_type))}
    return set(range(1, cycle_type[0] // 2 + 1)) | firsts


def orbit_images(partner, perms):
    """Partner arrays of the images pi p pi^-1 of the pairing p under each
    vertex permutation pi: the image pairs pi(u) with pi(p[u])."""
    images = set()
    for perm in perms:
        image = bytearray(len(partner))
        for u, v in enumerate(partner):
            image[perm[u]] = perm[v]
        images.add(bytes(image))
    return images


def pair_codes(partner):
    return bytes(u * 16 + v for u, v in partner_pairs(partner))


def partner_pairs(partner):
    """The pairs (u, p[u]) with u < p[u] of a partner array, in order of u."""
    return tuple((u, v) for u, v in enumerate(partner) if u < v)


def switchable(pm, cycle_type):
    """Whether two pairs x1y1 and x2y2 of pm have x1x2 on one cycle and
    y1y2 on another, tried over every two pairs and both ways of matching
    their ends."""
    edges = {}  # {u, v} adjacent along a cycle -> the index of that cycle
    offset = 0
    for index, c in enumerate(cycle_type):
        for i in range(c):
            edges[frozenset((offset + i, offset + (i + 1) % c))] = index
        offset += c
    for (a, b), (c, d) in itertools.combinations(pm, 2):
        for x1, y1, x2, y2 in ((a, b, c, d), (a, b, d, c)):
            x_cycle = edges.get(frozenset((x1, x2)))
            y_cycle = edges.get(frozenset((y1, y2)))
            if x_cycle is not None and y_cycle is not None and x_cycle != y_cycle:
                return True
    return False


def partner_table(codes):
    """The pairing ``codes`` as a translation table of its fixed-point-free
    involution, built from the codes' nibbles: the generator's partner
    arrays before one recursion built them with the codes."""
    high = bytes(c >> 4 for c in range(256))
    low = bytes(c & 15 for c in range(256))
    us = codes.translate(high)
    vs = codes.translate(low)
    return bytes.maketrans(us + vs, vs + us)


def two_factor_type(g, matching):
    """Cycle type, lengths non-increasing, of the 2-factor g - matching, by
    a union-find over the edges of g: the witness search's leaf before it
    walked partner arrays."""
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    skip = set(matching)
    for i, (u, v) in enumerate(g.edges):
        if i not in skip:
            parent[find(u)] = find(v)
    sizes = {}
    for x in range(g.vertex_count):
        root = find(x)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def kernel_has_larger_two_factor(g, cycle_type):
    """The largest-type test before the witness search: the type of every
    perfect matching the kernel enumerates, until one is larger."""
    if len(cycle_type) == 1:
        return False
    return any(two_factor_type(g, pm) > cycle_type for pm in enumerate_perfect_matchings(g))


def kernel_same_type_matchings(g, cycle_type):
    """The vertex pairs of every perfect matching of g, by the kernel,
    whose 2-factor has type ``cycle_type``."""
    return {
        frozenset(tuple(sorted(g.edges[e])) for e in pm)
        for pm in enumerate_perfect_matchings(g)
        if two_factor_type(g, pm) == cycle_type
    }


def mate_pairs(same, cycle_type):
    """Each mate list in ``same`` (`_same_type_matchings`) as the set of its
    vertex pairs (u, mate[u]), u < mate[u], after checking that the cycles
    kept beside it hold every vertex once and have type ``cycle_type``."""
    for mate, cycles in same:
        assert sorted(v for cycle in cycles for v in cycle) == list(range(len(mate)))
        assert tuple(sorted(map(len, cycles), reverse=True)) == cycle_type
    return [frozenset((u, w) for u, w in enumerate(mate) if u < w) for mate, _ in same]


@functools.lru_cache(maxsize=32)
def block_group(cycle_type):
    """The generator's `_BlockGroup` of ``cycle_type``, built once for the
    many pairings a test lays on one type."""
    return harness._BlockGroup(cycle_type, sum(cycle_type))


def has_larger_two_factor(cycle_type, partner):
    """The generator's witness search on the union of the fixed 2-factor
    of ``cycle_type`` with the pairing ``partner``."""
    return harness._same_type_matchings(block_group(cycle_type), partner) is None


def runs_and_codes(n):
    """Every run of order n (`_runs`) with the base codes the sweep reads
    beside them: each pairing of the order n - 2 list as its test-side
    `pair_codes` behind a code 0."""
    base = harness._pairings(n - 2)
    return list(harness._runs(n, base)), [b"\0" + pair_codes(p) for p in base]


def ring_forms(g):
    """(cycle type, partner array) for every perfect matching M of cubic g:
    g relabelled so that the 2-factor g - M is the generator's fixed
    2-factor of its type, and M is the pairing. The union of the two is
    isomorphic to g."""
    n = g.vertex_count
    for pm in enumerate_perfect_matchings(g):
        skip = set(pm)
        incident = [[] for _ in range(n)]
        for i, (u, v) in enumerate(g.edges):
            if i not in skip:
                incident[u].append((v, i))
                incident[v].append((u, i))
        cycles, seen = [], set()
        for start in range(n):
            if start in seen:
                continue
            cycle, here, via = [start], start, None
            seen.add(start)
            while True:
                w, via = next((w, i) for w, i in incident[here] if i != via)
                if w == start:
                    break
                cycle.append(w)
                seen.add(w)
                here = w
            cycles.append(cycle)
        cycles.sort(key=len, reverse=True)
        label = {v: i for i, v in enumerate(v for cycle in cycles for v in cycle)}
        partner = bytearray(n)
        for e in pm:
            u, v = g.edges[e]
            partner[label[u]], partner[label[v]] = label[v], label[u]
        yield tuple(map(len, cycles)), bytes(partner)


def union_find_quotient(cross, blocks):
    """Connectivity plus bridgelessness of the block quotient by one
    union-find over the cross edges, and one more without each single
    cross edge: the generator's quotient test before its lowpoint walk."""

    def connected(skip):
        parent = list(range(blocks))

        def find(x):
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


def two_factor_reference(cycle_type):
    """The generator's former fixed 2-factor: its edges, each cycle laid
    out on consecutive vertices, and the block id of each vertex. A
    length-2 cycle is a doubled edge."""
    edges = []
    block = []
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


def union(cycle_type, codes):
    factor_edges, _ = two_factor_reference(cycle_type)
    return MultiGraph(sum(cycle_type), tuple(factor_edges) + decode(codes))


def reference_unions(n):
    """The generator's loop before the largest-type rule and orbit
    marking: (cycle type, union) for every orbit-minimal pairing whose
    union is connected and bridgeless."""
    for cycle_type in harness._partitions_min2(n):
        factor_edges, block = two_factor_reference(cycle_type)
        tables = per_permutation_tables(cycle_type, n)
        for pm in all_pairings(tuple(range(n))):
            if not table_orbit_minimal(pm, tables):
                continue
            cross = [(block[u], block[v]) for u, v in pm if block[u] != block[v]]
            if harness._quotient_connected_bridgeless(cross, len(cycle_type)):
                yield cycle_type, MultiGraph(n, tuple(factor_edges) + pm)


def marking_first_pairings(cycle_type, n, pairings):
    """The generator's pairing loop before the quotient moved first: every
    pairing marks its orbit if unmarked, then the orbit minima are tested
    on the (block[u], block[v]) list of their cross pairs."""
    _, block = two_factor_reference(cycle_type)
    tables = per_permutation_tables(cycle_type, n)
    marked = set()
    out = []
    for codes in pairings:
        if not code_orbit_minimal(codes, tables, marked):
            continue
        cross = [(block[u], block[v]) for u, v in decode(codes) if block[u] != block[v]]
        if harness._quotient_connected_bridgeless(cross, len(cycle_type)):
            out.append(codes)
    return out


def reference_catalog(n):
    """Every union canonically labelled, the first of each class kept."""
    seen = {}
    for _, g in reference_unions(n):
        seen.setdefault(canonical_form(g), g)
    return [seen[k] for k in sorted(seen)]


def two_factor_types_by_subsets(g):
    """Cycle types of every spanning 2-regular edge subset, found by a
    plain walk over the n-edge subsets (degree sum 2n), with no matching
    kernel."""
    n = g.vertex_count
    types = set()
    for subset in itertools.combinations(range(len(g.edges)), n):
        degree = [0] * n
        adj = [[] for _ in range(n)]
        for e in subset:
            u, v = g.edges[e]
            degree[u] += 1
            degree[v] += 1
            adj[u].append(v)
            adj[v].append(u)
        if any(d != 2 for d in degree):
            continue
        lengths, seen = [], set()
        for start in range(n):
            if start in seen:
                continue
            stack, size = [start], 0
            seen.add(start)
            while stack:
                x = stack.pop()
                size += 1
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            lengths.append(size)
        types.add(tuple(sorted(lengths, reverse=True)))
    return types


class TestOrbitFilter:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_tables_accept_what_sorted_keys_accept(self, n):
        # marking, fed in code order with one set per type every pairing of
        # the runs the sweep walks, those with partner[0] in F(T)
        partners = harness._pairings(n)
        for cycle_type in harness._partitions_min2(n):
            perms = two_factor_symmetries(cycle_type, n)
            group = harness._BlockGroup(cycle_type, n)
            allowed = first_partner_set(cycle_type)
            marked = set()
            fed = 0
            for partner in partners:
                if partner[0] in allowed:
                    fed += 1
                    expected = sorted_key_orbit_minimal(partner_pairs(partner), perms)
                    assert harness._is_orbit_minimal(partner, group, marked) == expected
            assert fed == len(allowed) * math.prod(range(1, n - 2, 2))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_pairings_in_increasing_code_order(self, n):
        codes = oracle_codes(n)
        assert all(list(c) == sorted(c) and len(set(c)) == n // 2 for c in codes)
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert [pair_codes(partner) for partner in harness._pairings(n)] == codes
        assert len(codes) == math.prod(range(1, n, 2))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_partner_arrays_are_involutions_in_code_order(self, n):
        partners = harness._pairings(n)
        pairings = oracle_codes(n)
        assert len(partners) == len(pairings)
        assert len(set(partners)) == len(partners)
        for partner, codes in zip(partners, pairings):
            assert len(partner) == n
            assert all(partner[u] != u and partner[partner[u]] == u for u in range(n))
            assert bytes(u * 16 + v for u, v in partner_pairs(partner)) == codes
            assert partner_table(codes)[:n] == partner

    def test_same_representatives(self, catalogs, monkeypatch):
        orders = (2, 4, 6, 8, 10)
        tabled = {n: [g.edges for g in catalogs(n)] for n in orders}
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        # the stateless sorted-key filter on each type's permutations in
        # place of marking on tables: nothing is ever marked
        block_group = harness._BlockGroup
        perms = {}

        def recording(cycle_type, n):
            group = block_group(cycle_type, n)
            perms[id(group)] = two_factor_symmetries(cycle_type, n)
            return group

        monkeypatch.setattr(harness, "_BlockGroup", recording)
        monkeypatch.setattr(
            harness,
            "_is_orbit_minimal",
            lambda partner, group, marked: sorted_key_orbit_minimal(
                partner_pairs(partner), perms[id(group)]
            ),
        )
        for n in orders:
            assert [g.edges for g in bridgeless_cubic_catalog(n)] == tabled[n]

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_quotient_first_accepts_what_marking_first_accepts(self, n):
        # the same pairings as the sweep on pair-code tables
        codes = oracle_codes(n)
        runs, base_codes = runs_and_codes(n)
        for cycle_type in harness._partitions_min2(n):
            _, block = two_factor_reference(cycle_type)
            group = harness._BlockGroup(cycle_type, n)
            accepted = list(harness._candidate_pairings(group, runs, base_codes, set()))
            accepted = [pair_codes(p) for p in accepted]
            assert accepted == marking_first_pairings(cycle_type, n, codes)
            assert accepted == code_table_candidates(cycle_type, block, codes)

    def test_full_group_at_n14(self):
        # the three largest groups at n = 14 (2,160 to 2,592 elements); no
        # type at n <= 12 has more than 1,296
        runs, base_codes = runs_and_codes(14)
        for cycle_type in [(5, 3, 3, 3), (4, 4, 3, 3), (3, 3, 3, 3, 2)]:
            _, block = two_factor_reference(cycle_type)
            tables = per_permutation_tables(cycle_type, 14)
            group = harness._BlockGroup(cycle_type, 14)
            accepted = list(harness._candidate_pairings(group, runs, base_codes, set()))
            assert accepted
            for partner in accepted:
                codes = pair_codes(partner)
                assert min(bytes(sorted(codes.translate(t))) for t in tables) == codes
                cross = [(block[u], block[v]) for u, v in decode(codes) if block[u] != block[v]]
                assert harness._quotient_connected_bridgeless(cross, len(cycle_type))

    def test_composed_tables_equal_per_permutation_tables(self):
        # (inverse, forward) vertex tables against the permutations; every
        # type gets its full product group
        for n in range(2, 17, 2):
            for cycle_type in harness._partitions_min2(n):
                group = harness._BlockGroup(cycle_type, n)
                assert len(group.by_first) == cycle_type[0]
                assert all(inverse[0] == a for a, elements in enumerate(group.by_first)
                           for inverse, _ in elements)
                inverses, forwards = zip(*itertools.chain(*group.by_first))
                perms = two_factor_symmetries(cycle_type, n)
                assert len(inverses) == len(forwards) == len(perms)
                assert len(perms) == math.prod(2 * c if c > 2 else 2 for c in cycle_type)
                assert all(len(inverse) == n and len(forward) == 256 for inverse, forward
                           in zip(inverses, forwards))
                assert all(forward[n:] == bytes(range(n, 256)) for forward in forwards)
                assert sorted(forward[:n] for forward in forwards) == sorted(map(bytes, perms))
                for inverse, forward in zip(inverses, forwards):
                    assert inverse.translate(forward) == bytes(range(n))

    @pytest.mark.parametrize("cycle_type", [(18,), (10, 4, 4)])
    def test_selections_at_n18_equal_the_direct_filter(self, cycle_type):
        # in order of a, then b: (a, 16) comes before (a + 1, 0), so a cache
        # keyed on a*16 + b would hand the second the first one's tables
        group = harness._BlockGroup(cycle_type, 18)
        allowed = set(group.first_partners)
        for a in group.cycle:
            for b in range(18):
                kept = [(inverse, forward) for inverse, forward in group.by_first[a]
                        if forward[b] in allowed]
                assert group.selected(a, b) == tuple(zip(*kept)), (a, b)

    def test_ring_layout_equals_former_two_factor(self):
        # every cycle type with n <= 16, five seeded pairings each: the
        # group's block ids and ring neighbours, and each union's edges, as
        # the former layout
        rnd = random.Random(16)
        for n in range(2, 17, 2):
            for cycle_type in harness._partitions_min2(n):
                factor_edges, block = two_factor_reference(cycle_type)
                group = harness._BlockGroup(cycle_type, n)
                assert group.cycle_type == cycle_type
                assert group.block == block
                neighbours = [[] for _ in range(n)]
                for u, v in factor_edges:
                    neighbours[u].append(v)
                    neighbours[v].append(u)
                assert group.sums == [sum(ws) for ws in neighbours]
                assert group.above == [tuple(sorted({w for w in ws if w > v}))
                                       for v, ws in enumerate(neighbours)]
                for _ in range(5):
                    vertices = list(range(n))
                    rnd.shuffle(vertices)
                    partner = bytearray(n)
                    for u, v in zip(vertices[::2], vertices[1::2]):
                        partner[u], partner[v] = v, u
                    former = MultiGraph(n, tuple(factor_edges) + partner_pairs(partner))
                    assert harness._union(group, bytes(partner)).edges == former.edges

    def test_block_pair_key_gives_the_same_verdict(self):
        rnd = random.Random(10)
        verdicts = set()
        for n in range(2, 17, 2):
            for cycle_type in harness._partitions_min2(n):
                _, block = two_factor_reference(cycle_type)
                table = harness._block_pair_table(block)
                for _ in range(20):
                    vertices = list(range(n))
                    rnd.shuffle(vertices)
                    pm = sorted(tuple(sorted(vertices[i:i + 2])) for i in range(0, n, 2))
                    codes = bytes(u * 16 + v for u, v in pm)
                    key = codes.translate(table)
                    by_key = [divmod(c, 16) for c in key if c]
                    by_block = [(block[u], block[v]) for u, v in pm if block[u] != block[v]]
                    assert by_key == by_block
                    verdict = harness._quotient_connected_bridgeless(by_key, len(cycle_type))
                    assert verdict == union_find_quotient(by_block, len(cycle_type))
                    verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_bipartition_rule_equals_union_find_on_every_key(self):
        # every block-pair key of every pairing, so every key the sweep
        # reaches, for n <= 14
        verdicts = set()
        for n in range(2, 15, 2):
            pairings = [pair_codes(partner) for partner in harness._pairings(n)]
            for cycle_type in harness._partitions_min2(n):
                _, block = two_factor_reference(cycle_type)
                table = harness._block_pair_table(block)
                for key in set(map(bytes.translate, pairings, itertools.repeat(table))):
                    cross = [divmod(c, 16) for c in key if c]
                    verdict = harness._quotient_connected_bridgeless(cross, len(cycle_type))
                    assert verdict == union_find_quotient(cross, len(cycle_type))
                    verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_bipartition_rule_equals_union_find_on_random_quotients(self):
        # few blocks and many edges, so parallel cross edges are common and
        # often all that keeps a pair of blocks from a bridge; 8 blocks, the
        # most an order-16 cycle type has, must be drawn with both verdicts
        rnd = random.Random(20)
        outcomes = set()
        eight_blocks = set()
        for _ in range(3000):
            blocks = rnd.randint(1, 8)
            cross = []
            if blocks > 1:
                for _ in range(rnd.randint(0, 2 * blocks)):
                    a, b = rnd.sample(range(blocks), 2)
                    cross.append((a, b))
                    if rnd.random() < 0.3:
                        cross.append((b, a) if rnd.random() < 0.5 else (a, b))
            verdict = harness._quotient_connected_bridgeless(cross, blocks)
            assert verdict == union_find_quotient(cross, blocks)
            doubled = len({tuple(sorted(e)) for e in cross}) < len(cross)
            outcomes.add((verdict, doubled))
            if blocks == 8:
                eight_blocks.add(verdict)
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
        assert eight_blocks == {False, True}


class IterCounter(list):
    """A list that counts the entries its iterators hand out."""

    read = 0

    def __iter__(self):
        for item in super().__iter__():
            self.read += 1
            yield item


class TestFirstPartnerRule:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_orbit_minima_pair_vertex_0_into_f(self, n):
        # every orbit of every type, by brute force over the permutations of
        # the block group: its minimum in code order, the first member in
        # `_pairings`, has its first partner in F(T)
        partners = harness._pairings(n)
        for cycle_type in harness._partitions_min2(n):
            perms = two_factor_symmetries(cycle_type, n)
            group = harness._BlockGroup(cycle_type, n)
            allowed = first_partner_set(cycle_type)
            assert list(group.first_partners) == sorted(allowed)
            seen = set()
            for partner in partners:
                if partner in seen:
                    continue
                images = orbit_images(partner, perms)
                seen |= images
                assert min(images, key=pair_codes) == partner
                assert partner[0] in allowed
            assert len(seen) == len(partners)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_run_b_holds_the_pairings_with_first_partner_b(self, n):
        # against the oracle's list, not `_pairings`, which `_runs` builds
        base = harness._pairings(n - 2)
        runs = list(harness._runs(n, base))
        assert len(runs) == n - 1
        oracle = list(all_pairings(tuple(range(n))))
        for b, (label, partners) in enumerate(runs, 1):
            assert label == bytes(v for v in range(1, n) if v != b)
            expected = [pm for pm in oracle if pm[0] == (0, b)]
            assert len(expected) == math.prod(range(1, n - 2, 2))  # (n - 3)!!
            codes = [bytes(u * 16 + v for u, v in pm) for pm in expected]
            assert [pair_codes(partner) for partner in partners] == codes
            assert partners == [partner_table(c)[:n] for c in codes]
            # base pair (i, j) is run pair (label[i], label[j])
            for p, partner in zip(base, partners):
                pairs = [(label[i], label[j]) for i, j in partner_pairs(p)]
                assert partner_pairs(partner) == ((0, b), *pairs)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_marks_are_the_allowed_images_of_each_accepted_pairing(self, n):
        runs, base_codes = runs_and_codes(n)
        for cycle_type in harness._partitions_min2(n):
            perms = two_factor_symmetries(cycle_type, n)
            allowed = first_partner_set(cycle_type)
            group = harness._BlockGroup(cycle_type, n)
            marked = set()
            expected = set()
            for partner in harness._candidate_pairings(group, runs, base_codes, marked):
                expected |= {image for image in orbit_images(partner, perms) if image[0] in allowed}
                assert marked == expected

    @staticmethod
    def sweep_work(monkeypatch, n):
        """Pairings walked, orbit images marked and block quotients tested
        (verdict cache misses) by one cold `bridgeless_cubic_catalog(n)`,
        after checking that it built runs 1, ..., n - 2 of order n (the one
        run b = 1 at n = 2) and never run n - 1."""
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        runs = harness._runs
        is_orbit_minimal = harness._is_orbit_minimal
        quotient = harness._quotient_connected_bridgeless
        walked = []
        images = []
        tested = []

        def counting_runs(order, base):
            # `_pairings(n - 2)` builds its list through `_runs` too
            for label, partners in runs(order, base):
                if order == n:
                    walked.append(IterCounter(partners))
                    partners = walked[-1]
                yield label, partners

        def counting_quotients(cross, blocks):
            tested.append(cross)
            return quotient(cross, blocks)

        def counting_marks(partner, group, marked):
            minimal = is_orbit_minimal(partner, group, marked)
            if minimal:
                images.append(sum(len(group.selected(a, partner[a])[0]) for a in group.cycle))
            return minimal

        monkeypatch.setattr(harness, "_runs", counting_runs)
        monkeypatch.setattr(harness, "_is_orbit_minimal", counting_marks)
        monkeypatch.setattr(harness, "_quotient_connected_bridgeless", counting_quotients)
        bridgeless_cubic_catalog(n)
        # indexing an IterCounter does not count as a read
        assert [run[0][0] for run in walked] == list(range(1, max(n - 2, 1) + 1))
        return sum(run.read for run in walked), sum(images), len(tested)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_sweep_never_builds_run_n_minus_1(self, monkeypatch, n):
        # n = 12 and 14 are pinned below; no F(T) holds n - 1 for n >= 4
        self.sweep_work(monkeypatch, n)

    def test_sweep_work_n12(self, monkeypatch):
        # 218,295 pairings walked and 230,740 images marked before the rule;
        # the 1,340 over the 101,962 orbit images in F(T) are 81 orbits
        # marked again by a relabelling that lies in a skipped run. A
        # quotient key finer or coarser than the block-pair key moves the
        # 3,395 cache misses (one keyed on partner arrays read 17,389)
        assert self.sweep_work(monkeypatch, 12) == (99_225, 103_302, 3_395)

    def test_sweep_work_n14(self, monkeypatch):
        # 4,594,590 pairings walked and 4,224,080 images marked before the
        # rule; 1,814,692 orbit images in F(T), the rest marked again
        assert self.sweep_work(monkeypatch, 14) == (2_016_630, 1_824_562, 33_771)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_run_key_table_gives_the_run_codes_block_pair_key(self, n):
        # every type against every run b, so every b in F(T): the key read
        # off the base codes is the run pairing's own pair codes by
        # `_block_pair_table`
        base = harness._pairings(n - 2)
        base_codes = [b"\0" + pair_codes(p) for p in base]
        runs = list(harness._runs(n, base))
        run_codes = [[pair_codes(partner) for partner in partners] for _, partners in runs]
        checked = 0
        for cycle_type in harness._partitions_min2(n):
            _, block = two_factor_reference(cycle_type)
            block_table = harness._block_pair_table(block)
            for b, (label, _) in enumerate(runs, 1):
                key_table = harness._run_key_table(block, label, b)
                keys = [c.translate(key_table) for c in base_codes]
                assert keys == [c.translate(block_table) for c in run_codes[b - 1]]
                checked += len(keys)
        # 735, 11,340 and 218,295 (type, pairing) keys at n = 8, 10 and 12
        types = len(list(harness._partitions_min2(n)))
        assert checked == types * math.prod(range(1, n, 2))


class TestSwitch:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_switch_rejects_only_unions_with_a_larger_two_factor(self, n):
        # the witness search drops every union with a switchable pair:
        # every pairing up to n = 10, a seeded sample at n = 12
        pairings = harness._pairings(n)
        rnd = random.Random(n)
        switchable_unions = 0
        for cycle_type in harness._partitions_min2(n):
            sample = rnd.sample(pairings, 300) if n == 12 else pairings
            for partner in sample:
                if switchable(partner_pairs(partner), cycle_type):
                    switchable_unions += 1
                    assert has_larger_two_factor(cycle_type, partner)
        assert switchable_unions

    def test_catalog_marks_every_passing_orbit_and_builds_no_kernel(self, monkeypatch):
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        built = count_kernels(monkeypatch)
        marks = []
        images = []
        is_orbit_minimal = harness._is_orbit_minimal

        def recording(partner, group, marked):
            minimal = is_orbit_minimal(partner, group, marked)
            marks.append(minimal)
            if minimal:
                images.append(sum(len(group.selected(a, partner[a])[0]) for a in group.cycle))
            return minimal

        monkeypatch.setattr(harness, "_is_orbit_minimal", recording)
        assert len(bridgeless_cubic_catalog(12)) == 365
        # the 956 calls that do not mark are relabellings already marked;
        # 81 of the 2,087 that do mark an orbit already marked again
        assert len(marks) == 3043
        assert sum(marks) == 2087
        # 230,740 when every image was marked
        assert sum(images) == 103_302
        assert built == []

    @pytest.mark.parametrize(
        "n, unmarked, marked_arrays",
        [(2, 0, 1), (4, 0, 4), (6, 0, 13), (8, 5, 38), (10, 18, 177)],
    )
    def test_marking_a_marked_orbit_adds_nothing(self, monkeypatch, n, unmarked, marked_arrays):
        # every call of the sweep, checked by brute force over the block
        # group's permutations: one on a marked orbit, which only a
        # relabelling of a kept union makes, leaves `marked` unchanged, and
        # one on an unmarked orbit marks its images in F(T)
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        block_group = harness._BlockGroup
        is_orbit_minimal = harness._is_orbit_minimal
        context = {}
        remarked = []

        def recording(cycle_type, n):
            group = block_group(cycle_type, n)
            context[id(group)] = two_factor_symmetries(cycle_type, n), first_partner_set(cycle_type)
            return group

        def checking(partner, group, marked):
            perms, allowed = context[id(group)]
            images = orbit_images(partner, perms)
            before = set(marked)
            minimal = is_orbit_minimal(partner, group, marked)
            assert minimal == (partner not in before)
            if images & before:
                assert marked == before
                remarked.append(minimal)
            else:
                assert marked == before | {image for image in images if image[0] in allowed}
            return minimal

        monkeypatch.setattr(harness, "_BlockGroup", recording)
        monkeypatch.setattr(harness, "_is_orbit_minimal", checking)
        bridgeless_cubic_catalog(n)
        # from n = 8 some relabellings lie in a run the walk skips, so they
        # are unmarked arrays of a marked orbit
        assert (remarked.count(True), remarked.count(False)) == (unmarked, marked_arrays)

    @staticmethod
    def count_generator_work(monkeypatch, n):
        """Classes, witness searches, MultiGraphs built and `canonical_form`
        calls of one cold `bridgeless_cubic_catalog(n)`."""
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        searches = []
        labelled = []
        search = harness._same_type_matchings
        label = harness.canonical_form

        def searching(group, partner):
            searches.append(partner)
            return search(group, partner)

        def labelling(g):
            labelled.append(g)
            return label(g)

        monkeypatch.setattr(harness, "_same_type_matchings", searching)
        monkeypatch.setattr(harness, "canonical_form", labelling)
        graphs = count_multigraphs(monkeypatch)
        classes = len(bridgeless_cubic_catalog(n))
        assert list(map(id, graphs)) == list(map(id, labelled))
        return classes, len(searches), len(graphs), len(labelled)

    def test_catalog_builds_a_graph_only_for_what_it_labels(self, monkeypatch):
        # every orbit minimum that passes the quotient test and is not a
        # relabelling of a kept union is searched on its arrays; only the
        # 365 survivors become graphs, each labelled
        assert self.count_generator_work(monkeypatch, 12) == (365, 1_778, 365, 365)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_catalog_labels_each_class_once(self, monkeypatch, n):
        # n = 12 is pinned above
        classes, _, built, labelled = self.count_generator_work(monkeypatch, n)
        assert classes == built == labelled

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_every_marked_relabelling_is_an_isomorph_of_its_kept_union(self, monkeypatch, n):
        # each partner array a kept union marks, laid on the ring, gives a
        # union with the kept union's canonical form
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        search = harness._same_type_matchings
        relabel = harness._same_type_partners
        searched = []
        kept = []

        def searching(group, partner):
            searched.append((group, partner))
            return search(group, partner)

        def recording(same):
            # the union relabelled is the one searched last
            arrays = list(relabel(same))
            kept.append((*searched[-1], arrays))
            return arrays

        monkeypatch.setattr(harness, "_same_type_matchings", searching)
        monkeypatch.setattr(harness, "_same_type_partners", recording)
        classes = bridgeless_cubic_catalog(n)
        assert len(kept) == len(classes)
        relabellings = 0
        for group, partner, arrays in kept:
            form = canonical_form(harness._union(group, partner))
            assert partner in arrays
            for array in arrays:
                assert sorted(array) == list(range(n))
                assert all(array[u] != u and array[array[u]] == u for u in range(n))
                assert canonical_form(harness._union(group, array)) == form
            relabellings += len(set(arrays)) - 1
        assert relabellings or n < 6

    def test_catalog_builds_a_graph_only_for_what_it_labels_n14(self, monkeypatch):
        assert self.count_generator_work(monkeypatch, 14) == (2602, 18_061, 2602, 2602)


class TestLargestTypeRule:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_reference_generator_representatives(self, catalogs, n):
        assert [g.edges for g in catalogs(n)] == [g.edges for g in reference_catalog(n)]

    def test_reference_generator_representatives_n12(self, catalogs):
        assert [g.edges for g in catalogs(12)] == [g.edges for g in reference_catalog(12)]

    def check_against_subset_walk(self, g):
        """Every 2-factor type of g by the subset walk, after checking the
        kernel's types and the witness search on every ring form of g."""
        types = two_factor_types_by_subsets(g)
        kernel_types = {two_factor_type(g, pm) for pm in enumerate_perfect_matchings(g)}
        assert kernel_types == types
        for cycle_type, partner in ring_forms(g):
            larger = any(t > cycle_type for t in types)
            assert has_larger_two_factor(cycle_type, partner) == larger
        return types

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_every_union_against_subset_walk(self, n):
        for cycle_type, g in reference_unions(n):
            assert cycle_type in self.check_against_subset_walk(g)
            partner = partner_table(bytes(u * 16 + v for u, v in g.edges[n:]))[:n]
            larger = kernel_has_larger_two_factor(g, cycle_type)
            assert has_larger_two_factor(cycle_type, partner) == larger

    def test_catalog_against_subset_walk(self, catalogs):
        for n in range(2, 11, 2):
            for g in catalogs(n):
                self.check_against_subset_walk(g)

    def test_hamiltonian_type_collects_every_hamiltonian_matching(self):
        # type (n,) has no larger type, so its search walks to the end and
        # returns every perfect matching that leaves a Hamiltonian cycle
        for n in range(2, 11, 2):
            group = harness._BlockGroup((n,), n)
            for partner in harness._pairings(n):
                same = harness._same_type_matchings(group, partner)
                assert same is not None
                pairs = mate_pairs(same, (n,))
                assert len(set(pairs)) == len(pairs)
                g = union((n,), pair_codes(partner))
                assert set(pairs) == kernel_same_type_matchings(g, (n,))

    @pytest.mark.parametrize("cycle_type, partner, mate, larger, same_cycles", [
        # the cycle through 0 is (0, 3, 4, 5), and the digon (1, 2) cannot
        # reach 6: no larger and no same type
        ((6,), [3, 2, 1, 0, 5, 4], [1, 0, 3, 2, 5, 4], False, None),
        # the 2-factor is the 6-cycle (0, 4, 5, 1, 2, 3), longer than 4
        ((4, 2), [4, 5, 3, 2, 0, 1], [1, 0, 3, 2, 5, 4], True, None),
        # the digon (0, 1) comes first with 4 vertices left, which can
        # still hold a cycle of length 4, and they do: type (4, 2) itself
        ((4, 2), [1, 0, 4, 5, 2, 3], [3, 2, 1, 0, 5, 4], False, [[0, 1], [2, 4, 5, 3]]),
    ])
    def test_leaf_stops_at_its_first_decisive_cycle(
        self, cycle_type, partner, mate, larger, same_cycles
    ):
        class ReadRecorder(list):
            """A mate list that records the vertices whose entry is read."""

            def __getitem__(self, i):
                if isinstance(i, int):
                    read.add(i)
                return super().__getitem__(i)

        read = set()
        same = []
        group = harness._BlockGroup(cycle_type, 6)
        found = harness._larger_two_factor_below(
            group, bytes(partner), [()] * 6, ReadRecorder(mate), 6, same)
        assert found == larger
        if same_cycles is None:
            assert same == []
        else:
            assert same == [(mate, same_cycles)]
        g = union(cycle_type, pair_codes(bytes(partner)))
        pm = {g.edges.index(e) for e in {(min(u, w), max(u, w)) for u, w in enumerate(mate)}}
        assert (two_factor_type(g, pm) > cycle_type) == larger
        if cycle_type == (6,):
            # the leaf stopped after the cycle through 0: the digon's
            # vertices were never stepped on
            assert read == {3, 4, 5}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_witness_search_equals_kernel_reference(self, n):
        # on the union of every orbit minimum, before the quotient test
        partners = harness._pairings(n)
        verdicts = set()
        for cycle_type in harness._partitions_min2(n):
            group = harness._BlockGroup(cycle_type, n)
            marked = set()
            for partner in partners:
                if partner[0] not in group.first_partners:
                    continue  # no orbit minimum lies there
                if harness._is_orbit_minimal(partner, group, marked):
                    same = harness._same_type_matchings(group, partner)
                    verdict = same is None
                    g = union(cycle_type, pair_codes(partner))
                    assert verdict == kernel_has_larger_two_factor(g, cycle_type)
                    verdicts.add(verdict)
                    if same is not None:
                        # a union with no larger type has had every matching visited
                        pairs = mate_pairs(same, cycle_type)
                        assert len(set(pairs)) == len(pairs)
                        assert set(pairs) == kernel_same_type_matchings(g, cycle_type)
        assert verdicts == ({False, True} if n > 2 else {False})

    def test_witness_search_equals_kernel_reference_n14_sample(self):
        # 15 seeded pairings per cycle type
        rnd = random.Random(14)
        pairings = harness._pairings(14)
        verdicts = set()
        for cycle_type in harness._partitions_min2(14):
            for partner in rnd.sample(pairings, 15):
                verdict = has_larger_two_factor(cycle_type, partner)
                g = union(cycle_type, pair_codes(partner))
                assert verdict == kernel_has_larger_two_factor(g, cycle_type)
                verdicts.add(verdict)
        assert verdicts == {False, True}


class TestVerify:
    def test_petersen_report(self):
        rep = verify_graph(petersen())
        assert rep.all_satisfied
        tags = [r.tag for r in rep.results]
        assert "cyc5_pm_ge_3n4_minus_3_2" in tags
        cor = next(r for r in rep.results if r.tag == "cyc5_pm_ge_3n4_minus_3_2")
        assert cor.slack == 0

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "366866e63cdadd31ec0101a52c5e3178320593ec0d701c591f537837b2500abe"),
            (2, "2119cbffc494f68a437247fa94ba6158cb27d784c1e007ae527583f7f9af76d6"),
            (3, "c24f1be74ae305f869d526479adbd0cba7811958e487b177c0de4a5a268b19eb"),
        ],
    )
    def test_analyze16_draws_keep_their_reports(self, seed, digest):
        # about two thirds of these draws take the discrete-coloring path
        # of canonical_form, and most skip is_klee
        text = "".join(
            json.dumps(verify_graph(g).to_json(), sort_keys=True) + "\n"
            for g in analyze16_draws(seed)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_exceptional_flagged(self):
        rep = verify_graph(exceptional_graph())
        assert rep.invariants["exceptional"] and rep.all_satisfied
        assert rep.pm_count == rep.n // 2

    def test_result_strings_are_those_of_fractions(self):
        # failed bounds give negative slacks, and 3n/4 - 10 is negative
        # for n < 14
        for num, den, value in itertools.product(range(-40, 41), (1, 2, 4), range(31)):
            r = harness.TheoremResult("t", "bound", num, den, value, value * den >= num)
            bound, slack = Fraction(num, den), Fraction(value) - Fraction(num, den)
            out = r.to_json()
            assert (out["bound"], out["value"], out["slack"]) == (
                str(bound), str(value), str(slack)
            )
            assert (r.bound, r.value, r.slack) == (bound, value, slack)
            assert all(type(x) is Fraction for x in (r.bound, r.value, r.slack))

    def test_the_verdict_builds_no_fraction(self, catalogs, monkeypatch):
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        graphs = [*catalogs(8), petersen(), exceptional_graph()]
        monkeypatch.setattr(Fraction, "__new__", counted)
        reports = []
        for g in graphs:
            report = verify_graph(g)
            json.dumps(report.to_json())
            reports.append(report)
        assert built == []
        monkeypatch.undo()
        for report in reports:
            for r, out in zip(report.results, report.to_json()["results"]):
                assert (str(r.bound), str(r.value), str(r.slack)) == (
                    out["bound"], out["value"], out["slack"]
                )

    def test_k4_slack_zero_dimension_bound(self):
        rep = verify_graph(k4())
        first = next(r for r in rep.results if r.tag == "pm_ge_n4_plus_2")
        assert first.value == 3 and first.bound == 3 and first.slack == 0

    def test_hypotheses_gate_theorems(self):
        rep = verify_graph(prism())
        tags = {r.tag for r in rep.results}
        assert "pm_ge_3n2_minus_9" not in tags  # prism is not bipartite
        assert "pm_ge_3n4_minus_6" in tags  # prism is a klee-graph
        rep2 = verify_graph(k33())
        tags2 = {r.tag for r in rep2.results}
        assert "pm_ge_3n2_minus_9" in tags2
        assert "pm_ge_3n4_minus_6" not in tags2

    def test_two_cut_lemma_applied(self, catalogs):
        from cubicmatch.connectivity import edge_connectivity

        g = next(g for g in catalogs(6) if edge_connectivity(g) == 2)
        rep = verify_graph(g)
        tags = {r.tag for r in rep.results}
        assert "two_cut_avoid_ge_3" in tags

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            verify_graph(MultiGraph(2, [(0, 1)]))

    def test_rejects_order_zero_graph_before_any_kernel(self, monkeypatch):
        # cubic, connected and bridgeless hold vacuously; it used to fail
        # inside max() on the empty per-edge table
        built = count_kernels(monkeypatch)
        empty = MultiGraph(0, ())
        for verify in (verify_graph, lambda g: verify_catalog([g])):
            with pytest.raises(ValueError, match="^verify_graph requires a graph with at least one vertex$"):
                verify(empty)
        assert built == []

    @pytest.mark.parametrize("n", [18, 80])
    def test_refuses_an_order_past_the_labeller_before_any_kernel(self, monkeypatch, n):
        # the order-80 graph used to spend 2.4 s of CPU on the count, the
        # decomposition and the affine rank before canonical_form refused it
        g = random_bridgeless_cubic(n, random.Random(n))

        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(harness, "_Kernel", no_kernel)
        with pytest.raises(ValueError, match=f"^verify_graph takes at most 16 vertices, got {n}$"):
            verify_graph(g)

    def test_rejects_disconnected_up_front(self):
        two_bonds = MultiGraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        with pytest.raises(ValueError, match="verify_graph requires a connected graph"):
            verify_graph(two_bonds)

    def test_report_json_deterministic(self):
        a = json.dumps(verify_graph(petersen()).to_json(), sort_keys=True)
        b = json.dumps(verify_graph(petersen()).to_json(), sort_keys=True)
        assert a == b

    def test_report_completeness(self, catalogs):
        # every theorem tag whose hypothesis holds appears in the report
        from cubicmatch.connectivity import (
            NO_CYCLIC_CUT as SENTINEL,
            cyclic_edge_connectivity as cyc,
            edge_connectivity as ec,
        )
        from cubicmatch.klee import is_klee as klee

        for g in catalogs(8):
            tags = {r.tag for r in verify_graph(g).results}
            assert {"pm_ge_n4_plus_2", "pm_ge_n2_plus_1_unless_exceptional",
                    "pm_ge_3n4_minus_10", "dim_equals_affine_rank",
                    "cut_identity_sampled"} <= tags
            assert ("pm_ge_3n4_minus_9" in tags) == (ec(g) >= 3)
            assert ("pm_ge_3n2_minus_9" in tags) == g.is_bipartite()
            assert ("pm_ge_3n4_minus_6" in tags) == bool(klee(g))
            c = cyc(g)
            cyc5 = c is SENTINEL or c >= 5
            assert ("cyc5_pm_ge_3n4_minus_3_2" in tags) == cyc5
            assert ("two_cut_avoid_ge_3" in tags) == (ec(g) == 2)

    def test_verify_catalog_order_and_workers(self, catalogs, monkeypatch):
        # two CPUs, so a real two-process pool runs on a one-core machine too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        graphs = list(catalogs(6))
        seq = verify_catalog(graphs, workers=1)
        par = verify_catalog(graphs, workers=2)
        assert [r.canonical_hex for r in seq] == [r.canonical_hex for r in par]
        assert [r.index for r in seq] == list(range(len(graphs)))
        monkeypatch.setenv("CUBICMATCH_WORKERS", "2")
        env = verify_catalog(graphs)
        assert [r.canonical_hex for r in env] == [r.canonical_hex for r in seq]

    @pytest.mark.parametrize("workers", [0, -1, True, False, 2.5, 1.0, "2"])
    def test_verify_catalog_rejects_bad_workers(self, catalogs, workers):
        with pytest.raises(ValueError) as excinfo:
            verify_catalog(catalogs(4), workers=workers)
        assert str(excinfo.value) == f"workers must be an integer >= 1, got {workers!r}"

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "two", "", "True"])
    def test_verify_catalog_rejects_bad_workers_variable(self, catalogs, monkeypatch, value):
        monkeypatch.setenv("CUBICMATCH_WORKERS", value)
        with pytest.raises(ValueError) as excinfo:
            verify_catalog(catalogs(4))
        assert str(excinfo.value) == f"CUBICMATCH_WORKERS must be an integer >= 1, got {value!r}"

    def test_workers_receive_graphs_with_their_census(self, catalogs, monkeypatch):
        # each graph carries its cached cut census, sentinel included, to
        # the worker processes; two CPUs, so a real two-process pool runs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        graphs = [g for n in (2, 4, 6) for g in catalogs(n)]
        values = [cyclic_edge_connectivity(g) for g in graphs]
        assert any(c is NO_CYCLIC_CUT for c in values)
        seq = [r.to_json() for r in verify_catalog(graphs, workers=1)]
        assert [r.to_json() for r in verify_catalog(graphs, workers=2)] == seq

    @pytest.mark.parametrize(
        "workers, cpus, count, expected",
        [(100000, 4, 16, 4), (100000, 64, 16, 16), (3, 64, 16, 3), (8, 1, 16, None),
         (8, None, 16, None), (8, 4, 1, None)],
    )
    def test_pool_size_is_capped(self, catalogs, monkeypatch, workers, cpus, count, expected):
        # a fake pool records its size and maps in this process, so no
        # process starts; None means the serial path, with no pool at all
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(x) for x in items]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        graphs = list(catalogs(8))[:count]
        assert len(graphs) == count
        reports = verify_catalog(graphs, workers=workers)
        assert sizes == ([] if expected is None else [expected])
        assert [r.index for r in reports] == list(range(count))

    def test_verify_graph_builds_cut_space_once(self, monkeypatch):
        # no exponential walk, and one cut space, on the input graph only
        monkeypatch.setattr(connectivity, "_connected_side_masks", walk_forbidden)
        built = count_cut_spaces(monkeypatch)
        for g in (petersen(), random_bridgeless_cubic(12, random.Random(12))):
            built.clear()
            verify_graph(g)
            assert len(built) == 1 and built[0] is g

    def test_verify_graph_builds_one_forest_on_its_input(self, monkeypatch):
        # connectivity, the cut space, bipartiteness and the co-tree all
        # read the one spanning forest cached on the input
        built = []
        build = multigraph._spanning_forest

        def counting_build(g):
            built.append(g)
            return build(g)

        monkeypatch.setattr(multigraph, "_spanning_forest", counting_build)
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "catalog12.s6")
        graphs = list(parse(path, SPARSE6))
        assert len(graphs) == 365
        for g in graphs:
            built.clear()
            verify_graph(g)
            assert len(built) == 1 and built[0] is g

    def test_verify_graph_builds_no_graph(self, monkeypatch):
        # tight-cut pieces and klee contractions stay masks of the input
        exceptional_canonical()  # the reference graph, built once per process
        built = count_multigraphs(monkeypatch)
        graphs = (petersen(), exceptional_graph(), random_bridgeless_cubic(12, random.Random(12)))
        assert sum(len(decompose(g).cut_trace) for g in graphs) >= 3
        assert is_klee(graphs[2]).contractions
        for g in graphs:
            built.clear()
            verify_graph(g)
            decompose(g).brick_count
            assert built == []

    def test_verify_graph_matches_four_edge_cuts_only_on_demand(self, catalogs, monkeypatch):
        # a nontrivial cyclic 3-cut answers the cyclic value and the sampled
        # cut, so no 4-edge set is matched
        graphs = [exceptional_graph()] + [
            g for g in catalogs(10)
            if any(is_cyclic_cut(g, c) for c in enumerate_cuts(g, 3, nontrivial_only=True))
        ]
        sizes = record_zero_set_sizes(monkeypatch)
        assert len(graphs) > 10
        for g in graphs:
            sizes.clear()
            verify_graph(MultiGraph(g.vertex_count, g.edges))
            assert sizes == [0, 1, 2, 3]
        # Petersen has no nontrivial cut of at most 3 edges nor a cyclic
        # one: the cyclic value and the sampled cut share one 4-edge match
        sizes.clear()
        verify_graph(petersen())
        assert sizes.count(4) == 1

    def test_verify_graph_builds_one_kernel_per_graph(self, monkeypatch):
        # the profile, the tight cuts of g, the affine rank and the sampled
        # cut share one kernel; no decomposition piece builds one
        built = count_kernels(monkeypatch)
        splits = 0
        for g in (petersen(), random_bridgeless_cubic(12, random.Random(12)),
                  exceptional_graph()):
            splits += len(decompose(g).cut_trace)
            built.clear()
            verify_graph(g)
            check_one_kernel_on_input(built, g)
        assert splits >= 2

    def test_verify_graph_checks_input_once(self, monkeypatch):
        calls = []
        bridges_of = connectivity.bridges

        def counting_bridges(g):
            calls.append(g)
            return bridges_of(g)

        monkeypatch.setattr(connectivity, "bridges", counting_bridges)
        g = petersen()
        verify_graph(g)
        assert calls == [g]

    def test_verify_graph_asks_each_hypothesis_once(self, monkeypatch):
        # the hypotheses come from the checked public queries, each asked
        # at most once on the input; contractions of tight-cut sides and
        # triangles ask none of them. is_klee is asked exactly when n = 4
        # or the cyclic value is 3 (K4 and the prism take that branch)
        graphs = [
            petersen(),
            exceptional_graph(),
            random_bridgeless_cubic(12, random.Random(12)),
            k4(),
            prism(),
        ]
        calls = {name: [] for name in ("edge_connectivity", "cyclic_edge_connectivity", "is_klee")}
        for name, seen in calls.items():
            def counting(g, seen=seen, query=getattr(harness, name)):
                seen.append(g)
                return query(g)

            monkeypatch.setattr(harness, name, counting)
        asked = []
        for g in graphs:
            for seen in calls.values():
                seen.clear()
            verify_graph(g)
            assert calls["edge_connectivity"] == [g]
            assert calls["cyclic_edge_connectivity"] == [g]
            gated = g.vertex_count == 4 or cyclic_edge_connectivity(g) == 3
            assert calls["is_klee"] == ([g] if gated else [])
            asked.append(gated)
        assert asked == [False, True, False, True, True]
        assert decompose(graphs[1]).cut_trace and is_klee(graphs[1]).contractions

    def test_klee_gate_agrees_with_is_klee(self, catalogs):
        # a klee graph is K4, or its last-inserted triangle bounds a
        # cyclic 3-cut (for n >= 6 the other side has (3n - 12)/2 > n - 4
        # edges), and klee graphs are 3-edge-connected; so the gate
        # verify_graph puts before is_klee drops no klee graph
        graphs = [g for n in range(2, 15, 2) for g in catalogs(n)]
        graphs += [g for n in range(4, 17, 2) for g in enumerate_klee(n)]
        klee = skipped = 0
        for g in graphs:
            answer = bool(is_klee(g))
            gated = g.vertex_count == 4 or cyclic_edge_connectivity(g) == 3
            assert (gated and answer) == answer, g
            klee += answer
            skipped += not gated
        assert (len(graphs), klee, skipped) == (3187, 167, 2747)

    def test_verify_graph_leaves_no_kernel_for_the_collector(self):
        # with the collector off, only reference cycles could keep a
        # kernel and its memo alive after the call
        gc.collect()
        gc.disable()
        try:
            verify_graph(petersen())
            assert not [o for o in gc.get_objects() if isinstance(o, matching._Kernel)]
        finally:
            gc.enable()

    def test_sampled_cut_matches_sorting_every_cut(self, catalogs):
        graphs = [g for n in range(2, 13, 2) for g in catalogs(n)]
        graphs += analyze16_draws(1)
        for g in graphs:
            assert _side_cut(g, *harness._sample_cut_for_identity(g)) == sampled_cut_by_sorting(g)

    def test_identity_total_equals_the_boundary_profile_sum(self, catalogs):
        # the mask-level total, which skips m_b[X] where m_a[X] is 0,
        # against the public tables built from the same side counts
        graphs = [g for n in range(2, 13, 2) for g in catalogs(n)]
        graphs += analyze16_draws(1)
        for g in graphs:
            side, cut_edges = harness._sample_cut_for_identity(g)
            total = harness._cut_identity_total(matching._Kernel(g), g, side, cut_edges)
            profile = boundary_profile(g, _side_cut(g, side, cut_edges))
            assert total == sum(profile.m_a[x] * profile.m_b[x] for x in profile.m_a)
            assert total == count_perfect_matchings(g)

    def test_identity_total_on_every_small_cut(self, catalogs):
        # every cut of at most 4 edges, trivial ones and both sides included
        for n in range(2, 9, 2):
            for g in catalogs(n):
                pm = count_perfect_matchings(g)
                kernel = matching._Kernel(g)
                for cut in enumerate_cuts(g, 4):
                    for oriented in (cut, cut.flipped()):
                        side = sum(1 << v for v in oriented.side_a)
                        total = harness._cut_identity_total(kernel, g, side, oriented.cut_edges)
                        profile = boundary_profile(g, oriented)
                        assert total == pm
                        assert total == sum(profile.m_a[x] * profile.m_b[x] for x in profile.m_a)

def result(report, tag):
    return next(r for r in report.results if r.tag == tag)


class TestWitnesses:
    """A failed entry names where it failed; satisfied entries, and so
    every report byte of a passing sweep, carry no witness."""

    def test_satisfied_entries_carry_none(self, catalogs):
        for g in catalogs(8):
            for r in verify_graph(g).results:
                assert r.satisfied and r.witness is None
                assert "witness" not in r.to_json()

    @staticmethod
    def heavy_edges(monkeypatch, edges, count):
        """Gives `edges` the per-edge count `count` in verify_graph's profile."""
        profile_of = harness._matching_profile

        def heavy_profile(kernel, g, forced):
            profile = profile_of(kernel, g, forced)
            per_edge = dict(profile.per_edge)
            per_edge.update((e, count(profile.total)) for e in edges)
            return dataclasses.replace(profile, per_edge=per_edge)

        monkeypatch.setattr(harness, "_matching_profile", heavy_profile)

    def test_failed_cyc5_avoiding_bound_names_its_edge(self, monkeypatch):
        self.heavy_edges(monkeypatch, (9, 7), lambda total: total - 1)
        report = verify_graph(petersen())
        r = result(report, "cyc5_edge_deleted_pm_ge_n2_minus_1")
        assert not r.satisfied and r.value == 1
        # the first edge of largest count, on ties the lower index
        assert r.witness == {"edge": 7} and r.to_json()["witness"] == {"edge": 7}
        json.dumps(report.to_json())
        assert all(x.witness is None for x in report.results if x.satisfied)

    def test_failed_two_cut_bound_names_its_edge(self, catalogs, monkeypatch):
        g = next(g for g in catalogs(8) if connectivity.edge_connectivity(g) == 2)
        self.heavy_edges(monkeypatch, (5, 3), lambda total: total)
        r = result(verify_graph(g), "two_cut_avoid_ge_3")
        assert not r.satisfied and r.value == 0
        assert r.witness == {"edge": 3} and r.to_json()["witness"] == {"edge": 3}

    def test_failed_cut_identity_names_its_cut(self, monkeypatch):
        identity_of = harness._cut_identity_total

        def doubled_total(kernel, g, side, cut_edges):
            return 2 * identity_of(kernel, g, side, cut_edges)

        monkeypatch.setattr(harness, "_cut_identity_total", doubled_total)
        for g in (petersen(), exceptional_graph()):
            cut = _side_cut(g, *harness._sample_cut_for_identity(g))
            r = result(verify_graph(g), "cut_identity_sampled")
            assert not r.satisfied
            witness = {"side_a": sorted(cut.side_a), "cut_edges": sorted(cut.cut_edges)}
            assert r.witness == witness and r.to_json()["witness"] == witness


def sampled_cut_by_sorting(g):
    """The sampled cut as first written: every nontrivial cut of at most 4
    edges built as a Cut, in enumerate_cuts' order, and the first used."""
    cuts = [c for c in enumerate_cuts(g, 4, nontrivial_only=True) if c.size <= 4]
    if cuts:
        return cuts[0]
    return make_cut(g, {0})


NOT_CUBIC = MultiGraph(2, [(0, 1)])
DISCONNECTED = MultiGraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
BRIDGED = MultiGraph(
    6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 5)]
)


@pytest.mark.parametrize(
    "fn, g, message",
    [
        (fn, g, f"{fn.__name__} requires a {what} graph")
        for fn in (verify_graph, decompose)
        for g, what in ((NOT_CUBIC, "cubic"), (DISCONNECTED, "connected"), (BRIDGED, "bridgeless"))
    ]
    + [
        (klee_stats, NOT_CUBIC, "klee_stats requires a cubic graph"),
        (klee_stats, DISCONNECTED, "klee_stats requires a connected graph"),
        (klee_stats, BRIDGED, "klee_stats requires a klee-graph"),
        (is_klee, NOT_CUBIC, "is_klee requires a cubic graph"),
        (is_klee, DISCONNECTED, "is_klee requires a connected graph"),
        (cyclic_edge_connectivity, DISCONNECTED,
         "cyclic_edge_connectivity requires a connected graph"),
    ],
)
def test_precondition_messages(fn, g, message):
    # the shared validator keeps each entry point's own message, word for word
    with pytest.raises(ValueError) as err:
        fn(g)
    assert str(err.value) == message


class TestScarceReport:
    def test_exceptional_is_reported(self, catalogs):
        for n in (2, 4, 6):
            catalogs(n)
        rows = scarce_matching_graphs(6)
        # reported, never asserted to be a specific count
        assert all(pm <= n // 2 + 1 for n, _, pm in rows)


    @pytest.mark.parametrize("n", [6.0, True, "6"])
    def test_non_int_order_rejected(self, n):
        # 6.0 raised TypeError from range(), and True returned []
        with pytest.raises(ValueError, match="must be an int"):
            scarce_matching_graphs(n)

    @pytest.mark.parametrize("max_n", [16, 101])
    def test_order_past_the_catalogs_refused_before_any_catalog(self, monkeypatch, max_n):
        # it built and counted every catalog up to n = 14 before the n = 16
        # catalog refused
        def fail(n):
            raise AssertionError(f"catalog {n} built")

        monkeypatch.setattr(harness, "bridgeless_cubic_catalog", fail)
        with pytest.raises(ValueError, match="scarce_matching_graphs reads catalogs up to n = 14"):
            scarce_matching_graphs(max_n)

    def test_last_orders_read_every_catalog(self):
        # 15 reads the orders up to 14, as 14 does
        rows = scarce_matching_graphs(14)
        assert scarce_matching_graphs(15) == rows
        assert len(rows) == 15
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "3984d689bee6810f7a1038cbe184b2a8a8c96070e5e5e0ca8b42ebc98069c1c1"
        assert scarce_matching_graphs(1) == scarce_matching_graphs(-4) == []


class TestCompanion:
    def test_petersen_not_applicable(self):
        # every Petersen edge deletion stays matching covered
        for e in range(15):
            res = bipartite_companion_check(petersen(), e)
            assert res.status == NOT_APPLICABLE

    def test_low_connectivity_not_applicable(self):
        res = bipartite_companion_check(prism(), 0)
        assert res.status == NOT_APPLICABLE

    def test_disconnected_not_applicable(self):
        # two disjoint K4s used to raise "cyclic_edge_connectivity
        # requires a connected graph"
        assert bipartite_companion_check(TWO_K4, 0) == CompanionResult(NOT_APPLICABLE, None)

    @pytest.mark.parametrize("e", [99, 15, -1, 1.5, True, "0"])
    def test_edge_must_be_an_edge_of_g(self, e):
        # Petersen's edges are 0..14
        with pytest.raises(ValueError, match="edge index"):
            bipartite_companion_check(petersen(), e)

    def test_catalog_sweep(self, catalogs):
        # the lemma promises a partner whenever the hypotheses hold; at
        # desk scale the hypotheses are rare, so mostly NOT_APPLICABLE
        for n in (8, 10):
            for g in catalogs(n):
                c = cyclic_edge_connectivity(g)
                if c is not NO_CYCLIC_CUT and c < 5:
                    continue
                for e in range(len(g.edges)):
                    res = bipartite_companion_check(g, e)
                    assert res.status in (NOT_APPLICABLE, FOUND)
