import random
from fractions import Fraction

import pytest

from cubicmatch import brick_brace, connectivity
from cubicmatch.brick_brace import (
    BRACE,
    BRICK,
    _cotree_edges,
    _decompose,
    _exact_rank,
    _tight_cuts,
    decompose,
    pm_affine_dimension,
)
from cubicmatch.connectivity import _bits, _side_key, enumerate_cuts
from cubicmatch.matching import (
    _Kernel,
    _vertex_mask,
    boundary_profile,
    count_perfect_matchings,
    enumerate_perfect_matchings,
)
from cubicmatch.multigraph import (
    Cut,
    MultiGraph,
    _contract_parts,
    canonical_form,
    contract,
    make_cut,
    replace_vertex_with_triangle,
)
from cubicmatch.named_graphs import (
    cube,
    doubled_c4,
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from oracles import is_bicritical, is_brick, is_tight
from conftest import (
    analyze16_draws,
    check_one_kernel_on_input,
    count_cut_spaces,
    count_kernels,
    count_multigraphs,
    mask_reference_graphs,
    random_bridgeless_cubic,
    sparse_multigraphs,
    walk_forbidden,
)
from oracles import polytope_membership


def simplified(g):
    return MultiGraph(g.vertex_count, tuple(sorted(set(g.edges))))


def profile_tight(g, cut):
    """The boundary-profile rule: m_a[X] * m_b[X] = 0 for every set X of
    cut edges but the single ones. Cuts of size <= 4."""
    profile = boundary_profile(g, cut)
    return all(profile.m_a[x] * profile.m_b[x] == 0 for x in profile.m_a if len(x) != 1)


def six_ends_tight(kernel, g, cut_edges):
    """The six-ends count rule for a 3-cut: tight exactly when two cut
    edges share an end or g less the six ends has no perfect matching."""
    ends = _vertex_mask(v for e in cut_edges for v in g.edges[e])
    return ends.bit_count() < 6 or not kernel.count(ends)


def klee_expansion(n, seed):
    """The three-bond expanded at seeded random vertices to order n: K4
    after the first expansion, so a klee-graph."""
    rnd = random.Random(seed)
    g = three_bond()
    while g.vertex_count < n:
        g = replace_vertex_with_triangle(g, rnd.randrange(g.vertex_count))
    return g


def reference_decompose(g, strategy):
    """(pieces, cut trace) with the cuts of every piece enumerated afresh."""
    pieces, trace, stack = [], [], [g]
    while stack:
        h = stack.pop()
        found = None
        for cut in enumerate_cuts(h, 3, nontrivial_only=True):
            if cut.size == 3 and profile_tight(h, cut):
                found = cut
                if strategy == "first":
                    break
        if found is None:
            kind = BRACE if h.is_bipartite() else BRICK
            pieces.append((h.vertex_count, h.edges, kind))
            continue
        trace.append(found)
        stack.append(contract(h, [found.side_a])[0])
        stack.append(contract(h, [found.side_b])[0])
    return pieces, trace


def sequential_contract_side(h, part, cuts):
    """The former contraction step of the decomposition: h with the vertex
    set part contracted, and the nontrivial tight 3-cuts of the result,
    re-indexed from h's cuts (side_a mask, cut edges) in enumerate_cuts
    order."""
    piece, vmap, _ = _contract_parts(h, [frozenset(_bits(part))])
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
        if 3 <= image.bit_count() <= n - 3:
            out.append((image, tuple(edge_map[e] for e in cut_edges)))
    out.sort(key=lambda c: _side_key(c[0], n))
    return piece, out


def sequential_decompose(g, strategy):
    """(pieces as (n, edges, kind), cut trace) from the former decomposition,
    which built both pieces of every split as graphs."""
    pieces, trace = [], []
    stack = [(g, _tight_cuts(_Kernel(g), g))]
    while stack:
        h, cuts = stack.pop()
        if not cuts:
            pieces.append((h.vertex_count, h.edges, BRACE if h.is_bipartite() else BRICK))
            continue
        side, cut_edges = cuts[0] if strategy == "first" else cuts[-1]
        rest = ((1 << h.vertex_count) - 1) & ~side
        trace.append(Cut(frozenset(_bits(side)), frozenset(_bits(rest)), cut_edges))
        stack.append(sequential_contract_side(h, side, cuts))
        stack.append(sequential_contract_side(h, rest, cuts))
    return pieces, trace


def reference_affine_dimension(g):
    """Rank of the difference vectors over all m edge coordinates."""
    pms = list(enumerate_perfect_matchings(g))
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


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.vertex_count
    return MultiGraph(offset, tuple(edges))


def bipartite_components(g):
    """The number of connected components of g that are bipartite."""
    colour = [-1] * g.vertex_count
    count = 0
    for root in range(g.vertex_count):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        component, bipartite = [root], True
        for v in component:
            for _, u in g.incidence[v]:
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    component.append(u)
                elif colour[u] == colour[v]:
                    bipartite = False
        count += bipartite
    return count


def random_bipartite_cubic(n, rnd):
    """Random cubic bipartite multigraph on n vertices, sides 0..n/2-1 and
    n/2..n-1, by pairing each left stub with a shuffled right stub."""
    half = n // 2
    right = [half + v for v in range(half) for _ in range(3)]
    rnd.shuffle(right)
    return MultiGraph(n, tuple(zip([v for v in range(half) for _ in range(3)], right)))


def rational_rank(rows):
    """Rank by Gauss-Jordan elimination over Fraction rows."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


class TestTightCuts:
    def test_vertex_star_always_tight(self):
        for g in (k4(), petersen(), prism()):
            assert is_tight(g, make_cut(g, {0}))

    def test_exceptional_triangle_cut_tight(self):
        g = exceptional_graph()
        assert is_tight(g, make_cut(g, {0, 6, 7}))

    def test_prism_triangle_cut_not_tight(self):
        assert not is_tight(prism(), make_cut(prism(), {0, 1, 2}))

    def test_tight_iff_every_matching_uses_one_edge(self):
        rnd = random.Random(61)
        for _ in range(15):
            g = random_bridgeless_cubic(8, rnd)
            if not all(count_perfect_matchings(g, forced=(e,)) for e in range(12)):
                continue
            pms = list(enumerate_perfect_matchings(g))
            for _ in range(10):
                side = rnd.sample(range(8), rnd.randrange(1, 8))
                cut = make_cut(g, side)
                direct = all(
                    sum(1 for e in pm if e in cut.cut_edges) == 1 for pm in pms
                )
                assert is_tight(g, cut) == direct
        # the five spokes: one matching uses all five and the other five
        # one each, so the counts sum to 10 against a total of 6
        g = petersen()
        cut = make_cut(g, range(5))
        uses = sorted(len(set(pm) & set(cut.cut_edges)) for pm in enumerate_perfect_matchings(g))
        assert (cut.size, uses) == (5, [1, 1, 1, 1, 1, 5])
        assert not is_tight(g, cut)

    def test_requires_matching_covered(self):
        # K4 minus an edge: the edge opposite the removed one is in no
        # perfect matching
        g = MultiGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError, match="^is_tight requires a matching covered graph$"):
            is_tight(g, make_cut(g, {0}))


def first_tight_cut(g):
    """The first nontrivial tight cut of g in enumerate_cuts order, or
    None: the decomposition's first split."""
    trace = decompose(g).cut_trace
    return trace[0] if trace else None


class TestFindNontrivialTightCut:
    def test_petersen_none(self):
        assert first_tight_cut(petersen()) is None

    def test_k33_none(self):
        assert first_tight_cut(k33()) is None

    def test_exceptional_triangle(self):
        cut = first_tight_cut(exceptional_graph())
        assert cut is not None
        assert cut.size == 3
        assert min(len(cut.side_a), len(cut.side_b)) == 3


class TestDecompose:
    def test_k33_single_brace(self):
        d = decompose(k33())
        assert d.brick_count == 0 and d.brace_count == 1

    def test_petersen_single_brick(self):
        d = decompose(petersen())
        assert d.brick_count == 1 and d.brace_count == 0

    def test_exceptional(self):
        d = decompose(exceptional_graph())
        assert d.brick_count == 3 and d.brace_count == 1
        kinds = sorted((p.vertex_count, kind) for p, kind in d.pieces)
        assert kinds == [(4, BRICK), (4, BRICK), (4, BRICK), (6, BRACE)]
        brace = next(p for p, kind in d.pieces if kind == BRACE)
        assert canonical_form(simplified(brace)) == canonical_form(k33())

    def test_pieces_cubic_bridgeless(self):
        from cubicmatch.connectivity import bridges

        rnd = random.Random(67)
        for _ in range(10):
            g = random_bridgeless_cubic(10, rnd)
            for piece, _ in decompose(g).pieces:
                assert piece.is_cubic()
                assert not bridges(piece)

    def test_uniqueness_across_strategies(self):
        # Lovasz: splitting on the last tight cut instead of the first
        # gives the same pieces up to edge multiplicities
        rnd = random.Random(71)
        graphs = [exceptional_graph()] + [random_bridgeless_cubic(10, rnd) for _ in range(10)]
        for g in graphs:
            first = decompose(g)
            last, _ = reference_decompose(g, "last")
            key_first = sorted(canonical_form(simplified(p)) for p, _ in first.pieces)
            key_last = sorted(canonical_form(simplified(MultiGraph(n, edges)))
                              for n, edges, _ in last)
            assert key_first == key_last
            assert first.brick_count == sum(kind == BRICK for _, _, kind in last)

    def test_matches_piecewise_enumeration(self, catalogs):
        # pieces inherit their cuts; the reference enumerates each piece's
        graphs = [g for n in (2, 4, 6, 8, 10) for g in catalogs(n)]
        for n in (14, 16):
            rnd = random.Random(n)
            graphs += [random_bridgeless_cubic(n, rnd) for _ in range(6)]
        splits = 0
        for g in graphs:
            d = decompose(g)
            pieces = [(p.vertex_count, p.edges, kind) for p, kind in d.pieces]
            assert (pieces, list(d.cut_trace)) == reference_decompose(g, "first")
            splits += len(d.cut_trace)
        assert splits > 100

    def test_builds_cut_space_on_input_only(self, monkeypatch):
        # no exponential walk, and one cut space, on the input graph only
        monkeypatch.setattr(connectivity, "_connected_side_masks", walk_forbidden)
        built = count_cut_spaces(monkeypatch)
        for g in (exceptional_graph(), random_bridgeless_cubic(16, random.Random(16))):
            built.clear()
            assert len(decompose(g).cut_trace) >= 2
            assert len(built) == 1 and built[0] is g

    def test_builds_one_kernel_on_input(self, monkeypatch):
        # every cut is decided once on the input; no piece builds a kernel
        built = count_kernels(monkeypatch)
        graphs = (
            petersen(),
            exceptional_graph(),
            random_bridgeless_cubic(12, random.Random(12)),
            random_bridgeless_cubic(16, random.Random(16)),
        )
        splits = 0
        for g in graphs:
            built.clear()
            splits += len(decompose(g).cut_trace)
            check_one_kernel_on_input(built, g)
        assert splits >= 4

    def test_rejects_bridged(self):
        g = MultiGraph(
            6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 5)]
        )
        with pytest.raises(ValueError):
            decompose(g)

    @pytest.mark.parametrize("fn", [decompose])
    def test_rejects_disconnected(self, fn):
        two_bonds = MultiGraph(4, ((0, 1),) * 3 + ((2, 3),) * 3)
        with pytest.raises(ValueError, match="connected"):
            fn(two_bonds)


class TestBrickTests:
    def test_bicritical(self):
        assert is_bicritical(k4())
        assert not is_bicritical(k33())
        assert is_bicritical(petersen())

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            is_bicritical(MultiGraph(3, ((0, 1), (1, 2), (0, 2))))

    def test_is_brick(self):
        assert is_brick(k4())
        assert not is_brick(k33())
        assert is_brick(petersen())

    def test_klee_graphs_are_bricks(self):
        from cubicmatch.klee import enumerate_klee

        for n in (4, 6, 8, 10, 12):
            for g in enumerate_klee(n):
                assert is_brick(g)


class TestDimensions:
    def test_formula_values(self):
        assert decompose(k4()).dimension == 2
        assert decompose(k33()).dimension == 4
        assert decompose(petersen()).dimension == 5

    def test_decomposition_dimension_is_the_formula(self, catalogs):
        # m - n + 1 - b, read by the report
        for n in (2, 4, 6, 8):
            for g in catalogs(n):
                dec = decompose(g)
                assert dec.dimension == len(g.edges) - n + 1 - dec.brick_count

    def test_affine_values(self):
        assert pm_affine_dimension(k4()) == 2
        assert pm_affine_dimension(petersen()) == 5
        ex = exceptional_graph()
        assert pm_affine_dimension(ex) == decompose(ex).dimension

    def test_count_at_least_dimension_plus_one(self):
        rnd = random.Random(73)
        for g in [k4(), k33(), petersen(), doubled_c4(), three_bond()] + [
            random_bridgeless_cubic(10, rnd) for _ in range(10)
        ]:
            assert count_perfect_matchings(g) >= decompose(g).dimension + 1

    def test_no_matching_rejected(self):
        g = MultiGraph(2, ())
        with pytest.raises(ValueError):
            pm_affine_dimension(g)


class TestExactRank:
    def test_matches_rational_elimination(self):
        rnd = random.Random(83)
        entries = (0, 0, 0, 1, -1, 2, -2, 3, 5)
        for _ in range(1000):
            cols = rnd.randint(1, 9)
            basis = [
                [rnd.choice(entries) for _ in range(cols)]
                for _ in range(rnd.randint(0, cols))
            ]
            rows = basis + [
                [sum(rnd.randint(-2, 2) * b[c] for b in basis) for c in range(cols)]
                for _ in range(rnd.randint(0, 4))
            ]
            for c in rnd.sample(range(cols), rnd.randint(0, cols // 2)):
                for row in rows:
                    row[c] = 0
            rnd.shuffle(rows)
            before = [row[:] for row in rows]
            assert _exact_rank(rows) == rational_rank(rows)
            assert rows == before

    def test_empty_and_zero(self):
        assert _exact_rank([]) == 0
        assert _exact_rank([[], []]) == 0
        assert _exact_rank([[0, 0, 0]] * 3) == 0
        assert _exact_rank([[0, 2, 0], [0, 0, 0], [0, 3, 0]]) == 1


class TestMembership:
    def test_third_vector_on_cubic_bridgeless(self):
        rnd = random.Random(79)
        for g in [k4(), petersen(), prism()] + [random_bridgeless_cubic(8, rnd) for _ in range(5)]:
            ok, witness = polytope_membership(g, [Fraction(1, 3)] * len(g.edges))
            assert ok and witness is None

    def test_characteristic_vectors(self):
        g = petersen()
        for pm in enumerate_perfect_matchings(g):
            vec = [1 if e in pm else 0 for e in range(15)]
            ok, _ = polytope_membership(g, vec)
            assert ok

    def test_bridge_gives_odd_set_witness(self):
        g = MultiGraph(
            6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 5)]
        )
        ok, witness = polytope_membership(g, [Fraction(1, 3)] * 9)
        assert not ok
        assert witness[0] == "odd_set"
        assert len(witness[1]) % 2 == 1
        assert witness[2] < 1

    def test_negative_entry(self):
        ok, witness = polytope_membership(k4(), [-1, 1, 1, 0, 0, 0])
        assert not ok and witness[0] == "negative_entry"

    def test_vertex_sum(self):
        ok, witness = polytope_membership(k4(), [Fraction(1, 2)] * 6)
        assert not ok and witness[0] == "vertex_sum"

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            polytope_membership(k4(), [1, 0])

    def test_bipartite_shortcut_consistent(self):
        # on bipartite graphs (i)+(ii) suffice; cross-check against an
        # explicit convex combination
        g = k33()
        vec = [Fraction(1, 3)] * 9
        ok, _ = polytope_membership(g, vec)
        assert ok


def one_shared_end():
    """Order 8 with the nontrivial 3-cut around the triangle {0, 1, 2}:
    two of its edges meet at vertex 3, so no matching uses all three."""
    return MultiGraph(
        8,
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 5), (3, 4),
         (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
    )


class TestTightOnce:
    def check_forced_count(self, g, reference="profile"):
        # every nontrivial 3-cut, kept by the per-edge rule exactly when a
        # former rule calls it tight: the boundary profile, or on large
        # graphs the six-ends count
        kept = {side: cut_edges for side, cut_edges in _tight_cuts(_Kernel(g), g)}
        cuts = [c for c in enumerate_cuts(g, 3, nontrivial_only=True) if c.size == 3]
        kernel = _Kernel(g)
        for cut in cuts:
            side = _vertex_mask(cut.side_a)
            if reference == "profile":
                tight = profile_tight(g, cut)
            else:
                tight = six_ends_tight(kernel, g, cut.cut_edges)
            assert (side in kept) == tight
            if side in kept:
                assert kept[side] == cut.cut_edges
        assert len(kept) <= len(cuts)
        return len(cuts), len(kept)

    def test_forced_count_on_catalogs(self, catalogs):
        cuts = tight = 0
        for n in range(2, 13, 2):
            for g in catalogs(n):
                c, t = self.check_forced_count(g)
                cuts, tight = cuts + c, tight + t
        assert 0 < tight < cuts

    def test_forced_count_on_analyze16_draws(self):
        cuts = tight = 0
        for g in analyze16_draws():
            c, t = self.check_forced_count(g)
            cuts, tight = cuts + c, tight + t
        assert 0 < tight < cuts

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_forced_count_on_klee_expansions(self, n):
        # a klee-graph is a brick: every one of its many 3-cuts is loose
        for seed in (1, 2):
            cuts, tight = self.check_forced_count(klee_expansion(n, seed), "six_ends")
            assert cuts >= n // 4 and tight == 0

    def test_decompose_adds_no_memo_state(self):
        # the cuts are decided from the per-edge table, with no count
        # beyond the one that fills it
        g = klee_expansion(64, 1)
        kernel = _Kernel(g)
        kernel.edge_counts()
        states = len(kernel._memo)
        assert _decompose(kernel, g).brick_count == 1
        assert len(kernel._memo) == states

    def test_tight_in_a_piece_exactly_when_tight_in_the_input(self, catalogs):
        # the lemma the single decision rests on, at every split of the
        # reference decomposition: each piece's cut against its preimage
        graphs = [g for n in (6, 8, 10) for g in catalogs(n)]
        rnd = random.Random(14)
        graphs += [random_bridgeless_cubic(14, rnd) for _ in range(4)]
        graphs.append(exceptional_graph())
        checked = 0
        for g in graphs:
            stack = [(g, [frozenset([v]) for v in range(g.vertex_count)])]
            while stack:
                h, blobs = stack.pop()
                found = None
                for cut in enumerate_cuts(h, 3, nontrivial_only=True):
                    if cut.size != 3:
                        continue
                    tight = profile_tight(h, cut)
                    preimage = make_cut(g, frozenset().union(*(blobs[v] for v in cut.side_a)))
                    assert preimage.size == 3
                    assert tight == profile_tight(g, preimage)
                    checked += h is not g
                    if tight and found is None:
                        found = cut
                if found is None:
                    continue
                for part in (found.side_a, found.side_b):
                    piece, vmap = contract(h, [part])
                    merged = [frozenset()] * piece.vertex_count
                    for v, blob in enumerate(blobs):
                        merged[vmap[v]] |= blob
                    stack.append((piece, merged))
        assert checked > 50

    def test_cut_edges_sharing_an_end(self):
        g = one_shared_end()
        cut = make_cut(g, {0, 1, 2})
        ends = [v for e in cut.cut_edges for v in g.edges[e]]
        assert cut.size == 3 and len(set(ends)) == 5
        assert is_tight(g, cut)
        assert (_vertex_mask(cut.side_a), cut.cut_edges) in _tight_cuts(_Kernel(g), g)
        d = decompose(g)
        pieces = [(p.vertex_count, p.edges, kind) for p, kind in d.pieces]
        assert (pieces, list(d.cut_trace)) == reference_decompose(g, "first")


class TestMaskDecomposition:
    """Pieces stay masks of the input until they are read."""

    def test_matches_sequential_contraction(self, catalogs):
        splits = 0
        for g in mask_reference_graphs(catalogs):
            d = decompose(g)
            pieces, trace = sequential_decompose(g, "first")
            assert d.brick_count == sum(kind == BRICK for _, _, kind in pieces)
            assert d.brace_count == sum(kind == BRACE for _, _, kind in pieces)
            assert [(p.vertex_count, p.edges, kind) for p, kind in d.pieces] == pieces
            assert list(d.cut_trace) == trace
            splits += len(trace)
        assert splits > 1500

    def test_counts_build_no_piece(self, monkeypatch):
        built = count_multigraphs(monkeypatch)
        g = exceptional_graph()
        built.clear()
        d = decompose(g)
        assert (d.brick_count, d.brace_count) == (3, 1)
        assert decompose(g).dimension == 4
        assert built == []

    def test_pieces_and_trace_read_twice(self, monkeypatch):
        built = count_multigraphs(monkeypatch)
        for g in (exceptional_graph(), random_bridgeless_cubic(16, random.Random(16))):
            d = decompose(g)
            built.clear()
            pieces, trace = d.pieces, d.cut_trace
            # one graph per piece and per split but the first (on g itself),
            # built on the first read only
            assert len(trace) >= 2
            assert len(built) == len(pieces) + len(trace) - 1
            built.clear()
            assert d.pieces == pieces and d.cut_trace == trace
            assert built == []


    def test_value_semantics(self):
        # equality, hashing and repr read the pieces and the trace, as they
        # did when both were stored fields
        g = exceptional_graph()
        d = decompose(g)
        e = decompose(g)
        assert d == e and hash(d) == hash(e)
        assert d != decompose(petersen())
        assert decompose(petersen()) == decompose(petersen())
        assert repr(d) == f"Decomposition(pieces={d.pieces!r}, cut_trace={d.cut_trace!r})"
        for name in ("pieces", "cut_trace", "brick_count", "brace_count"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)


def reference_cotree_edges(g):
    """_cotree_edges as first written, with a BFS of its own: the edges
    outside a BFS spanning forest (roots in index order, edges in
    incidence order), less the first edge joining two vertices of one
    depth in each component, scanned in visiting order."""
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


class TestCotreeRank:
    def check(self, g):
        cols = _cotree_edges(g)
        assert cols == reference_cotree_edges(g)
        assert cols == sorted(set(cols))
        assert len(cols) == len(g.edges) - g.vertex_count + bipartite_components(g)
        rank = pm_affine_dimension(g)
        assert rank == reference_affine_dimension(g)
        return rank

    def test_catalogs(self, catalogs):
        for n in range(2, 13, 2):
            for g in catalogs(n):
                self.check(g)

    def test_seeded_orders_14_to_20(self):
        for n in (14, 16, 18, 20):
            rnd = random.Random(n)
            for _ in range(5):
                self.check(random_bridgeless_cubic(n, rnd))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_analyze16_draws(self, seed):
        for g in analyze16_draws(seed):
            self.check(g)

    def test_seeded_orders_22_to_32(self):
        for n in range(22, 33, 2):
            rnd = random.Random(n)
            for _ in range(3):
                self.check(random_bridgeless_cubic(n, rnd))

    def test_bipartite(self):
        assert self.check(k33()) == 4
        assert self.check(cube()) == decompose(cube()).dimension
        rnd = random.Random(97)
        g = random_bipartite_cubic(16, rnd)
        while not g.is_connected():
            g = random_bipartite_cubic(16, rnd)
        assert g.is_bipartite()
        assert self.check(g) == decompose(g).dimension

    def test_parallel_edges(self):
        graphs = [three_bond(), doubled_c4()]
        rnd = random.Random(101)
        while len(graphs) < 12:
            g = random_bridgeless_cubic(10, rnd)
            if len(set(g.edges)) < len(g.edges):
                graphs.append(g)
        for g in graphs:
            assert self.check(g) == decompose(g).dimension

    def test_columns_on_sparse_multigraphs(self):
        # several components, isolated vertices and digons; the rank needs
        # a perfect matching, so only the columns are compared here
        graphs = sparse_multigraphs()
        assert any(len(g.forest.starts) >= 3 and not g.is_bipartite() for g in graphs)
        for g in graphs:
            cols = _cotree_edges(g)
            assert cols == reference_cotree_edges(g)
            assert len(cols) == len(g.edges) - g.vertex_count + bipartite_components(g)

    def test_disconnected(self):
        assert self.check(disjoint_union(k4(), k4())) == 4
        assert self.check(disjoint_union(k4(), k33())) == 6
        assert self.check(disjoint_union(k33(), petersen(), three_bond())) == 4 + 5 + 2


def gf2_rank(g):
    """GF(2) rank of the matching differences on the co-tree columns, by
    column-by-column elimination of XOR masks."""
    cols = _cotree_edges(g)
    masks = [
        sum(1 << j for j, e in enumerate(cols) if e in pm)
        for pm in enumerate_perfect_matchings(g)
    ]
    rows = [m ^ masks[0] for m in masks[1:]]
    rank = 0
    for j in range(len(cols)):
        i = next((i for i, r in enumerate(rows) if (r >> j) & 1), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        rows = [r ^ pivot if (r >> j) & 1 else r for r in rows]
        rank += 1
    return rank


def count_exact_ranks(monkeypatch):
    """Records the row count of every _exact_rank call the rank makes."""
    calls = []
    rank = brick_brace._exact_rank

    def counting_rank(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(brick_brace, "_exact_rank", counting_rank)
    return calls


class TestRankCertificate:
    """A GF(2) basis as large as the co-tree column count certifies the
    rank; short of it, every difference row is ranked exactly."""

    def test_exact_below_the_column_count(self, catalogs, monkeypatch):
        calls = count_exact_ranks(monkeypatch)
        # Petersen's GF(2) rank is 4 of its rational 5, the exceptional
        # graph's three bricks hold it at 4 of 6 columns, and catalog
        # graph 55 of order 12 has GF(2) rank 5 and rational rank 6
        cases = [(petersen(), 4, 5, 5), (exceptional_graph(), 4, 4, 6),
                 (catalogs(12)[55], 5, 6, 6)]
        for g, gf2, rank, cols in cases:
            assert (gf2_rank(g), len(_cotree_edges(g))) == (gf2, cols)
            calls.clear()
            assert pm_affine_dimension(g) == rank == reference_affine_dimension(g)
            assert calls == [count_perfect_matchings(g) - 1]

    def test_certified_at_the_column_count(self, monkeypatch):
        rnd = random.Random(16)
        brick = random_bridgeless_cubic(16, rnd)
        while not is_brick(brick):
            brick = random_bridgeless_cubic(16, rnd)
        calls = count_exact_ranks(monkeypatch)
        for g in (k4(), prism(), k33(), brick):
            rank = pm_affine_dimension(g)
            assert calls == []
            assert rank == len(_cotree_edges(g)) == reference_affine_dimension(g)
