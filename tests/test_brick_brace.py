import random
from fractions import Fraction

import pytest

from cubicmatch import connectivity
from cubicmatch.brick_brace import (
    BRACE,
    BRICK,
    _exact_rank,
    decompose,
    find_nontrivial_tight_cut,
    is_bicritical,
    is_brick,
    is_tight,
    pm_affine_dimension,
    polytope_dimension,
    polytope_membership,
)
from cubicmatch.connectivity import enumerate_cuts
from cubicmatch.matching import count_perfect_matchings, enumerate_perfect_matchings
from cubicmatch.multigraph import (
    MultiGraph,
    canonical_form,
    contract,
    from_edge_list,
    make_cut,
)
from cubicmatch.named_graphs import (
    doubled_c4,
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from conftest import (
    check_kernels_per_piece,
    count_cut_spaces,
    count_kernels,
    random_bridgeless_cubic,
    walk_forbidden,
)


def simplified(g):
    return MultiGraph(g.vertex_count, tuple(sorted(set(g.edges))))


def reference_decompose(g, strategy):
    """(pieces, cut trace) with the cuts of every piece enumerated afresh."""
    pieces, trace, stack = [], [], [g]
    while stack:
        h = stack.pop()
        found = None
        for cut in enumerate_cuts(h, 3, nontrivial_only=True):
            if cut.size == 3 and is_tight(h, cut):
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
                if cut.size > 4:
                    continue
                direct = all(
                    sum(1 for e in pm if e in cut.cut_edges) == 1 for pm in pms
                )
                assert is_tight(g, cut) == direct

    def test_requires_matching_covered(self):
        # K4 minus an edge: the edge opposite the removed one is in no
        # perfect matching
        g = from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError, match="^is_tight requires a matching covered graph$"):
            is_tight(g, make_cut(g, {0}))


class TestFindNontrivialTightCut:
    def test_petersen_none(self):
        assert find_nontrivial_tight_cut(petersen()) is None

    def test_k33_none(self):
        assert find_nontrivial_tight_cut(k33()) is None

    def test_exceptional_triangle(self):
        cut = find_nontrivial_tight_cut(exceptional_graph())
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
        rnd = random.Random(71)
        graphs = [exceptional_graph()] + [random_bridgeless_cubic(10, rnd) for _ in range(10)]
        for g in graphs:
            first = decompose(g, tight_cut_strategy="first")
            last = decompose(g, tight_cut_strategy="last")
            key_first = sorted(canonical_form(simplified(p)) for p, _ in first.pieces)
            key_last = sorted(canonical_form(simplified(p)) for p, _ in last.pieces)
            assert key_first == key_last
            assert first.brick_count == last.brick_count

    def test_matches_piecewise_enumeration(self, catalogs):
        # pieces inherit their cuts; the reference enumerates each piece's
        graphs = [g for n in (2, 4, 6, 8, 10) for g in catalogs(n)]
        for n in (14, 16):
            rnd = random.Random(n)
            graphs += [random_bridgeless_cubic(n, rnd) for _ in range(6)]
        splits = 0
        for g in graphs:
            for strategy in ("first", "last"):
                d = decompose(g, tight_cut_strategy=strategy)
                pieces = [(p.vertex_count, p.edges, kind) for p, kind in d.pieces]
                assert (pieces, list(d.cut_trace)) == reference_decompose(g, strategy)
                splits += len(d.cut_trace)
        assert splits > 100

    def test_builds_cut_space_on_input_only(self, monkeypatch):
        # no exponential walk, and one cut space, on the input graph only
        monkeypatch.setattr(connectivity, "_connected_side_masks", walk_forbidden)
        built = count_cut_spaces(monkeypatch)
        for strategy in ("first", "last"):
            for g in (exceptional_graph(), random_bridgeless_cubic(16, random.Random(16))):
                built.clear()
                assert len(decompose(g, tight_cut_strategy=strategy).cut_trace) >= 2
                assert len(built) == 1 and built[0] is g

    def test_builds_one_kernel_per_piece(self, monkeypatch):
        # every candidate cut of a piece is decided through one kernel
        built = count_kernels(monkeypatch)
        for strategy in ("first", "last"):
            for g in (exceptional_graph(), random_bridgeless_cubic(16, random.Random(16))):
                built.clear()
                dec = decompose(g, tight_cut_strategy=strategy)
                check_kernels_per_piece(built, g, dec)

    def test_rejects_bridged(self):
        g = from_edge_list(
            6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 5)]
        )
        with pytest.raises(ValueError):
            decompose(g)

    @pytest.mark.parametrize(
        "fn", [decompose, find_nontrivial_tight_cut, polytope_dimension]
    )
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
        assert polytope_dimension(k4()) == 2
        assert polytope_dimension(k33()) == 4
        assert polytope_dimension(petersen()) == 5

    def test_affine_values(self):
        assert pm_affine_dimension(k4()) == 2
        assert pm_affine_dimension(petersen()) == 5
        ex = exceptional_graph()
        assert pm_affine_dimension(ex) == polytope_dimension(ex)

    def test_count_at_least_dimension_plus_one(self):
        rnd = random.Random(73)
        for g in [k4(), k33(), petersen(), doubled_c4(), three_bond()] + [
            random_bridgeless_cubic(10, rnd) for _ in range(10)
        ]:
            assert count_perfect_matchings(g) >= polytope_dimension(g) + 1

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
        g = from_edge_list(
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
