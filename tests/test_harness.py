import json
import os
import random

import pytest

from cubicmatch import connectivity, harness
from cubicmatch.connectivity import (
    NO_CYCLIC_CUT,
    bridges,
    cyclic_edge_connectivity,
    enumerate_cuts,
)
from cubicmatch.harness import (
    FOUND,
    NOT_APPLICABLE,
    bipartite_companion_check,
    bound_table,
    bridgeless_cubic_catalog,
    brute_force_cubic_multigraphs,
    generate_catalog,
    scarce_matching_graphs,
    verify_catalog,
    verify_graph,
)
from cubicmatch.multigraph import canonical_form, from_edge_list, make_cut
from cubicmatch.named_graphs import (
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from conftest import count_cut_spaces, random_bridgeless_cubic, walk_forbidden


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

    @pytest.mark.skipif(
        not os.environ.get("CUBICMATCH_RUN_SLOW"),
        reason="n=14 exhaustive generation takes ~4 minutes",
    )
    def test_n14_regression_counts(self):
        cat = bridgeless_cubic_catalog(14)
        assert len(cat) == 2602
        assert sum(1 for g in cat if g.is_simple()) == 480


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


class TestOrbitFilter:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_tables_accept_what_sorted_keys_accept(self, n):
        for cycle_type in harness._partitions_min2(n):
            perms = harness._two_factor_symmetries(cycle_type, n)
            tables = [harness._pair_code_table(p) for p in perms]
            for pm in harness._pairings(tuple(range(n))):
                assert harness._is_orbit_minimal(pm, tables) == sorted_key_orbit_minimal(pm, perms)

    def test_same_representatives(self, catalogs, monkeypatch):
        orders = (2, 4, 6, 8, 10)
        tabled = {n: [g.edges for g in catalogs(n)] for n in orders}
        monkeypatch.setattr(harness, "_CATALOG_CACHE", {})
        monkeypatch.setattr(harness, "_pair_code_table", lambda perm: perm)
        monkeypatch.setattr(harness, "_is_orbit_minimal", sorted_key_orbit_minimal)
        for n in orders:
            assert [g.edges for g in bridgeless_cubic_catalog(n)] == tabled[n]


class TestVerify:
    def test_petersen_report(self):
        rep = verify_graph(petersen())
        assert rep.all_satisfied
        tags = [r.tag for r in rep.results]
        assert "cyc5_pm_ge_3n4_minus_3_2" in tags
        cor = next(r for r in rep.results if r.tag == "cyc5_pm_ge_3n4_minus_3_2")
        assert cor.slack == 0

    def test_exceptional_flagged(self):
        rep = verify_graph(exceptional_graph())
        assert rep.is_exceptional and rep.all_satisfied
        assert rep.pm_count == rep.n // 2

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
            verify_graph(from_edge_list(2, [(0, 1)]))

    def test_rejects_disconnected_up_front(self):
        two_bonds = from_edge_list(4, [(0, 1)] * 3 + [(2, 3)] * 3)
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
        graphs = list(catalogs(6))
        seq = verify_catalog(graphs, workers=1)
        par = verify_catalog(graphs, workers=2)
        assert [r.canonical_hex for r in seq] == [r.canonical_hex for r in par]
        assert [r.index for r in seq] == list(range(len(graphs)))
        monkeypatch.setenv("CUBICMATCH_WORKERS", "2")
        env = verify_catalog(graphs)
        assert [r.canonical_hex for r in env] == [r.canonical_hex for r in seq]

    def test_workers_receive_graphs_with_their_census(self, catalogs):
        # each graph carries its cached cut census, sentinel included, to
        # the worker processes
        graphs = [g for n in (2, 4, 6) for g in catalogs(n)]
        values = [cyclic_edge_connectivity(g) for g in graphs]
        assert any(c is NO_CYCLIC_CUT for c in values)
        seq = [r.to_json() for r in verify_catalog(graphs, workers=1)]
        assert [r.to_json() for r in verify_catalog(graphs, workers=2)] == seq

    def test_verify_graph_builds_cut_space_once(self, monkeypatch):
        # no exponential walk, and one cut space, on the input graph only
        monkeypatch.setattr(connectivity, "_connected_side_masks", walk_forbidden)
        built = count_cut_spaces(monkeypatch)
        for g in (petersen(), random_bridgeless_cubic(12, random.Random(12))):
            built.clear()
            verify_graph(g)
            assert len(built) == 1 and built[0] is g

    def test_sampled_cut_matches_sorting_every_cut(self, catalogs):
        graphs = [g for n in range(2, 13, 2) for g in catalogs(n)]
        rnd = random.Random(1)  # the analyze16 benchmark draws for seed 1
        graphs += [random_bridgeless_cubic(16, rnd) for _ in range(100)]
        for g in graphs:
            assert harness._sample_cut_for_identity(g) == sampled_cut_by_sorting(g)


def sampled_cut_by_sorting(g):
    """The sampled cut as first written: every nontrivial cut of at most 4
    edges built as a Cut, in enumerate_cuts' order, and the first used."""
    cuts = [c for c in enumerate_cuts(g, 4, nontrivial_only=True) if c.size <= 4]
    if cuts:
        return cuts[0]
    return make_cut(g, {0})


class TestScarceReport:
    def test_exceptional_is_reported(self, catalogs):
        for n in (2, 4, 6):
            catalogs(n)
        rows = scarce_matching_graphs(6)
        # reported, never asserted to be a specific count
        assert all(pm <= n // 2 + 1 for n, _, pm in rows)


class TestCompanion:
    def test_petersen_not_applicable(self):
        # every Petersen edge deletion stays matching covered
        for e in range(15):
            res = bipartite_companion_check(petersen(), e)
            assert res.status == NOT_APPLICABLE

    def test_low_connectivity_not_applicable(self):
        res = bipartite_companion_check(prism(), 0)
        assert res.status == NOT_APPLICABLE

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
