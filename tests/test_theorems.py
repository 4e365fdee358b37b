import pytest

import cfcgraph as cfc
from cfcgraph.errors import UnknownTheoremError
from cfcgraph import families as fam
from cfcgraph.theorems import (
    HarnessConfig,
    check_sharpness,
    check_theorem,
    check_thm_3_1,
    check_thm_3_4,
    check_thm_4_x,
    harness_config,
    run_harness,
    thm_3_4_order_thresholds,
)


def test_thm_3_1_r3_below_order_threshold():
    report = check_thm_3_1(fam.gen_R(3), k=3)
    assert not report.clauses["order_at_least_k_squared"]
    assert not report.hypothesis_holds


def test_thm_3_1_h33_fails_degree_clause():
    report = check_thm_3_1(fam.gen_H(3, 3), k=3)
    assert not report.clauses["min_degree_bound"]


def test_thm_3_1_k9_holds():
    report = check_thm_3_1(fam.gen_complete(9), k=3)
    assert report.hypothesis_holds
    assert report.conclusion_holds


def test_thm_3_4_d5_below_order_threshold():
    report = check_thm_3_4(fam.gen_D(5), k=5)
    assert not report.clauses["order_threshold"]
    assert not report.hypothesis_holds


def test_thm_3_4_h57_fails_degree_sum():
    # min nonadjacent degree sum is 2(t-1) = 12, required (2*35-9)/5 = 12.2
    g = fam.gen_H(5, 7)
    assert cfc.min_nonadjacent_degree_sum(g) == 12
    report = check_thm_3_4(g, k=5)
    assert not report.clauses["degree_sum_bound"]


def test_thm_3_4_complete_graph_vacuous_degree_clause():
    report = check_thm_3_4(fam.gen_complete(40), k=5)
    assert report.hypothesis_holds
    assert report.conclusion_holds


def test_thm_3_4_records_both_thresholds():
    thresholds = thm_3_4_order_thresholds(5)
    assert thresholds["displayed"] >= thresholds["derived"] >= 30
    report = check_thm_3_4(fam.gen_complete(40), k=5)
    assert report.details["order_thresholds"] == thresholds


def test_thm_4_4_constructive_mode():
    # 2-edge-connected non-complete with a high minimum degree
    g = fam.gen_random_bridgeless(17, 0.85, seed=3)
    report = check_thm_4_x(g, "4.4")
    if report.hypothesis_holds:
        assert report.mode == "constructive"
        assert report.conclusion_holds


def test_thm_4_3_path_fails_min_degree():
    report = check_thm_4_x(fam.gen_path(6), "4.3")
    assert not report.clauses["min_degree_bound"]
    assert report.conclusion_holds is None


def test_thm_4_1_s5_misses_degree_bound():
    g = fam.gen_S(5)
    report = check_thm_4_x(g, "4.1")
    assert report.clauses["order_range"]
    assert not report.clauses["min_degree_bound"]


def test_unknown_theorem():
    with pytest.raises(UnknownTheoremError):
        check_theorem(fam.gen_path(4), "9.9")


def test_harness_thm_3_1_no_counterexamples():
    config = HarnessConfig(n_min=9, n_max=12, p_min=0.4, p_max=0.9, k=3)
    report = run_harness("3.1", trials=60, seed=7, config=config)
    assert report.conclusion_fail_count == 0
    assert report.counterexample is None
    assert report.hypothesis_pass_count > 0


def test_harness_is_reproducible():
    config = HarnessConfig(n_min=5, n_max=8, p_min=0.3, p_max=0.8)
    a = run_harness("2.4", trials=40, seed=11, config=config)
    b = run_harness("2.4", trials=40, seed=11, config=config)
    assert a.to_payload() == b.to_payload()
    assert a.hypothesis_pass_count > 0
    assert a.conclusion_fail_count == 0


def test_harness_lemma_2_2():
    config = HarnessConfig(n_min=4, n_max=7, p_min=0.3, p_max=0.9)
    report = run_harness("2.2", trials=60, seed=5, config=config)
    assert report.conclusion_fail_count == 0
    assert report.hypothesis_pass_count > 0


def test_harness_lemma_2_3():
    config = HarnessConfig(n_min=5, n_max=9, p_min=0.25, p_max=0.5)
    report = run_harness("2.3", trials=80, seed=9, config=config)
    assert report.conclusion_fail_count == 0


@pytest.mark.parametrize(
    "family,params",
    [
        ("S", {"t": 3}),
        ("remark4-H", {"t": 5}),
        ("remark4-G", {"n": 15}),
        ("remark5", {"t": 6}),
        ("remark6-H", {"n": 12}),
        ("remark6-G", {}),
        ("remark7", {"n": 11}),
    ],
)
def test_sharpness_families_hold(family, params):
    result = check_sharpness(family, **params)
    assert result["margin_ok"], result
    assert result["holds"], result
    assert result["cfc_at_least_3"] is True


def test_sharpness_refutation_modes():
    assert check_sharpness("S", t=3)["refutation"] == "sweep"
    assert check_sharpness("remark4-H", t=5)["refutation"] == "shape"
    assert check_sharpness("S", t=5)["refutation"] == "skipped"


def test_remark5_path_value():
    # delta = 1 and cfc = ceil(log2 t) >= 3 for a path of order t >= 5
    for t in (5, 6, 8):
        g = fam.gen_path(t)
        assert cfc.exact_cfc(g).value == cfc.cfc_path_formula(t - 1) >= 3


def test_lemma_2_2_hypothesis_does_not_assume_the_shape(monkeypatch):
    # With the shape predicate forced false, C5 (cfc = 2) breaks the
    # lemma's conclusion; its hypothesis must still be decided by search.
    from cfcgraph.decomposition import CutEdgeProfile

    monkeypatch.setattr(CutEdgeProfile, "lemma_2_2_shape", property(lambda self: False))
    check = check_theorem(fam.gen_cycle(5), "2.2")
    assert check.hypothesis_holds
    assert check.is_counterexample


def test_lemma_2_3_excludes_complete_k2():
    # K2 is one bridge whose component has order 2, but cfc(K2) = 1.
    check = check_theorem(fam.gen_path(2), "2.3")
    assert not check.clauses["non_complete"]
    assert not check.hypothesis_holds
    assert not check.is_counterexample


def test_harness_config_defaults_and_overrides():
    assert harness_config("2.3") == HarnessConfig(5, 9, 0.25, 0.55)
    assert harness_config("3.1") == HarnessConfig(9, 14, 0.5, 0.9, k=3)
    assert harness_config("3.4", k=6, n_max=50, budget=7) == HarnessConfig(
        42, 50, 0.5, 0.9, k=6, budget=7
    )
    assert harness_config("4.5", k=4, n_min=34).n_min == 34
    with pytest.raises(UnknownTheoremError):
        harness_config("9.9")
