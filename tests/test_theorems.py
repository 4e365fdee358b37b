import hashlib
import json
import random

import pytest

import cfcgraph as cfc
from cfcgraph.cli import main
from cfcgraph.errors import ParamOutOfRangeError, UnknownTheoremError
from cfcgraph import families as fam, theorems
from cfcgraph.theorems import (
    check_sharpness,
    check_theorem,
    run_harness,
    thm_3_4_order_thresholds,
)


def test_thm_3_1_r3_below_order_threshold():
    report = check_theorem(fam.gen_R(3), "3.1", k=3)
    assert not report.clauses["order_at_least_k_squared"]
    assert not report.hypothesis_holds


def test_thm_3_1_h33_fails_degree_clause():
    report = check_theorem(fam.gen_H(3, 3), "3.1", k=3)
    assert not report.clauses["min_degree_bound"]


def test_thm_3_1_k9_holds():
    report = check_theorem(fam.gen_complete(9), "3.1", k=3)
    assert report.hypothesis_holds
    assert report.conclusion_holds


def test_thm_3_4_d5_below_order_threshold():
    report = check_theorem(fam.gen_D(5), "3.4", k=5)
    assert not report.clauses["order_threshold"]
    assert not report.hypothesis_holds


def test_thm_3_4_h57_fails_degree_sum():
    # min nonadjacent degree sum is 2(t-1) = 12, required (2*35-9)/5 = 12.2
    g = fam.gen_H(5, 7)
    assert cfc.min_nonadjacent_degree_sum(g) == 12
    report = check_theorem(g, "3.4", k=5)
    assert not report.clauses["degree_sum_bound"]


def test_thm_3_4_complete_graph_vacuous_degree_clause():
    report = check_theorem(fam.gen_complete(40), "3.4", k=5)
    assert report.hypothesis_holds
    assert report.conclusion_holds


def test_thm_3_4_records_both_thresholds():
    thresholds = thm_3_4_order_thresholds(5)
    assert thresholds["displayed"] >= thresholds["derived"] >= 30
    report = check_theorem(fam.gen_complete(40), "3.4", k=5)
    assert report.details["order_thresholds"] == thresholds


@pytest.mark.parametrize("k", [3, 4])
def test_thm_3_4_thresholds_refuse_k_below_5(k):
    # The thresholds divide by k - 4: k = 4 would divide by zero, and k = 3
    # by a negative number.
    with pytest.raises(ParamOutOfRangeError, match="^the degree-sum cut-edge bound needs k >= 5$"):
        thm_3_4_order_thresholds(k)


def test_thm_4_4_constructive_mode():
    # 2-edge-connected non-complete with a high minimum degree
    g = fam.gen_random_bridgeless(17, 0.85, seed=3)
    report = check_theorem(g, "4.4")
    if report.hypothesis_holds:
        assert report.mode == "constructive"
        assert report.conclusion_holds


def test_thm_4_3_path_fails_min_degree():
    report = check_theorem(fam.gen_path(6), "4.3")
    assert not report.clauses["min_degree_bound"]
    assert report.conclusion_holds is None


def test_thm_4_1_s5_misses_degree_bound():
    g = fam.gen_S(5)
    report = check_theorem(g, "4.1")
    assert report.clauses["order_range"]
    assert not report.clauses["min_degree_bound"]


def test_unknown_theorem():
    with pytest.raises(UnknownTheoremError):
        check_theorem(fam.gen_path(4), "9.9")


@pytest.mark.parametrize(
    "theorem,k,message",
    [("3.1", 2, "the cut-edge bound needs k >= 3"),
     ("3.4", 4, "the degree-sum cut-edge bound needs k >= 5")],
)
def test_cut_edge_bounds_reject_small_k_first(theorem, k, message):
    # k is checked before the graph, so a disconnected one gets the same error.
    for g in (fam.gen_path(4), cfc.build_graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(ParamOutOfRangeError, match=f"^{message}$"):
            check_theorem(g, theorem, k=k)


def test_a_theorem_without_a_k_rule_refuses_k():
    for theorem in ("2.2", "4.1"):
        with pytest.raises(ParamOutOfRangeError, match=f"^theorem {theorem} takes no k$"):
            check_theorem(fam.gen_path(4), theorem, k=3)


def test_harness_thm_3_1_no_counterexamples():
    report = run_harness("3.1", trials=60, seed=7, k=3, n_max=12)
    assert report.conclusion_fail_count == 0
    assert report.counterexample is None
    assert report.hypothesis_pass_count > 0


def test_harness_is_reproducible():
    a = run_harness("2.4", trials=40, seed=11, n_min=5, n_max=8)
    b = run_harness("2.4", trials=40, seed=11, n_min=5, n_max=8)
    assert a.to_payload() == b.to_payload()
    assert a.hypothesis_pass_count > 0
    assert a.conclusion_fail_count == 0


def test_harness_lemma_2_2():
    report = run_harness("2.2", trials=60, seed=5)
    assert report.conclusion_fail_count == 0
    assert report.hypothesis_pass_count > 0


def test_harness_lemma_2_3():
    report = run_harness("2.3", trials=80, seed=9)
    assert report.conclusion_fail_count == 0


@pytest.mark.parametrize(
    "family,params",
    [
        ("S", (3,)),
        ("remark4-H", (5,)),
        ("remark4-G", (15,)),
        ("remark5", (6,)),
        ("remark6-H", (12,)),
        ("remark6-G", ()),
        ("remark7", (11,)),
    ],
)
def test_sharpness_families_hold(family, params):
    result = check_sharpness(family, *params)
    assert result["margin_ok"], result
    assert result["holds"], result
    assert result["cfc_at_least_3"] is True


# Every sharpness payload over these parameter ranges, in this order.
# remark4-H stops at t = 15: from t = 16 it no longer misses 4.2's bound by
# one unit (see the next test).
# The digest was re-pinned when the payload's params came to be keyed by the
# registry's names: remark5's path order is "n", no longer "t".
SHARPNESS_RANGES = {
    "S": range(3, 20),
    "remark4-H": range(5, 16),
    "remark4-G": range(15, 76, 5),
    "remark5": range(5, 40),
    "remark6-H": range(12, 77, 4),
    "remark6-G": [None],
    "remark7": range(11, 33, 3),
}
SHARPNESS_DIGEST = "b8de4e9b2ecccb6a77a4d9c23c4c5438d21aa483ab1afd0361e704d349a78043"


def test_sharpness_payloads_digest():
    digest = hashlib.sha256()
    for family, values in SHARPNESS_RANGES.items():
        for value in values:
            payload = check_sharpness(family, *([] if value is None else [value]))
            digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == SHARPNESS_DIGEST


def test_remark4_h_misses_theorem_4_2_by_more_than_one_unit_from_order_20(capsys):
    # remark4-H(t) has order t + 4 and minimum degree 2.  Theorem 4.2 asks for
    # delta >= 3 and 5*delta >= n - 4, so from n = 20 (t = 16) a minimum
    # degree of 3 is still short and the example shows nothing about 4.2.
    for t in range(16, 40):
        result = check_sharpness("remark4-H", t)
        assert (result["min_degree"], result["n"]) == (2, t + 4)
        assert (result["margin_ok"], result["cfc_at_least_3"], result["holds"]) == (
            False,
            True,
            False,
        )
    assert main(["sharpness", "remark4-H", "16"]) == 5
    assert json.loads(capsys.readouterr().out)["holds"] is False


def test_order_sharpness_needs_order_range_to_be_the_only_failing_clause(monkeypatch):
    # remark6-G's bridges form a 3-star, so against 4.1 it fails
    # linear_forest as well as order_range: not a miss of the order bound.
    monkeypatch.setitem(theorems.SHARPNESS, "remark6-G", ("remark6-G", "4.1", "order"))
    assert check_sharpness("remark6-G")["margin_ok"] is False


def test_sharpness_refutation_modes():
    assert check_sharpness("S", 3)["refutation"] == "sweep"
    assert check_sharpness("remark4-H", 5)["refutation"] == "shape"
    assert check_sharpness("S", 5)["refutation"] == "skipped"


def test_remark5_path_value():
    # delta = 1 and cfc = ceil(log2 t) >= 3 for a path of order t >= 5
    for t in (5, 6, 8):
        g = fam.gen_path(t)
        assert cfc.exact_cfc(g).value == cfc.cfc_path_formula(t - 1) >= 3


def test_lemma_2_2_hypothesis_does_not_assume_the_shape(monkeypatch):
    # With the shape predicate forced false, C5 (cfc = 2) breaks the
    # lemma's conclusion; its hypothesis must still be decided by search.
    from cfcgraph.decomposition import BlockDecomposition

    monkeypatch.setattr(BlockDecomposition, "lemma_2_2_shape", property(lambda self: False))
    check = check_theorem(fam.gen_cycle(5), "2.2")
    assert check.hypothesis_holds
    assert check.is_counterexample


def test_lemma_2_3_excludes_complete_k2():
    # K2 is one bridge whose component has order 2, but cfc(K2) = 1.
    check = check_theorem(fam.gen_path(2), "2.3")
    assert not check.clauses["non_complete"]
    assert not check.hypothesis_holds
    assert not check.is_counterexample


@pytest.mark.parametrize(
    "theorem,kwargs,orders,probabilities",
    [
        ("2.3", {}, (5, 9), (0.25, 0.55)),
        ("3.1", {}, (9, 14), (0.5, 0.9)),
        ("3.4", {"k": 6, "n_max": 50, "budget": 7}, (42, 50), (0.5, 0.9)),
        ("4.5", {"n_min": 34}, (34, 36), (0.5, 0.9)),
    ],
    ids=["2.3", "3.1", "3.4", "4.5"],
)
def test_harness_samples_the_row_ranges(theorem, kwargs, orders, probabilities, monkeypatch):
    # Every (n, p) draw lies in the row's ranges, with n_min/n_max applied;
    # the graph is a path so that no trial runs a search.
    draws = []

    def spy(n, p, seed):
        draws.append((n, p))
        return fam.gen_path(n)

    monkeypatch.setattr(theorems, "gen_random_connected", spy)
    run_harness(theorem, trials=100, seed=3, **kwargs)
    assert len(draws) == 100
    assert all(orders[0] <= n <= orders[1] for n, _ in draws)
    assert all(probabilities[0] <= p <= probabilities[1] for _, p in draws)
    assert {n for n, _ in draws} == set(range(orders[0], orders[1] + 1))
    with pytest.raises(UnknownTheoremError):
        run_harness("9.9", trials=1, seed=0)


@pytest.mark.parametrize(
    "theorem,kwargs,error,message",
    [
        ("3.1", {"k": 2}, ParamOutOfRangeError, "the cut-edge bound needs k >= 3"),
        ("3.4", {"k": 3}, ParamOutOfRangeError, "the degree-sum cut-edge bound needs k >= 5"),
        ("3.4", {"k": 4}, ParamOutOfRangeError, "the degree-sum cut-edge bound needs k >= 5"),
        ("4.1", {"k": 3}, ParamOutOfRangeError, "theorem 4.1 takes no k"),
        ("4.3", {"n_min": 10}, ParamOutOfRangeError, "empty order range: n_min 10 > n_max 8"),
        ("2.4", {"n_min": 1}, ParamOutOfRangeError, "order range must start at 2 or more, got n_min 1"),
        ("4.1", {"n_min": 1440, "n_max": 1460}, ParamOutOfRangeError,
         "order 1460 or edge count 1065070 is above 1048576"),
        ("2.2", {"budget": -1}, ParamOutOfRangeError, "budget must be >= 0, got -1"),
        ("2.4", {"trials": -1}, ParamOutOfRangeError, "trials must be >= 0, got -1"),
    ],
    ids=["3.1-k2", "3.4-k3", "3.4-k4", "4.1-k3", "empty-range", "range-below-2", "range-past-size-cap",
         "negative-budget", "negative-trials"],
)
def test_harness_rejects_bad_arguments_before_sampling(theorem, kwargs, error, message, monkeypatch):
    def no_sampling(*args, **kw):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(theorems, "gen_random_connected", no_sampling)
    arguments = {"trials": 0, "seed": 0, **kwargs}
    with pytest.raises(error, match=f"^{message}$"):
        run_harness(theorem, **arguments)


def test_thm_3_4_default_harness_samples_only_admissible_orders():
    # At the default k = 5 the displayed order threshold (33) is above
    # k^2 + k = 30; every sampled order must reach it.
    report = run_harness("3.4", trials=200, seed=0)
    assert report.clause_breakdown["order_threshold"] == 200


def test_cfc_two_oracle_refutes_by_shape_past_the_sweep_cap():
    # No theorem's hypothesis admits such a graph, so the conclusion check is
    # called directly.  A star past the cap
    # fails Lemma 2.2's shape, which refutes cfc = 2 without a sweep; a graph
    # of the right shape past the cap is not swept, so no certificate decides
    # it and the conclusion is left open.
    from cfcgraph.solver import ORACLE_EDGE_CAP
    from cfcgraph.theorems import _cfc_two_check

    star = cfc.build_graph(22, [(0, v) for v in range(1, 22)])
    assert star.edge_count > ORACLE_EDGE_CAP
    assert _cfc_two_check(star, cfc.block_decomposition(star), None, None) == (False, "oracle")

    s4 = fam.gen_S(4)
    d = cfc.block_decomposition(s4)
    assert s4.edge_count > ORACLE_EDGE_CAP and d.lemma_2_2_shape
    assert _cfc_two_check(s4, d, None, None) == (None, None)


def test_trials_no_certificate_decides_are_inconclusive(monkeypatch, capsys):
    # At seed 0, 18 of 30 4.3 trials pass the hypothesis, all decided by the
    # construction.  With every certificate "skipped" those 18 are
    # inconclusive and counted nowhere else, and verify exits 4.
    assert run_harness("4.3", 30, 0).hypothesis_pass_count == 18
    monkeypatch.setattr(theorems, "two_coloring_certificate", lambda g, d, budget: (None, "skipped"))
    report = run_harness("4.3", 30, 0)
    assert (report.inconclusive_count, report.hypothesis_pass_count) == (18, 0)
    assert report.conclusion_fail_count == 0 and report.counterexample is None
    assert main(["verify", "4.3", "--trials", "30"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert (payload["inconclusive_count"], payload["hypothesis_pass_count"]) == (18, 0)


def test_checks_reject_disconnected_graphs():
    from cfcgraph.errors import NotConnectedError
    from cfcgraph.solver import ORACLE_EDGE_CAP
    from cfcgraph.theorems import THEOREM_IDS

    two_triangles = cfc.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    isolated_zero = cfc.build_graph(4, [(1, 2), (2, 3)])
    # Past the oracle cap, so Lemma 2.2 runs no sweep and only its
    # structural pass can see the graph is disconnected.
    k7_and_edge = cfc.build_graph(9, list(fam.gen_complete(7).edges) + [(7, 8)])
    assert k7_and_edge.edge_count > ORACLE_EDGE_CAP
    for g in (two_triangles, isolated_zero, k7_and_edge):
        for call in (cfc.exact_cfc, cfc.cfc_bracket, cfc.construct_two_coloring):
            with pytest.raises(NotConnectedError):
                call(g)
        for theorem in THEOREM_IDS:
            with pytest.raises(NotConnectedError):
                check_theorem(g, theorem)


def test_checks_on_the_one_vertex_graph():
    # K1 has no blocks: it is complete and not 2-edge-connected, so every
    # hypothesis fails, with each clause pinned here.
    from cfcgraph.theorems import THEOREM_IDS, TheoremCheck

    no_bridges = {"min_degree": 0, "component_orders": []}
    expected = {
        "2.2": ({"outside_shape": False}, None, {}),
        "2.3": ({"has_cut_edges": False, "all_components_order_2": True,
                 "non_complete": False}, None, {}),
        "2.4": ({"two_edge_connected": False, "non_complete": False}, None, {}),
        "3.1": ({"order_at_least_k_squared": False, "min_degree_bound": True}, None,
                {"k": 3, "cut_edges": 0}),
        "3.4": ({"order_threshold": False, "degree_sum_bound": True}, None,
                {"k": 5, "cut_edges": 0, "order_thresholds": {"displayed": 33, "derived": 32},
                 "between_thresholds": False}),
        "4.1": ({"order_range": False, "linear_forest": True, "min_degree_bound": True,
                 "non_complete": False}, None, no_bridges),
        "4.2": ({"order_range": False, "linear_forest": True, "min_degree_bound": False,
                 "non_complete": False}, None, no_bridges),
        "4.3": ({"order_range": False, "linear_forest": True, "min_degree_bound": False,
                 "non_complete": False}, None, no_bridges),
        "4.4": ({"order_range": False, "min_degree_bound": True, "non_complete": False},
                None, no_bridges),
        "4.5": ({"order_range": False, "linear_forest": True, "degree_sum_bound": True,
                 "non_complete": False}, None, no_bridges),
    }
    assert set(expected) == set(THEOREM_IDS)
    k1 = cfc.build_graph(1, [])
    for theorem in THEOREM_IDS:
        clauses, mode, details = expected[theorem]
        assert check_theorem(k1, theorem) == TheoremCheck(
            theorem, False, clauses, None, mode=mode, details=details
        ), theorem


def test_lemma_2_2_reads_as_its_contrapositive_against_brute_force():
    # On random connected graphs of up to 7 vertices, sparse ones included,
    # the hypothesis is C(G) failing the shape, by conftest's bridge
    # subgraph, and where it holds the conclusion is that no conflict-free
    # 2-coloring exists, by the full 2^m sweep.
    from conftest import bridge_subgraph_oracle, has_two_coloring_brute

    outcomes = set()
    for seed in range(600):
        rng = random.Random(seed)
        g = fam.gen_random_connected(rng.randint(2, 7), rng.uniform(0.1, 0.9), seed=seed)
        _, components = bridge_subgraph_oracle(g)
        shape = all(path is not None and len(edges) <= 3 for _, edges, path in components)
        check = check_theorem(g, "2.2")
        assert check.hypothesis_holds is (not shape), g
        if check.hypothesis_holds:
            assert check.conclusion_holds is (not has_two_coloring_brute(g)), g
            assert check.mode == "oracle"
        outcomes.add(check.hypothesis_holds)
    assert outcomes == {False, True}


def test_lemma_2_2_past_the_sweep_cap_is_inconclusive(monkeypatch):
    # The star K1,21 fails the shape (21 bridges at one vertex) and has more
    # edges than the sweep takes, so its conclusion is left undecided.
    from cfcgraph.solver import ORACLE_EDGE_CAP

    star = cfc.build_graph(22, [(0, v) for v in range(1, 22)])
    assert star.edge_count > ORACLE_EDGE_CAP
    check = check_theorem(star, "2.2")
    assert check.clauses == {"outside_shape": True} and check.hypothesis_holds
    assert (check.conclusion_holds, check.mode) == (None, None)
    monkeypatch.setattr(theorems, "gen_random_connected", lambda n, p, seed: star)
    report = run_harness("2.2", trials=1, seed=0)
    assert (report.inconclusive_count, report.hypothesis_pass_count) == (1, 0)
    assert report.clause_breakdown == {} and report.counterexample is None


def test_check_theorem_never_raises_on_an_exhausted_budget():
    # Every row at budget 1 on small graphs: an undecided search is a None
    # conclusion with no mode, never BudgetExhaustedError.
    undecided = 0
    for theorem in theorems.THEOREM_IDS:
        for seed in range(30):
            rng = random.Random(seed)
            g = fam.gen_random_connected(rng.randint(4, 9), rng.uniform(0.1, 0.9), seed=seed)
            check = check_theorem(g, theorem, budget=1)
            if check.conclusion_holds is None:
                assert check.mode is None, (theorem, g)
                undecided += check.hypothesis_holds
    assert undecided
    # S(3) has the shape but not the construction's, so cfc = 2 needs the sweep.
    s3 = fam.gen_S(3)
    assert theorems._cfc_two_check(s3, cfc.block_decomposition(s3), None, 1) == (None, None)
