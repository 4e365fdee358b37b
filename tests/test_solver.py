import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import cfcgraph as cfc
from cfcgraph.errors import (
    BudgetExhaustedError,
    CompleteGraphError,
    EmptyGraphError,
    NotConnectedError,
    ParamOutOfRangeError,
    TrivialGraphError,
)
from cfcgraph.families import (
    gen_complete,
    gen_cycle,
    gen_H,
    gen_path,
    gen_random_connected,
    gen_remark4_H,
    gen_S,
)
from cfcgraph.graph import nonadjacent_pairs
from cfcgraph.solver import bridge_forest_bound

from conftest import cfc_brute, has_two_coloring_brute, simple_paths_between, sparse_connected
from stdlib_equivalence import bound_agrees, connected_graph


def test_exact_cfc_k4():
    result = cfc.exact_cfc(gen_complete(4))
    assert result.value == 1
    assert result.optimal_coloring.palette_size == 1


def test_exact_cfc_c4():
    assert cfc.exact_cfc(gen_cycle(4)).value == 2


def test_exact_cfc_four_edge_path():
    # ceil(log2 5) = 3
    assert cfc.exact_cfc(gen_path(5)).value == 3


def test_exact_cfc_preconditions():
    with pytest.raises(TrivialGraphError):
        cfc.exact_cfc(cfc.build_graph(1, []))
    with pytest.raises(NotConnectedError):
        cfc.exact_cfc(cfc.build_graph(4, [(0, 1), (2, 3)]))


def test_exact_cfc_witness_is_valid_and_minimal():
    g = gen_path(4)
    result = cfc.exact_cfc(g)
    assert result.optimal_coloring.palette_size == result.value
    verdict = cfc.verify_conflict_free_connected(result.optimal_coloring)
    assert verdict.is_conflict_free_connected
    assert result.value == cfc_brute(g)


def test_budget_exhaustion_reports_bracket():
    with pytest.raises(BudgetExhaustedError) as exc:
        cfc.exact_cfc(gen_S(3), budget=50)
    assert exc.value.lower >= 2
    assert exc.value.upper == gen_S(3).edge_count
    # exact_cfc's bracket is [t, upper bound of cfc_bracket]: 2 where the
    # construction applies (H(3, 3)), m where it does not (S(3)).  The bare
    # two-coloring search keeps reporting m.
    for g, bracket in ((gen_H(3, 3), (2, 2)), (gen_S(3), (2, 19))):
        assert cfc.cfc_bracket(g) == bracket
        with pytest.raises(BudgetExhaustedError) as exc:
            cfc.exact_cfc(g, budget=1)
        assert (exc.value.lower, exc.value.upper) == bracket
        with pytest.raises(BudgetExhaustedError) as exc:
            cfc.exists_two_coloring(g, budget=1)
        assert (exc.value.lower, exc.value.upper) == (2, g.edge_count)


def test_a_budget_builds_only_the_pair_records_it_can_reach(monkeypatch):
    # A budget of B steps gets the sweep only the first B + 1 pair records.
    # For every budget up to past the pair count the outcome is the one
    # with every record: the unbudgeted result when it takes at most B
    # steps, else the same bracket at step B + 1.
    from cfcgraph import solver

    def outcome(search, g, budget):
        try:
            return search(g, budget=budget)
        except BudgetExhaustedError as exc:
            return exc.lower, exc.upper, exc.steps

    every_record = solver._pairs
    for g in (gen_cycle(6), gen_path(7), _star(4), gen_H(3, 3), gen_remark4_H(5)):
        pair_count = len(every_record(g))
        for search in (cfc.exact_cfc, cfc.exists_two_coloring):
            unbudgeted = search(g)
            for budget in range(pair_count + 3):
                got = outcome(search, g, budget)
                with monkeypatch.context() as m:
                    m.setattr(solver, "_pairs", lambda g, budget=None: every_record(g))
                    assert got == outcome(search, g, budget), (g, search, budget)
                if unbudgeted.stats.verification_steps <= budget:
                    assert got == unbudgeted, (g, search, budget)
                else:
                    assert got[2] == budget + 1, (g, search, budget)


def test_negative_budget_is_out_of_range():
    from cfcgraph.theorems import run_harness

    g = gen_cycle(5)
    for call in (
        lambda: cfc.exact_cfc(g, budget=-1),
        lambda: cfc.exists_two_coloring(g, budget=-1),
        lambda: run_harness("2.2", 0, 0, budget=-1),
    ):
        with pytest.raises(ParamOutOfRangeError, match=r"^budget must be >= 0, got -1$"):
            call()
    assert cfc.exact_cfc(g, budget=None).value == 2
    assert cfc.exists_two_coloring(g, budget=None).exists
    assert run_harness("2.2", 0, 0, budget=None).trials == 0


def test_exists_two_coloring_c5():
    search = cfc.exists_two_coloring(gen_cycle(5))
    assert search.exists
    assert cfc.verify_conflict_free_connected(search.witness).is_conflict_free_connected


def test_exists_two_coloring_rejects_complete():
    with pytest.raises(CompleteGraphError):
        cfc.exists_two_coloring(gen_complete(4))


def test_exists_two_coloring_rejects_disconnected():
    with pytest.raises(NotConnectedError, match=r"^requires a connected graph$"):
        cfc.exists_two_coloring(cfc.build_graph(5, [(0, 1), (1, 2), (3, 4)]))
    with pytest.raises(EmptyGraphError):
        cfc.exists_two_coloring(cfc.build_graph(0, []))


def test_exists_two_coloring_generates_only_the_paths_it_reads():
    # The 4-cube has tens of thousands of simple paths between its
    # nonadjacent pairs; the sweep needs two colorings and 89 pair steps.
    edges = [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1]
    g = cfc.build_graph(16, edges)
    start = time.perf_counter()
    search = cfc.exists_two_coloring(g)
    elapsed = time.perf_counter() - start
    assert search.exists
    assert search.stats == cfc.SearchStats(colorings_examined=2, verification_steps=89)
    assert elapsed < 0.5, f"{elapsed:.2f} s for the 4-cube"


def _reference_graphs():
    """40 random connected graphs, S 3, remark4-H 5 and H 3 3: small enough
    to list every simple path between every nonadjacent pair."""
    rng = random.Random(7)
    graphs = [
        gen_random_connected(rng.randint(3, 8), rng.uniform(0.2, 0.9), seed=rng.randrange(10_000))
        for _ in range(40)
    ]
    return graphs + [gen_S(3), gen_remark4_H(5), gen_H(3, 3)]


def test_pair_paths_match_reference_enumeration():
    # Each pair's generator yields every simple path once, as (edge bitmask,
    # length) with edge i of the canonical order at bit m-1-i.
    from cfcgraph import solver

    for g in _reference_graphs():
        m = g.edge_count
        bit = {e: 1 << (m - 1 - i) for i, e in enumerate(g.edges)}
        pairs = solver._pairs(g)
        assert [(u, v) for u, v, *_ in pairs] == list(nonadjacent_pairs(g))
        for u, v, masks, pull, _ in pairs:
            expected = sorted(
                (sum(bit[cfc.canonical_edge(a, b)] for a, b in zip(p, p[1:])), len(p) - 1)
                for p in simple_paths_between(g, u, v)
            )
            assert masks == []
            assert sorted(pull) == expected, (g.edges, u, v)
            assert sorted(masks) == expected


def test_jump_is_the_least_bit_on_the_pair_paths():
    # The backjump target of a failed pair is the least significant bit of
    # the OR of its simple-path masks: read off the pulled masks, or, for a
    # pair past the cap (no masks), off the verifier.
    from cfcgraph import solver

    above_last_edge = 0
    for g in _reference_graphs():
        m = g.edge_count
        bit = {e: 1 << (m - 1 - i) for i, e in enumerate(g.edges)}
        for u, v, masks, pull, _ in solver._pairs(g):
            on_paths = 0
            for p in simple_paths_between(g, u, v):
                on_paths |= sum(bit[cfc.canonical_edge(a, b)] for a, b in zip(p, p[1:]))
            least = on_paths & -on_paths
            list(pull)  # pulls every path into masks
            assert solver._jump(g, [u, v, masks, None, None]) == least, (g.edges, u, v)
            assert solver._jump(g, [u, v, None, None, None]) == least, (g.edges, u, v)
            above_last_edge += least > 1
    # Some jumps skip colorings: their bit is above the last edge's.
    assert above_last_edge


def _k4_chain():
    """Three K4s chained by two-edge bridge paths: n 14, m 22.  Its bridge
    components have two edges, so only a sweep refutes cfc = 2."""
    edges, prev = [], None
    for q in range(0, 15, 5):
        edges += [(a, b) for a in range(q, q + 4) for b in range(a + 1, q + 4)]
        if prev is not None:
            edges += [(prev, q - 1), (q - 1, q)]
        prev = q + 3
    return cfc.build_graph(14, sorted(edges))


@pytest.mark.parametrize(
    "name,search,expected,seconds",
    [
        ("S 3", lambda: cfc.exists_two_coloring(gen_S(3)), (False, 2**18), 0.5),
        ("S 3", lambda: cfc.exact_cfc(gen_S(3)), (3, 14_643_896), 2.0),
        ("K4 chain", lambda: cfc.exists_two_coloring(_k4_chain()), (False, 2**21), 3.0),
    ],
    ids=["exists-S3", "exact-S3", "exists-K4-chain"],
)
def test_refutations_at_scale_jump_past_refuted_colorings(name, search, expected, seconds):
    # colorings_examined counts every coloring decided, checked or skipped.
    start = time.perf_counter()
    result = search()
    elapsed = time.perf_counter() - start
    answer = result.value if isinstance(result, cfc.CfcResult) else result.exists
    assert (answer, result.stats.colorings_examined) == expected
    assert elapsed < seconds, f"{elapsed:.2f} s for {name}"


def test_exists_two_coloring_remark4_refutation():
    g = gen_remark4_H(5)
    assert (g.vertex_count, g.edge_count) == (9, 10)
    search = cfc.exists_two_coloring(g)
    assert not search.exists
    assert search.stats.colorings_examined == 2 ** (g.edge_count - 1)


def _star(k):
    return cfc.build_graph(k + 1, [(0, v) for v in range(1, k + 1)])


def _h(g):
    return bridge_forest_bound(cfc.block_decomposition(g))


def test_cfc_bracket():
    assert cfc.cfc_bracket(gen_complete(5)) == (1, 1)
    assert cfc.cfc_bracket(gen_cycle(5)) == (2, 2)
    assert cfc.cfc_bracket(_star(3)) == (3, 3)
    assert cfc.exact_cfc(_star(3)).value == 3
    # h(G) is above Lemma 2.2's bound of 3: no 3-coloring of path 9, no
    # 4-coloring of K1,5.
    for g, bracket in ((gen_path(9), (4, 8)), (_star(5), (5, 5))):
        assert cfc.cfc_bracket(g) == bracket
        assert cfc_brute(g, tmax=bracket[0] - 1) is None


def test_bridge_forest_bound_on_paths_and_stars():
    assert _h(gen_cycle(6)) == 0
    for n in range(2, 70):
        assert _h(gen_path(n)) == math.ceil(math.log2(n)), n
    for k in range(3, 7):
        assert _h(_star(k)) == k
        assert cfc.exact_cfc(_star(k)).value == k


def test_bridge_forest_bound_walks_the_longest_path():
    # Path 9 with a leaf on its middle vertex: degree 3, longest path 8
    # edges, so h = 4.  Three legs of three edges: 9 edges in all, but the
    # longest path has 6, so h = 3.
    caterpillar = cfc.build_graph(10, [(v, v + 1) for v in range(8)] + [(4, 9)])
    spider = cfc.build_graph(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)])
    assert (_h(caterpillar), _h(spider)) == (4, 3)
    assert bound_agrees(caterpillar) and bound_agrees(spider)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_bridge_forest_bound_matches_oracle_on_large_trees(seed):
    # Trees up to 40 vertices with a few chords: components of C(G) long
    # enough that the longest path, not the degree, can decide h(G).
    rng = random.Random(seed)
    n = rng.randint(10, 40)
    tree = {(rng.randrange(max(0, v - 4), v), v) for v in range(1, n)}
    chords = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(4))}
    g = cfc.build_graph(n, sorted(tree | chords))
    assert bound_agrees(g), g


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_bracket_lower_bound_is_sound(seed):
    # Sparse graphs on at most 7 vertices: C(G) is often a tree whose
    # degree or longest path lifts h(G) above Lemma 2.2's bound.
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    chords = {(u, v) for v in range(n) for u in range(v) if rng.random() < 0.15}
    g = cfc.build_graph(n, sorted(tree | chords))
    lower, upper = cfc.cfc_bracket(g)
    assert lower <= upper
    assert cfc_brute(g, tmax=lower - 1) is None, g


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_bridge_forest_bound_within_lemma_2_2_shape(seed):
    # h(G) <= 2 exactly within Lemma 2.2's shape, so cfc_bracket reads the
    # shape off h(G) alone: outside it a vertex on three cut edges gives
    # h >= 3, and a path of four cut edges ceil(log2 5) = 3.
    rng = random.Random(seed)
    graphs = (connected_graph(rng), sparse_connected(rng, 30, 0), sparse_connected(rng, 30, 0.05))
    for g in graphs:
        d = cfc.block_decomposition(g)
        assert d.lemma_2_2_shape == (bridge_forest_bound(d) <= 2), g
        if not cfc.is_complete(g):
            assert cfc.cfc_bracket(g)[0] == (2 if d.lemma_2_2_shape else _h(g)), g


def test_path_values_match_formula():
    for edges in range(1, 7):
        g = gen_path(edges + 1)
        assert cfc.exact_cfc(g).value == cfc.cfc_path_formula(edges)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_value_within_bracket(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    g = gen_random_connected(n, rng.uniform(0.3, 0.9), seed=seed)
    lower, upper = cfc.cfc_bracket(g)
    value = cfc.exact_cfc(g).value
    assert lower <= value <= upper


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_exists_two_matches_exact(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    g = gen_random_connected(n, rng.uniform(0.3, 0.9), seed=seed)
    if cfc.is_complete(g):
        return
    assert cfc.exists_two_coloring(g).exists == (cfc.exact_cfc(g).value <= 2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_first_edge_fix_loses_no_solutions(seed):
    # color-swap symmetry: the fixed sweep agrees with the full 2^m sweep
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    g = gen_random_connected(n, rng.uniform(0.3, 0.8), seed=seed)
    if cfc.is_complete(g) or g.edge_count > 10:
        return
    assert cfc.exists_two_coloring(g).exists == has_two_coloring_brute(g)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_exact_cfc_matches_brute_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    g = gen_random_connected(n, rng.uniform(0.4, 1.0), seed=seed)
    assert cfc.exact_cfc(g).value == cfc_brute(g)


def test_capped_pairs_search_like_masked_pairs(monkeypatch):
    # Cap 0 sends every pair to the verifier's per-edge rule; the search order,
    # witness and counters must not change, at any palette size.
    from cfcgraph import solver

    rng = random.Random(11)
    graphs = [
        gen_random_connected(n, rng.uniform(0.3, 0.9), seed=rng.randrange(10_000))
        for n in (3, 4, 5, 6) * 5
    ]
    graphs += [gen_path(6), cfc.build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), gen_remark4_H(5)]
    expected = [cfc.exact_cfc(g) for g in graphs]
    assert {r.value for r in expected} >= {2, 3, 4}
    monkeypatch.setattr(solver, "_PATH_CAP_PER_PAIR", 0)
    for g, want in zip(graphs, expected):
        got = cfc.exact_cfc(g)
        assert got.value == want.value
        assert got.optimal_coloring.colors == want.optimal_coloring.colors
        assert got.stats == want.stats


@pytest.mark.parametrize("cap", [1, 3])
def test_pairs_reaching_the_cap_mid_sweep_search_alike(monkeypatch, cap):
    # A pair switches to the per-edge rule at the step that pulls its path
    # past the cap, after its pulled paths failed; nothing else may change.
    from cfcgraph import solver

    rng = random.Random(5)
    graphs = [
        gen_random_connected(n, rng.uniform(0.4, 0.9), seed=rng.randrange(10_000))
        for n in (4, 5, 6) * 4
    ]
    graphs += [gen_cycle(6), gen_remark4_H(5)]
    expected = [cfc.exact_cfc(g) for g in graphs]
    monkeypatch.setattr(solver, "_PATH_CAP_PER_PAIR", cap)
    for g, want in zip(graphs, expected):
        got = cfc.exact_cfc(g)
        assert got.value == want.value
        assert got.optimal_coloring.colors == want.optimal_coloring.colors
        assert got.stats == want.stats


def test_capped_pair_is_refuted_without_path_search():
    # K12 minus one edge: the missing edge's pair has far more simple paths
    # than the cap, and refuting the all-1 coloring must not enumerate them.
    g = cfc.build_graph(12, [e for e in gen_complete(12).edges if e != (0, 1)])
    start = time.perf_counter()
    result = cfc.exact_cfc(g)
    elapsed = time.perf_counter() - start
    assert result.value == 2
    assert result.stats == cfc.SearchStats(colorings_examined=2, verification_steps=2)
    assert elapsed < 2.0, f"{elapsed:.2f} s for K12 minus one edge"


def _cycles_joined_by_bridge_paths(rng):
    """Two or three short cycles chained by paths of one to three bridges:
    bridge components of order 3 and 4 often give Lemma 2.2's shape without
    the construction's hypothesis, the region only a sweep decides."""
    edges, n, last = [], 0, None
    for _ in range(rng.randint(2, 3)):
        r = rng.randint(3, 4)
        cycle = list(range(n, n + r))
        edges += [(cycle[i], cycle[(i + 1) % r]) for i in range(r)]
        n += r
        if last is not None:
            middles = list(range(n, n + rng.randint(0, 2)))
            n += len(middles)
            chain = [rng.choice(last), *middles, rng.choice(cycle)]
            edges += [(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])]
        last = cycle
    return cfc.build_graph(n, edges)


def test_two_coloring_certificate_agrees_with_the_sweep_and_brute_force():
    # Connected non-complete graphs with m <= 20, random and chained cycles:
    # the certificate's answer is the whole sweep's, and the brute-force
    # oracle's where m is small enough for it; each rung of the ladder is
    # reached.
    from cfcgraph.solver import ORACLE_EDGE_CAP, two_coloring_certificate

    rng = random.Random(13)
    # Bridge components of orders 3, 3 and 2 and still cfc = 2.
    graphs = [cfc.build_graph(8, [(0, 3), (0, 6), (0, 7), (1, 6), (2, 6), (3, 5), (4, 7), (6, 7)])]
    for trial in range(120):
        if trial % 3:
            n = rng.randint(4, 10)
            graphs.append(
                gen_random_connected(n, rng.uniform(0.15, 0.6), seed=rng.randrange(10_000))
            )
        else:
            graphs.append(_cycles_joined_by_bridge_paths(rng))
    seen = Counter()
    for g in graphs:
        if cfc.is_complete(g) or g.edge_count > ORACLE_EDGE_CAP:
            continue
        d = cfc.block_decomposition(g)
        answer, certificate = two_coloring_certificate(g, d, None)
        seen[certificate, answer] += 1
        if d.construction_applies:
            assert certificate == "constructive"
        else:
            assert certificate == ("sweep" if d.lemma_2_2_shape else "shape")
        assert answer is cfc.exists_two_coloring(g).exists, (g, certificate)
        if g.edge_count <= 8:
            assert answer is (cfc_brute(g, tmax=2) == 2), (g, certificate)
    rungs = {("constructive", True), ("shape", False), ("sweep", True), ("sweep", False)}
    assert set(seen) == rungs, seen


def test_two_coloring_certificate_past_the_sweep_cap():
    from cfcgraph.solver import ORACLE_EDGE_CAP, two_coloring_certificate

    s3, s4 = gen_S(3), gen_S(4)
    assert s3.edge_count <= ORACLE_EDGE_CAP < s4.edge_count
    assert two_coloring_certificate(s3, cfc.block_decomposition(s3), None) == (False, "sweep")
    # S(4) has Lemma 2.2's shape, so only a sweep could refute it.
    assert two_coloring_certificate(s4, cfc.block_decomposition(s4), None) == (None, "skipped")
    star = cfc.build_graph(22, [(0, v) for v in range(1, 22)])
    assert two_coloring_certificate(star, cfc.block_decomposition(star), None) == (False, "shape")


def test_two_coloring_sweep_answers_or_names_why_not():
    from cfcgraph.solver import ORACLE_EDGE_CAP, two_coloring_sweep

    star = cfc.build_graph(22, [(0, v) for v in range(1, 22)])
    assert star.edge_count > ORACLE_EDGE_CAP
    assert two_coloring_sweep(star) == (None, "skipped")
    assert two_coloring_sweep(gen_S(4)) == (None, "skipped")
    assert two_coloring_sweep(gen_S(3), budget=1) == (None, "budget-exhausted")
    assert two_coloring_sweep(gen_S(3)) == (False, "sweep")
    assert two_coloring_sweep(gen_cycle(5), budget=100) == (True, "sweep")
    # Past the cap no sweep runs, so no budget can run out there.
    assert two_coloring_sweep(star, budget=0) == (None, "skipped")
