import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import cfcgraph as cfc
from cfcgraph.coloring import conflict_free_path_from_map, format_coloring, parse_coloring
from cfcgraph.errors import (
    CompleteGraphError,
    EdgeListParseError,
    HypothesisViolatedError,
    NonPositiveError,
    NotAPathError,
)
from cfcgraph.families import gen_H, gen_path, gen_random_connected, gen_random_glued_blocks

from conftest import coloring_is_conflict_free_connected


def colored(g, colors):
    return cfc.EdgeColoring(graph=g, colors=tuple(colors))


def test_cfc_path_formula():
    assert [cfc.cfc_path_formula(n) for n in (1, 2, 3, 4, 7, 8)] == [1, 2, 2, 3, 3, 4]
    with pytest.raises(NonPositiveError):
        cfc.cfc_path_formula(0)


def test_is_conflict_free_path():
    p4 = gen_path(4)
    assert cfc.is_conflict_free_path(colored(p4, (1, 2, 3)), [0, 1])
    assert not cfc.is_conflict_free_path(colored(p4, (1, 1, 2)), [0, 1, 2])
    assert cfc.is_conflict_free_path(colored(p4, (1, 2, 1)), [0, 1, 2, 3])


def test_is_conflict_free_path_rejects_non_paths():
    p4 = gen_path(4)
    c = colored(p4, (1, 2, 3))
    with pytest.raises(NotAPathError):
        cfc.is_conflict_free_path(c, [0, 2])
    with pytest.raises(NotAPathError):
        cfc.is_conflict_free_path(c, [0, 1, 0])


def test_verify_k3_monochromatic():
    k3 = cfc.build_graph(3, [(0, 1), (0, 2), (1, 2)])
    verdict = cfc.verify_conflict_free_connected(colored(k3, (1, 1, 1)))
    assert verdict.is_conflict_free_connected
    assert verdict.failing_pair is None
    assert len(verdict.witness_paths) == 3


def test_verify_c4_monochromatic_fails_on_opposite_pair():
    c4 = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    verdict = cfc.verify_conflict_free_connected(colored(c4, (1, 1, 1, 1)))
    assert not verdict.is_conflict_free_connected
    assert verdict.failing_pair == (0, 2)


def test_construct_two_coloring_c5():
    c5 = cfc.build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    coloring = cfc.construct_two_coloring(c5)
    assert coloring.palette_size == 2
    assert coloring.colors.count(2) == 1
    assert cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected


def test_construct_two_coloring_order_four_bridge_path():
    # two triangles joined by a bridge path on four vertices
    g = cfc.build_graph(
        8,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)],
    )
    profile = cfc.cut_edge_profile(g)
    assert profile.component_orders == (4,)
    coloring = cfc.construct_two_coloring(g)
    cmap = coloring.as_dict()
    assert (cmap[(2, 3)], cmap[(3, 4)], cmap[(4, 5)]) == (1, 2, 1)
    assert cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected


def test_construct_two_coloring_h33():
    g = gen_H(3, 3)
    coloring = cfc.construct_two_coloring(g)
    cmap = coloring.as_dict()
    # the two adjacent bridges form one order-3 component, colored 1, 2
    assert (cmap[(0, 1)], cmap[(1, 2)]) == (1, 2)
    # one matching edge per nontrivial block plus the second bridge
    assert sum(1 for c in coloring.colors if c == 2) == 4
    assert cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected


def test_construct_two_coloring_rejects():
    with pytest.raises(HypothesisViolatedError):
        cfc.construct_two_coloring(gen_path(6))
    k4 = cfc.build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(CompleteGraphError):
        cfc.construct_two_coloring(k4)


def test_normalize_coloring():
    p4 = gen_path(4)
    assert cfc.normalize_coloring(colored(p4, (5, 5, 9))).colors == (1, 1, 2)
    already = colored(p4, (1, 2, 1))
    assert cfc.normalize_coloring(already).colors == already.colors
    p5 = gen_path(5)
    assert cfc.normalize_coloring(colored(p5, (3, 1, 3, 2))).colors == (1, 2, 1, 3)


def test_coloring_format_round_trip():
    g = gen_H(3, 3)
    coloring = cfc.construct_two_coloring(g)
    assert parse_coloring(format_coloring(coloring), g).colors == coloring.colors
    edgeless = cfc.EdgeColoring(gen_path(1), ())
    assert parse_coloring(format_coloring(edgeless), edgeless.graph).colors == ()


def test_parse_coloring_rejects_repeated_edge_line():
    g = gen_path(3)
    with pytest.raises(EdgeListParseError) as exc:
        parse_coloring("coloring 2\n0 1 1\n1 2 2\n1 0 2\n", g)
    assert exc.value.line_number == 4


@pytest.mark.parametrize("header", ["coloring abc", "coloring -2", "coloring 3", "coloring 1"])
def test_parse_coloring_checks_header_count(header):
    g = gen_path(3)
    with pytest.raises(EdgeListParseError) as exc:
        parse_coloring(f"# two colors\n{header}\n0 1 1\n1 2 2\n", g)
    assert exc.value.line_number == 2


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_construct_two_coloring_from_given_decomposition(seed):
    g = gen_random_glued_blocks(seed, max_vertices=16)
    d = cfc.block_decomposition(g)
    assert cfc.construct_two_coloring(g, d) == cfc.construct_two_coloring(g)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_verdict_matches_independent_checker(seed, palette):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = gen_random_connected(n, rng.uniform(0.4, 1.0), seed=seed)
    colors = tuple(rng.randint(1, palette) for _ in range(g.edge_count))
    verdict = cfc.verify_conflict_free_connected(colored(g, colors))
    assert verdict.is_conflict_free_connected == coloring_is_conflict_free_connected(
        g, colors
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_verdict_invariant_under_color_permutation(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = gen_random_connected(n, rng.uniform(0.4, 1.0), seed=seed)
    colors = tuple(rng.randint(1, 3) for _ in range(g.edge_count))
    perm = [1, 2, 3]
    rng.shuffle(perm)
    permuted = tuple(perm[c - 1] for c in colors)
    a = cfc.verify_conflict_free_connected(colored(g, colors))
    b = cfc.verify_conflict_free_connected(colored(g, permuted))
    assert a.is_conflict_free_connected == b.is_conflict_free_connected
    assert a.failing_pair == b.failing_pair


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_refining_a_color_class_preserves_witnesses(seed):
    rng = random.Random(seed)
    g = gen_random_glued_blocks(seed, max_vertices=16)
    coloring = cfc.construct_two_coloring(g)
    verdict = cfc.verify_conflict_free_connected(coloring)
    assert verdict.is_conflict_free_connected
    # split color class 1 into colors 1 and 3 at random
    refined = tuple(
        (3 if c == 1 and rng.random() < 0.5 else c) for c in coloring.colors
    )
    refined_coloring = colored(g, refined)
    for path in verdict.witness_paths.values():
        assert cfc.is_conflict_free_path(refined_coloring, path)
    assert cfc.verify_conflict_free_connected(refined_coloring).is_conflict_free_connected


def _pairwise_scan(coloring):
    """Verdict and first failing pair by path search, one pair at a time."""
    g = coloring.graph
    cmap = coloring.as_dict()
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            if conflict_free_path_from_map(g, cmap, u, v) is None:
                return False, (u, v)
    return True, None


def test_verifier_matches_pairwise_path_search():
    rng = random.Random(2017)
    verified = 0
    for _ in range(1200):
        n = rng.randint(2, 9)
        g = gen_random_connected(n, rng.uniform(0.2, 1.0), seed=rng.randrange(10**6))
        t = rng.randint(1, 3)
        colors = tuple(rng.randint(1, t) for _ in range(g.edge_count))
        coloring = colored(g, colors)
        verdict = cfc.verify_conflict_free_connected(coloring)
        expected = _pairwise_scan(coloring)
        assert (verdict.is_conflict_free_connected, verdict.failing_pair) == expected
        if verdict.is_conflict_free_connected or n <= 7:
            # the recursive oracle is slow to refute dense colorings past n = 7
            assert verdict.is_conflict_free_connected == coloring_is_conflict_free_connected(
                g, colors
            )
        if verdict.is_conflict_free_connected:
            verified += 1
            assert len(verdict.witness_paths) == n * (n - 1) // 2
            for (u, v), path in verdict.witness_paths.items():
                assert (path[0], path[-1]) == (u, v)
                assert cfc.is_conflict_free_path(coloring, path)
        else:
            assert verdict.witness_paths is None
    # both verdicts occur often enough for the comparison to mean something
    assert 300 < verified < 900


def test_verifier_scales_to_a_chain_of_chorded_cycles():
    # The ladder on 2 x 30 vertices: a 60-cycle with 28 chords, a chain of 29
    # four-cycles with exponentially many paths between its ends.
    r = 30
    edges = [(i, i + 1) for i in range(r - 1)]
    edges += [(r + i, r + i + 1) for i in range(r - 1)]
    edges += [(i, r + i) for i in range(r)]
    g = cfc.build_graph(2 * r, edges)
    assert (g.vertex_count, g.edge_count) == (60, 88)
    coloring = cfc.construct_two_coloring(g)
    start = time.perf_counter()
    verdict = cfc.verify_conflict_free_connected(coloring)
    assert time.perf_counter() - start < 2.0
    assert verdict.is_conflict_free_connected
    path = verdict.witness_paths[(0, r - 1)]
    assert (path[0], path[-1]) == (0, r - 1)
    assert cfc.is_conflict_free_path(coloring, path)
    mono = cfc.verify_conflict_free_connected(colored(g, (1,) * g.edge_count))
    assert mono.failing_pair == (0, 2)
