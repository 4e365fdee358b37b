import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import cfcgraph as cfc
from cfcgraph import coloring as coloring_module
from cfcgraph.coloring import format_coloring, parse_coloring
from cfcgraph.errors import (
    CompleteGraphError,
    EdgeListParseError,
    EmptyGraphError,
    HypothesisViolatedError,
    NonPositiveError,
    NotAPathError,
    NotConnectedError,
)
from cfcgraph.families import gen_H, gen_path, gen_random_connected, gen_random_glued_blocks
from cfcgraph.graph import nonadjacent_pairs

from conftest import (
    bridge_subgraph_oracle,
    coloring_is_conflict_free_connected,
    conflict_free_path_from_map,
    relabelled,
)


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
    with pytest.raises(NotAPathError, match="^a path needs at least two vertices$"):
        cfc.is_conflict_free_path(c, [0])


def test_edge_coloring_rejects_a_wrong_length_and_a_color_below_1():
    p4 = gen_path(4)
    with pytest.raises(ValueError, match="^coloring must assign exactly one color per edge$"):
        cfc.EdgeColoring(p4, (1, 2))
    with pytest.raises(ValueError, match="^colors must be positive integers$"):
        cfc.EdgeColoring(p4, (1, 0, 2))


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


def test_verifier_rejects_empty_and_disconnected_graphs():
    with pytest.raises(EmptyGraphError):
        cfc.verify_conflict_free_connected(colored(cfc.build_graph(0, []), []))
    two_triangles = cfc.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    isolated_vertex = cfc.build_graph(4, [(0, 1), (1, 2)])
    for g, colors in (
        (two_triangles, [1, 2, 1, 2, 1, 2]),
        (isolated_vertex, [1, 2]),
        (cfc.build_graph(2, []), []),
    ):
        with pytest.raises(NotConnectedError, match="^verification requires a connected graph$"):
            cfc.verify_conflict_free_connected(colored(g, colors))
    verdict = cfc.verify_conflict_free_connected(colored(cfc.build_graph(1, []), []))
    assert verdict.is_conflict_free_connected and len(verdict.witness_paths) == 0


def test_witness_paths_membership_builds_no_path(monkeypatch):
    g = gen_random_glued_blocks(3, max_vertices=16)
    verdict = cfc.verify_conflict_free_connected(cfc.construct_two_coloring(g))
    assert verdict.is_conflict_free_connected

    def no_paths(*args):
        raise AssertionError("membership built a path")

    monkeypatch.setattr(coloring_module, "_two_disjoint_paths", no_paths)
    witness = verdict.witness_paths
    n = g.vertex_count
    assert any(not g.has_edge(u, v) for u in range(n) for v in range(u + 1, n))
    for u in range(n):
        for v in range(u + 1, n):
            assert (u, v) in witness
            assert (v, u) not in witness


def test_witness_paths_miss_every_key_but_an_ordered_pair():
    g = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    witness = cfc.verify_conflict_free_connected(colored(g, (1, 2, 1, 1))).witness_paths
    path = witness[(0, 2)]
    assert (path[0], path[-1]) == (0, 2) and witness.get((1, 2)) == (1, 2)
    for key in ((2, 0), (1, 1), (-1, 2), (3, 4), (0, 4), (0,), (0, 1, 2), [0, 2], "02", 0, None, (0.0, 2)):
        assert key not in witness
        with pytest.raises(KeyError):
            witness[key]
        assert witness.get(key) is None


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
    d = cfc.block_decomposition(g)
    assert d.component_orders == (4,)
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
    # one edge per nontrivial block plus the second bridge
    assert sum(1 for c in coloring.colors if c == 2) == 4
    assert cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected


def test_construct_two_coloring_rejects():
    with pytest.raises(HypothesisViolatedError):
        cfc.construct_two_coloring(gen_path(6))
    k4 = cfc.build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(CompleteGraphError):
        cfc.construct_two_coloring(k4)


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
    coloring = cfc.construct_two_coloring(g, d)
    # The block edges are read off the DFS arrays: no block is built.
    assert "blocks" not in vars(d)
    assert coloring == cfc.construct_two_coloring(g)


def test_construct_two_coloring_colors_the_oracle_middle_edge():
    """The one bridge colored 2 is the second edge of the order 3-4 bridge
    path, read from its least end, on glued-block graphs and relabellings."""
    rng = random.Random(11)
    seen = set()
    for seed in range(300):
        g = gen_random_glued_blocks(seed)
        for h in (g, relabelled(g, rng)):
            bridges, components = bridge_subgraph_oracle(h)
            orders = [len(c[0]) for c in components]
            if not orders or not 3 <= orders[-1] <= 4 or orders[:-1] != [2] * (len(orders) - 1):
                continue
            seq = components[-1][2]
            if seq is None:
                continue
            colored_bridges = [
                e for e, c in zip(h.edges, cfc.construct_two_coloring(h).colors)
                if c == 2 and e in bridges
            ]
            assert colored_bridges == [cfc.canonical_edge(seq[1], seq[2])], h
            seen.add((len(seq), seq[1] < seq[2]))
    # P4s, and P3s whose inner vertex is below and above its larger end.
    assert {(3, True), (3, False), (4, True), (4, False)} <= seen


def _constructed_color_2_edges(g):
    """g's constructed 2-coloring, checked by the verifier and by conftest's
    brute force, and its color-2 edges."""
    coloring = cfc.construct_two_coloring(g)
    assert cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected, g
    assert coloring_is_conflict_free_connected(g, coloring.colors), g
    return [e for e, c in zip(g.edges, coloring.colors) if c == 2]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_construct_two_coloring_on_friendship_graphs(k):
    """F_k, k triangles on hub 0: every color-2 edge meets the hub."""
    edges = [e for i in range(k) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))]
    twos = _constructed_color_2_edges(cfc.build_graph(2 * k + 1, edges))
    assert len(twos) == k and all(0 in e for e in twos)


def test_construct_two_coloring_matches_brute_force_on_random_graphs():
    """G(n, p) samples with at most 16 edges that satisfy the hypothesis,
    some of whose color-2 block edges share a vertex."""
    rng = random.Random(5)
    checked = shared = 0
    while checked < 1500:
        g = gen_random_connected(rng.randint(5, 12), rng.uniform(0.15, 0.45), rng.randrange(10**6))
        if g.edge_count > 16 or cfc.is_complete(g):
            continue
        d = cfc.block_decomposition(g)
        if not d.construction_applies:
            continue
        checked += 1
        block_edges = cfc.select_block_edges(d)
        assert set(block_edges) <= set(_constructed_color_2_edges(g))
        shared += len({x for e in block_edges for x in e}) < 2 * len(block_edges)
    assert shared


def test_construct_two_coloring_matches_brute_force_on_glued_blocks():
    checked = 0
    for seed in range(1000):
        g = gen_random_glued_blocks(seed, 16)
        if g.edge_count <= 16:
            _constructed_color_2_edges(g)
            checked += 1
    assert checked > 500


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


def _differential_colorings():
    """Random 2- and 3-colourings of random connected graphs on 2-14
    vertices, and the constructed colouring of every glued-block graph of
    seeds 0-199."""
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 14)
        g = gen_random_connected(n, rng.uniform(0.1, 0.9), seed=rng.randrange(10**6))
        t = rng.randint(2, 3)
        yield colored(g, [rng.randint(1, t) for _ in g.edges])
    for seed in range(200):
        yield cfc.construct_two_coloring(gen_random_glued_blocks(seed))


def test_bitset_verdict_matches_serve_pairs():
    """The verdict's bitset rows against ``_serve_pairs`` on every
    nonadjacent pair: the same failing pair, and on a "yes" each witness
    path runs through the pair's serving edge."""
    failing = holding = 0
    for coloring in _differential_colorings():
        g = coloring.graph
        n = g.vertex_count
        served, unserved = coloring_module._serve_pairs(g, coloring.colors, list(nonadjacent_pairs(g)))
        verdict = cfc.verify_conflict_free_connected(coloring)
        assert verdict.failing_pair == (unserved[0] if unserved else None), g
        assert verdict.is_conflict_free_connected == (not unserved)
        if n <= 7:
            assert verdict.is_conflict_free_connected == coloring_is_conflict_free_connected(
                g, coloring.colors
            )
        if unserved:
            failing += 1
            continue
        holding += 1
        for pair, (c, a, b) in served.items():
            path = verdict.witness_paths[pair]
            assert (path[0], path[-1]) == pair
            steps = {cfc.canonical_edge(x, y) for x, y in zip(path, path[1:])}
            assert (a, b) in steps and coloring.as_dict()[a, b] == c
            assert cfc.is_conflict_free_path(coloring, path)
    assert failing > 30 and holding > 200


@pytest.mark.parametrize("seed", range(30))
def test_adjacency_without_matches_filtering_the_edges(seed):
    # For every color class of a random 1-4 coloring: g's adjacency lists
    # without the class's edges, in ascending order.
    rng = random.Random(seed)
    g = gen_random_connected(rng.randint(2, 30), rng.uniform(0.1, 0.9), seed)
    palette = rng.randint(1, 4)
    colors = [rng.randint(1, palette) for _ in g.edges]
    for c in set(colors):
        expected = [[] for _ in range(g.vertex_count)]
        for (x, y), k in zip(g.edges, colors):
            if k != c:
                expected[x].append(y)
                expected[y].append(x)
        removed = [e for e, k in zip(g.edges, colors) if k == c]
        adj = coloring_module._adjacency_without(g, removed)
        assert list(map(list, adj)) == [sorted(a) for a in expected]
        # The ends of removed edges get lists of their own; the rest share g's tuples.
        ends = {x for e in removed for x in e}
        assert all((type(a) is list) == (x in ends) for x, a in enumerate(adj))


def test_adjacency_without_a_one_color_star():
    # K1,300 in one color: removing the class leaves no edge, and removing
    # the odd leaves' edges keeps the even leaves in ascending order.
    g = cfc.build_graph(301, [(0, leaf) for leaf in range(1, 301)])
    assert coloring_module._adjacency_without(g, g.edges) == [[] for _ in range(301)]
    adj = coloring_module._adjacency_without(g, g.edges[::2])
    assert adj[0] == list(range(2, 301, 2))
    assert adj[1:] == [[] if leaf % 2 else (0,) for leaf in range(1, 301)]


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
