import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import cfcgraph as cfc
from cfcgraph.errors import EmptyGraphError, NotConnectedError
from cfcgraph.families import (
    gen_cycle,
    gen_H,
    gen_path,
    gen_R,
    gen_random_connected,
    gen_random_glued_blocks,
    gen_remark4_H,
    gen_S,
)

from conftest import (
    block_oracle,
    bridge_oracle,
    bridge_subgraph_oracle,
    relabelled,
    sparse_connected,
)
from stdlib_equivalence import blocks_agree, connected_graph, profile_agrees


def triangle():
    return cfc.build_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_find_cut_edges_examples():
    assert cfc.block_decomposition(triangle()).cut_edges == frozenset()
    p4 = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert cfc.block_decomposition(p4).cut_edges == frozenset({(0, 1), (1, 2), (2, 3)})
    # the two path edges of the k=3, t=3 clique chain
    assert cfc.block_decomposition(gen_H(3, 3)).cut_edges == frozenset({(0, 1), (1, 2)})


def test_find_cut_edges_requires_connected():
    g = cfc.build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        cfc.block_decomposition(g)


def test_count_cut_edges():
    k5 = cfc.build_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert len(cfc.block_decomposition(k5).cut_edges) == 0
    from cfcgraph.families import gen_D

    assert len(cfc.block_decomposition(gen_D(5)).cut_edges) == 4
    assert len(cfc.block_decomposition(gen_R(3)).cut_edges) == 2


def test_block_decomposition_triangle():
    d = cfc.block_decomposition(triangle())
    assert len(d.blocks) == 1
    assert d.cut_vertices == frozenset()
    assert d.cut_edges == frozenset()


def test_block_decomposition_two_triangles_sharing_a_vertex():
    g = cfc.build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    d = cfc.block_decomposition(g)
    assert len(d.blocks) == 2
    assert d.cut_vertices == frozenset({2})


def test_block_decomposition_r3_witness():
    # C4 - bridge - middle vertex - bridge - K3: two nontrivial blocks,
    # two trivial ones, cut vertices at 3, 4, 5.
    d = cfc.block_decomposition(gen_R(3))
    assert sum(1 for b in d.blocks if len(b) > 1) == 2
    assert sum(1 for b in d.blocks if len(b) == 1) == 2
    assert d.cut_vertices == frozenset({3, 4, 5})
    assert d.cut_edges == frozenset({(3, 4), (4, 5)})


def test_block_decomposition_of_one_vertex_and_empty_graphs():
    d = cfc.block_decomposition(cfc.build_graph(1, []))
    assert d.blocks == ()
    assert d.cut_vertices == frozenset() and d.cut_edges == frozenset()
    with pytest.raises(EmptyGraphError):
        cfc.block_decomposition(cfc.build_graph(0, []))


@pytest.mark.parametrize(
    "n,edges,block_count,cut_vertices",
    [
        (1, [], 0, set()),
        (2, [(0, 1)], 1, set()),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 4, {0}),  # a star
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], 2, {0}),  # two triangles at 0
        (5, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 4)], 3, {0, 1}),  # 0 joins two bridges
    ],
)
def test_blocks_built_on_first_read(n, edges, block_count, cut_vertices):
    g = cfc.build_graph(n, edges)
    assert blocks_agree(g)
    d = cfc.block_decomposition(g)
    assert d.block_count == block_count and d.cut_vertices == cut_vertices


def test_longest_cut_path_built_on_first_read():
    # A caterpillar (path of 8 edges, a leaf on its middle vertex), a spider
    # of three 3-edge legs rooted at its centre, and a star: C(G) is the
    # whole tree, not a linear forest.  Cycle 5 has no cut edge.
    for g, longest in (
        (cfc.build_graph(10, [(v, v + 1) for v in range(8)] + [(4, 9)]), 8),
        (
            cfc.build_graph(
                10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
            ),
            6,
        ),
        (cfc.build_graph(4, [(0, 1), (0, 2), (0, 3)]), 2),
        (gen_cycle(5), 0),
    ):
        d = cfc.block_decomposition(g)
        assert "longest_cut_path" not in vars(d)
        assert d.longest_cut_path == longest and "longest_cut_path" in vars(d)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blocks_built_on_first_read_match_the_oracle(rng):
    g = connected_graph(rng)
    assert blocks_agree(g), g


def test_cut_edge_profile_examples():
    c4 = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    d = cfc.block_decomposition(c4)
    assert d.cut_edges == frozenset() and d.component_orders == ()
    assert d.is_linear_forest
    assert d.max_component_edges == 0

    s = cfc.block_decomposition(gen_S(3))
    assert s.component_orders == (3, 3)
    assert s.cut_edges == frozenset({(0, 1), (1, 2), (3, 4), (4, 5)})
    assert s.is_linear_forest and s.max_component_edges == 2

    star = cfc.build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not cfc.block_decomposition(star).is_linear_forest


def _least_block_edges_by_oracle(g):
    """The least edge of each nontrivial block of ``block_oracle``, sorted."""
    return tuple(sorted(b[0] for b in block_oracle(g) if len(b) > 1))


def test_select_block_edges_single_block():
    c5 = cfc.build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert cfc.select_block_edges(cfc.block_decomposition(c5)) == ((0, 1),)


def test_select_block_edges_may_share_a_cut_vertex():
    # Two triangles sharing vertex 0: each block's least edge meets it.
    g = cfc.build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    d = cfc.block_decomposition(g)
    assert d.cut_vertices == frozenset({0})
    assert cfc.select_block_edges(d) == ((0, 1), (0, 3)) == _least_block_edges_by_oracle(g)


@pytest.mark.parametrize("g,expected", [(gen_H(3, 3), 3), (gen_R(4), 4)])
def test_select_block_edges_families(g, expected):
    edges = cfc.select_block_edges(cfc.block_decomposition(g))
    assert len(edges) == expected
    assert edges == _least_block_edges_by_oracle(g)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_bridges_match_remove_and_test_oracle(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 8)
    g = gen_random_connected(n, rng.uniform(0.3, 0.9), seed=seed)
    assert cfc.block_decomposition(g).cut_edges == bridge_oracle(g)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_blocks_and_cut_vertices_match_networkx(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(3, 9)
    g = gen_random_connected(n, rng.uniform(0.3, 0.9), seed=seed)
    d = cfc.block_decomposition(g)
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(range(g.vertex_count))
    expected_blocks = {
        frozenset(cfc.canonical_edge(a, b) for a, b in c)
        for c in nx.biconnected_component_edges(h)
    }
    assert {frozenset(b) for b in d.blocks} == expected_blocks
    assert d.cut_vertices == frozenset(nx.articulation_points(h))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_decomposition_invariants(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 9)
    g = gen_random_connected(n, rng.uniform(0.25, 0.9), seed=seed)
    d = cfc.block_decomposition(g)
    # every edge in exactly one block
    seen = [e for b in d.blocks for e in b]
    assert sorted(seen) == list(g.edges)
    assert len(seen) == len(set(seen))
    # trivial blocks are exactly the cut edges
    assert sum(1 for b in d.blocks if len(b) == 1) == len(d.cut_edges)
    assert d.cut_edges == bridge_oracle(g)
    # the selection is the least edge of each nontrivial block
    nontrivial = [b for b in d.blocks if len(b) > 1]
    assert cfc.select_block_edges(d) == tuple(sorted(b[0] for b in nontrivial))
    # linear forest iff max degree <= 2 within the bridge subgraph
    degree_in_c = {}
    for u, v in d.cut_edges:
        degree_in_c[u] = degree_in_c.get(u, 0) + 1
        degree_in_c[v] = degree_in_c.get(v, 0) + 1
    assert d.is_linear_forest == all(x <= 2 for x in degree_in_c.values())
    assert d.max_degree == max(degree_in_c.values(), default=0)
    assert list(d.component_orders) == sorted(d.component_orders)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_single_pass_profile_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    g = gen_random_connected(n, rng.uniform(0.15, 0.9), seed=seed)
    assert profile_agrees(g), g


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_single_pass_profile_matches_oracle_on_glued_blocks(seed):
    g = gen_random_glued_blocks(seed)
    assert profile_agrees(g), g


def test_profile_of_one_vertex_graph_is_empty():
    d = cfc.block_decomposition(cfc.build_graph(1, []))
    assert d.cut_edges == frozenset() and d.component_orders == ()
    assert d.max_component_edges == 0 and d.lemma_2_2_shape
    assert d.construction_applies
    assert d.max_degree == 0


def test_lemma_2_2_shape():
    # S's two P3s of bridges: the shape, but not the construction's hypothesis
    s3 = cfc.block_decomposition(gen_S(3))
    assert s3.component_orders == (3, 3) and s3.lemma_2_2_shape
    assert not s3.construction_applies
    star = cfc.build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not cfc.block_decomposition(star).lemma_2_2_shape
    # a linear forest, but with a bridge run of four edges
    run = cfc.block_decomposition(gen_remark4_H(5))
    assert run.is_linear_forest and run.max_component_edges == 4
    assert not run.lemma_2_2_shape and not run.construction_applies
    # a triangle with two pendant bridges and a pendant P4 of bridges: both
    g = cfc.build_graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (5, 6), (6, 7)])
    d = cfc.block_decomposition(g)
    assert d.component_orders == (2, 2, 4) and d.construction_applies


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_construction_applies_matches_the_paper_on_the_oracle(seed):
    # The construction's hypothesis as the paper states it, on the oracle's
    # C(G): a linear forest whose components are single edges, except at
    # most one of two or three edges.
    rng = random.Random(seed)
    for g in (connected_graph(rng), sparse_connected(rng, 14, 0.1)):
        _, components = bridge_subgraph_oracle(g)
        sizes = [len(edges) for _, edges, _ in components]
        expected = (
            all(seq is not None for _, _, seq in components)
            and sum(k > 1 for k in sizes) <= 1
            and max(sizes, default=0) <= 3
        )
        assert cfc.block_decomposition(g).construction_applies == expected, g


def test_cut_edge_profile_is_linear_in_bridge_run_length():
    g = gen_path(20000)
    start = time.perf_counter()
    d = cfc.block_decomposition(g)
    elapsed = time.perf_counter() - start
    assert d.component_orders == (20000,)
    assert elapsed < 2.0, f"{elapsed:.2f} s for a 19999-bridge path"


def _assert_decomposition_matches_reference(g):
    """The whole decomposition against networkx blocks and cut vertices and
    the remove-and-test bridges, in the documented order: blocks sorted by
    their edge tuples."""
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(range(g.vertex_count))
    blocks = sorted(
        tuple(sorted(cfc.canonical_edge(a, b) for a, b in c))
        for c in nx.biconnected_component_edges(h)
    )
    vertices = [tuple(sorted({x for e in edges for x in e})) for edges in blocks]
    cut = frozenset(nx.articulation_points(h))
    d = cfc.block_decomposition(g)
    assert list(d.blocks) == blocks
    assert [tuple(sorted({x for e in b for x in e})) for b in d.blocks] == vertices
    assert d.cut_vertices == cut
    assert d.cut_edges == bridge_oracle(g)
    assert profile_agrees(g)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_decomposition_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    _assert_decomposition_matches_reference(
        gen_random_connected(n, rng.uniform(0.15, 0.9), seed=seed)
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_decomposition_matches_reference_on_glued_blocks(seed):
    _assert_decomposition_matches_reference(gen_random_glued_blocks(seed))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_structural_pass_rejects_disconnected_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    p = rng.uniform(0.1, 0.6)
    g = cfc.build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )
    h = nx.Graph(list(g.edges))
    h.add_nodes_from(range(n))
    if nx.is_connected(h):
        return
    with pytest.raises(NotConnectedError):
        cfc.block_decomposition(g)


def test_block_edges_are_the_oracle_blocks_least_edges():
    rng = random.Random(7)
    graphs = [
        gen_random_connected(rng.randint(2, 14), rng.uniform(0.1, 0.7), seed=rng.randrange(10**6))
        for _ in range(150)
    ]
    graphs += [relabelled(gen_random_glued_blocks(seed), rng) for seed in range(150)]
    shared = 0
    for g in graphs:
        edges = cfc.select_block_edges(cfc.block_decomposition(g))
        assert edges == _least_block_edges_by_oracle(g), g
        shared += len({x for e in edges for x in e}) < 2 * len(edges)
    # some selections are not matchings
    assert shared
