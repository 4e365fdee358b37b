import hashlib

import pytest

import cfcgraph as cfc
from cfcgraph.errors import ParamOutOfRangeError, RetriesExhaustedError
from cfcgraph import families as fam


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_h_family_metrics(k, t):
    g = fam.gen_H(k, t)
    n = g.vertex_count
    assert n == k * t
    assert k * cfc.min_degree(g) == n - k
    assert len(cfc.block_decomposition(g).cut_edges) == k - 1


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_r_family_metrics(k):
    g = fam.gen_R(k)
    n = g.vertex_count
    assert n == k * k - 1
    assert k * cfc.min_degree(g) == n - k + 1
    assert len(cfc.block_decomposition(g).cut_edges) == k - 1


def test_r_family_bridge_components():
    # k >= 4: the matching makes all bridge components single edges
    d = cfc.block_decomposition(fam.gen_R(5))
    assert all(o == 2 for o in d.component_orders)
    assert len(d.component_orders) == 4


@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_s_family_metrics(t):
    g = fam.gen_S(t)
    n = g.vertex_count
    assert n == 5 * t
    assert 5 * cfc.min_degree(g) == n - 5
    d = cfc.block_decomposition(g)
    assert d.component_orders == (3, 3)
    assert d.is_linear_forest


@pytest.mark.parametrize("k", [5, 6])
def test_d_family_metrics(k):
    g = fam.gen_D(k)
    assert g.vertex_count == k * k + k - 1
    assert len(cfc.block_decomposition(g).cut_edges) == k - 1
    assert cfc.min_nonadjacent_degree_sum(g) >= 2 * k


def test_h34_has_cfc_two():
    g = fam.gen_H(3, 4)
    d = cfc.block_decomposition(g)
    # the spine's two adjacent bridges make a single order-3 component
    assert d.component_orders == (3,)
    coloring = cfc.construct_two_coloring(g)
    assert cfc.verify_conflict_free_connected(coloring).is_conflict_free_connected


def test_remark4_h():
    g = fam.gen_remark4_H(5)
    assert (g.vertex_count, g.edge_count) == (9, 10)
    assert cfc.min_degree(g) == 2
    d = cfc.block_decomposition(g)
    # the connecting path's bridges form one component too long for cfc = 2
    assert d.max_component_edges == 4


def test_remark4_g():
    g = fam.gen_remark4_G(15)
    assert 5 * cfc.min_degree(g) == g.vertex_count - 5
    assert cfc.cfc_bracket(g)[0] == 3


def test_remark6_h():
    g = fam.gen_remark6_H(16)
    assert 4 * cfc.min_degree(g) == g.vertex_count - 4
    assert not cfc.block_decomposition(g).is_linear_forest


def test_remark6_g():
    g = fam.gen_remark6_G()
    n = g.vertex_count
    assert n == 15
    assert 4 * cfc.min_degree(g) >= n - 3
    assert not cfc.block_decomposition(g).is_linear_forest


def test_remark7_g():
    g = fam.gen_remark7_G(11)
    s = cfc.min_nonadjacent_degree_sum(g)
    assert 5 * s >= 2 * g.vertex_count - 9
    d = cfc.block_decomposition(g)
    assert d.component_orders == (5,)
    assert d.max_component_edges == 4
    # middle path vertices keep degree 2
    assert len(g.adjacency[1]) == 2
    assert len(g.adjacency[2]) == 2


def test_param_validation():
    with pytest.raises(ParamOutOfRangeError):
        fam.gen_H(2, 3)
    with pytest.raises(ParamOutOfRangeError):
        fam.gen_S(2)
    with pytest.raises(ParamOutOfRangeError):
        fam.gen_D(4)
    with pytest.raises(ParamOutOfRangeError):
        fam.gen_remark4_G(12)
    with pytest.raises(ParamOutOfRangeError):
        fam.gen_remark7_G(35)
    for max_vertices in (3, 0, -5):
        with pytest.raises(ParamOutOfRangeError, match="max_vertices >= 4"):
            fam.gen_random_glued_blocks(0, max_vertices)


def test_generators_are_deterministic():
    assert fam.gen_H(4, 5) == fam.gen_H(4, 5)
    assert fam.gen_S(4) == fam.gen_S(4)
    assert fam.gen_random_connected(8, 0.5, seed=42) == fam.gen_random_connected(
        8, 0.5, seed=42
    )


def test_random_connected_full_probability_is_complete():
    assert cfc.is_complete(fam.gen_random_connected(6, 1.0, seed=1))


def test_random_connected_exhausts_retries_when_too_sparse(monkeypatch):
    monkeypatch.setattr(fam, "CONNECTED_RETRIES", 5)
    with pytest.raises(RetriesExhaustedError, match="in 5 tries$"):
        fam.gen_random_connected(30, 0.01, seed=0)


# A family on each side of a size cap of 20, in place of MAX_VERTEX_COUNT:
# (family, largest params that fit, params one step past the cap).
SIZE_CAP_CASES = [
    ("path", (20,), (21,)),
    ("cycle", (20,), (21,)),
    ("complete", (6,), (7,)),  # 15 and 21 edges
    ("H", (3, 4), (3, 5)),  # 20 and 32 edges
    ("R", (3,), (4,)),  # order 8 and 15, 9 and 24 edges
    ("S", (3,), (4,)),  # 19 and 34 edges
    ("remark4-H", (15,), (16,)),  # 20 and 21 edges, of which 15 and 16 on the path
    ("random", (6, 50, 0), (7, 50, 0)),  # 15 and 21 possible edges
]


@pytest.mark.parametrize("family,fits,too_large", SIZE_CAP_CASES, ids=[c[0] for c in SIZE_CAP_CASES])
def test_generators_refuse_graphs_past_the_size_cap(family, fits, too_large, monkeypatch):
    monkeypatch.setattr(fam, "MAX_VERTEX_COUNT", 20)
    g = fam.FAMILIES[family](*fits)
    assert max(g.vertex_count, g.edge_count) <= 20
    with pytest.raises(ParamOutOfRangeError, match="is above 20$"):
        fam.FAMILIES[family](*too_large)


def test_degree_filtered_samples_respect_cut_edge_bound():
    # with 3*delta >= n - 2 every sample has at most one cut edge
    found = 0
    for seed in range(300):
        g = fam.gen_random_connected(9, 0.6, seed=seed)
        if 3 * cfc.min_degree(g) >= g.vertex_count - 2:
            found += 1
            assert len(cfc.block_decomposition(g).cut_edges) <= 1
    assert found > 0


# (max_vertices, seeds): the default, and the small caps at which the lone
# block, and the cycle that replaces a complete one, must keep to the cap.
GLUED_HYPOTHESIS_CASES = [(40, range(50))] + [(mv, range(500)) for mv in range(4, 11)]


@pytest.mark.parametrize(
    "max_vertices,seeds", GLUED_HYPOTHESIS_CASES, ids=[str(c[0]) for c in GLUED_HYPOTHESIS_CASES]
)
def test_glued_blocks_satisfy_two_coloring_hypothesis(max_vertices, seeds):
    for seed in seeds:
        g = fam.gen_random_glued_blocks(seed, max_vertices)
        assert g.vertex_count <= max_vertices
        assert cfc.is_connected(g)
        assert not cfc.is_complete(g)
        assert cfc.block_decomposition(g).construction_applies


# gen_random_connected over a grid of (n, p), seeds 0-49: one SHA-256 over
# repr((n, p, seed, vertex_count, edges)) in grid order, recorded before G(n, p)
# built its Graph from the drawn pairs directly.  It pins every draw.
RANDOM_CONNECTED_GRID = [(n, p) for n in range(2, 41) for p in (0.25, 0.5, 0.9)]
RANDOM_CONNECTED_DIGEST = "8f9e9a9b6bfca6ea86c6d12d065cdd08ccbe90165a1007bda919a64489792bd8"


def test_random_connected_keeps_its_samples():
    digest = hashlib.sha256()
    for n, p in RANDOM_CONNECTED_GRID:
        for seed in range(50):
            g = fam.gen_random_connected(n, p, seed)
            digest.update(repr((n, p, seed, g.vertex_count, g.edges)).encode())
    assert digest.hexdigest() == RANDOM_CONNECTED_DIGEST


# Every extremal generator's exact vertex numbering over a parameter grid,
# one SHA-256 per family over repr((params, vertex_count, edges)) in grid
# order, recorded before the generators shared one clique-gluing builder
# (path, cycle and complete: before they handed their edges to Graph directly).
# The metric tests above would pass a renumbered graph; these would not.
EXTREMAL_GRIDS = {
    "H": [(k, t) for k in range(3, 12) for t in range(3, 12)],
    "R": [(k,) for k in range(3, 14)],
    "S": [(t,) for t in range(3, 20)],
    "D": [(k,) for k in range(5, 14)],
    "remark4-H": [(t,) for t in range(5, 30)],
    "remark4-G": [(n,) for n in range(15, 76, 5)],
    "remark6-H": [(n,) for n in range(12, 77, 4)],
    "remark6-G": [()],
    "remark7-G": [(n,) for n in range(11, 33, 3)],
    "path": [(n,) for n in range(1, 41)],
    "cycle": [(n,) for n in range(3, 41)],
    "complete": [(n,) for n in range(1, 21)],
}
EXTREMAL_DIGESTS = {
    "H": "40d7adaecaa77e6d308390651bb7835808be7f44c577525f66682e7ae1dc85be",
    "R": "ce3b128e03bb2330835f9176af2a8c80559a86f961a3d3f0e522e1ba33b49783",
    "S": "cbfeb78ce12be77caaf445e6d889136c157e72047446c8f45ec627c44d7132d4",
    "D": "aab260ac53a437644588674b78ecdf9a8026773a68c58c48b11239cbff22e724",
    "remark4-H": "39cf945813beeb7a89abb1e3f4150e0101a0f3f41f880f95a11f34111915ab21",
    "remark4-G": "13df28077e85d40287464840176869bcac7ddd0e7ac0925cbae8f6d19418fbfe",
    "remark6-H": "a5124c5ed078a572b7e34c52385cbccc5702457c5652887a216f2a9f2051a23d",
    "remark6-G": "4c6908f9fe6f278ad146bc4675617b6ded73ba621c0dda6bfa328f93d1e336b1",
    "remark7-G": "081c638f38cd612517911b4e7367fd315b45b5c00fd38e794be26e0d4caefe4a",
    "path": "60433e5f5eadd8ea323ba8c4fef3308bc2971b96c30404756282a81b275a2470",
    "cycle": "c6d60c553b369475109838eb5b50d3c4ea56f9d28c99729cd5182e344c2d4655",
    "complete": "489393efb88a5c964dcd2b2df5344264dd59d3ea8f3164569b3ec430e2aa904d",
}


@pytest.mark.parametrize("family", sorted(EXTREMAL_GRIDS))
def test_extremal_generators_keep_their_edge_lists(family):
    digest = hashlib.sha256()
    for params in EXTREMAL_GRIDS[family]:
        g = fam.FAMILIES[family](*params)
        digest.update(repr((params, g.vertex_count, g.edges)).encode())
    assert digest.hexdigest() == EXTREMAL_DIGESTS[family]


# gen_random_glued_blocks at the seeds and sizes the tests and the benchmark
# draw: one SHA-256 over repr((seed, max_vertices, vertex_count, edges)),
# recorded before the generator stopped building a Graph per block.
GLUED_BLOCKS_GRID = [(seed, 40) for seed in range(2000)] + [(seed, 16) for seed in range(500)]
GLUED_BLOCKS_DIGEST = "3c06e58c92429bb2c76ea9cad513232359d8693b5307318a7a19b7f60f505eb5"


def test_glued_blocks_keep_their_samples():
    digest = hashlib.sha256()
    for seed, max_vertices in GLUED_BLOCKS_GRID:
        g = fam.gen_random_glued_blocks(seed, max_vertices)
        digest.update(repr((seed, max_vertices, g.vertex_count, g.edges)).encode())
    assert digest.hexdigest() == GLUED_BLOCKS_DIGEST
