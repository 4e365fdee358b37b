"""Byte-level pins of the structural pass and the verifier's per-edge rule.

Both digests were recorded before ``block_decomposition`` and
``coloring._serve_pairs`` came to share one lowpoint DFS.  The reference
tests elsewhere compare sets or sorted views; these also pin the order of the
blocks and of each block's edges and vertices, C(G)'s component orders, and
which edge serves each pair.  ``DECOMPOSITION_DIGEST`` was re-pinned when
C(G) came to be read off the DFS arrays: its value is the one the record
below gave with the earlier, separate walk of C(G).
``RANDOM_SERVE_PAIRS_DIGEST`` covers the random colourings alone, so that a
change to ``construct_two_coloring`` that moves ``SERVE_PAIRS_DIGEST`` is seen
to leave the verifier as it was.  ``SERVE_PAIRS_DIGEST`` was re-pinned when
the construction came to colour the least edge of each nontrivial block, not
a matching: the random-colouring digest, recorded first, did not move.
"""
import functools
import hashlib
import random

from cfcgraph import block_decomposition, construct_two_coloring, is_complete
from cfcgraph.coloring import _serve_pairs
from cfcgraph.families import FAMILIES, gen_random_connected, gen_random_glued_blocks
from cfcgraph.graph import nonadjacent_pairs

# Two parameter sets per extremal family (remark6-G takes none).
EXTREMAL_PARAMS = {
    "H": [(3, 3), (5, 4)],
    "R": [(3,), (5,)],
    "S": [(3,), (4,)],
    "D": [(5,), (6,)],
    "remark4-H": [(5,), (9,)],
    "remark4-G": [(15,), (25,)],
    "remark6-H": [(12,), (20,)],
    "remark6-G": [()],
    "remark7-G": [(11,), (17,)],
}
# Large graphs: the verifier sees a fixed sample of their nonadjacent pairs.
LARGE = [("path", (2000,)), ("H", (200, 3))]
LARGE_PAIR_SAMPLE = 400

DECOMPOSITION_DIGEST = "acea18b31c0347adb939f94cbf8c8a63a6033de11e6254950a92af2f199b31cb"
RANDOM_SERVE_PAIRS_DIGEST = "114070e8af27494de616129167f14482c341876d8730bf014e5356d3d37fb66c"
SERVE_PAIRS_DIGEST = "fd7afe1e4b2073673f90fc537fa66648d2d7bfb57b4d785f16de0eb75f1ae91d"


@functools.lru_cache(maxsize=None)
def _corpus():
    """(graph, pairs or None for all nonadjacent pairs), in a fixed order."""
    return tuple(_generate_corpus(random.Random(20261018)))


def _generate_corpus(rng):
    for _ in range(300):
        n = rng.randint(2, 14)
        g = gen_random_connected(n, rng.uniform(0.1, 0.8), seed=rng.randrange(10**6))
        yield g, None
    for seed in range(100):
        yield gen_random_glued_blocks(seed), None
    for family, grid in sorted(EXTREMAL_PARAMS.items()):
        for params in grid:
            yield FAMILIES[family](*params), None
    for family, params in LARGE:
        g = FAMILIES[family](*params)
        yield g, sorted(rng.sample(list(nonadjacent_pairs(g)), LARGE_PAIR_SAMPLE))


def _decomposition_record(g):
    d = block_decomposition(g)
    return (
        [(b, tuple(sorted({x for e in b for x in e}))) for b in d.blocks],
        sorted(d.cut_vertices),
        d.is_linear_forest,
        d.component_orders,
        d.max_component_edges,
    )


def test_block_decomposition_digest():
    digest = hashlib.sha256()
    for g, _ in _corpus():
        digest.update(repr(_decomposition_record(g)).encode())
    assert digest.hexdigest() == DECOMPOSITION_DIGEST


def _serve_pairs_digest(constructed):
    """Digest of ``_serve_pairs`` on a random 2- and 3-colouring of every
    graph, so that verdicts fail as well as hold, and, when ``constructed``,
    on the constructed 2-colouring wherever it applies."""
    rng = random.Random(7)
    digest = hashlib.sha256()
    failing = holding = 0
    for g, pairs in _corpus():
        if pairs is None:
            pairs = list(nonadjacent_pairs(g))
        colorings = [[rng.randint(1, t) for _ in g.edges] for t in (2, 3)]
        if (
            constructed
            and not is_complete(g)
            and block_decomposition(g).construction_applies
        ):
            colorings.append(construct_two_coloring(g).colors)
        for colors in colorings:
            served, unserved = _serve_pairs(g, colors, list(pairs))
            failing += bool(unserved)
            holding += not unserved
            digest.update(repr((sorted(served.items()), unserved)).encode())
    assert failing and holding
    return digest.hexdigest()


def test_serve_pairs_digest():
    assert _serve_pairs_digest(constructed=True) == SERVE_PAIRS_DIGEST


def test_serve_pairs_digest_on_random_colourings():
    """The verifier alone: a change to the construction leaves this one."""
    assert _serve_pairs_digest(constructed=False) == RANDOM_SERVE_PAIRS_DIGEST
