"""Byte-level pins of the solver's searches.

The digests and the per-graph step counts were recorded before the sweep
learned to jump past the colorings a failing pair already refutes.  The
digests pin what a jump may not change: ``exact_cfc``'s value, witness and
``colorings_examined``, and ``exists_two_coloring``'s answer and
``colorings_examined``.  ``verification_steps`` counts the pair checks made,
which a jump only removes, so each graph's count may fall but not rise.

``VALUE_WITNESS_DIGEST`` pins ``exact_cfc``'s value and witness alone; it
was recorded before ``cfc_bracket``'s lower bound rose to h(G), the
bridge-forest bound.  A higher lower bound starts the search at a higher t
and skips sweeps that find nothing, so ``colorings_examined`` falls while
the value and the witness may not change.  ``EXACT_DIGEST`` was re-pinned
then: five graphs whose C(G) needs more colors than Lemma 2.2's bound
(graphs 68, 126 and 187, trees with a vertex of degree 4, 4 and 5, and
paths 9 and 10) start one or two t higher.
"""
import functools
import hashlib
import random

from cfcgraph import exact_cfc, exists_two_coloring, is_complete
from cfcgraph.families import (
    gen_H,
    gen_path,
    gen_random_connected,
    gen_random_glued_blocks,
    gen_remark4_H,
)

VALUE_WITNESS_DIGEST = "4a20663aaf81d73457a1cd0042ed46c8acf5c35eec663951ce422f3c1c9beed7"
EXACT_DIGEST = "47fe077e6b2fb77a46d36b6de1516475e786f704e1a3db572b7a2b174117758b"
TWO_DIGEST = "081ea69e5a504c881a9813c9624a74f6764fd2e096b8b7918c9c40aaf53a5924"
# Per graph of the corpus, in order; exists_two_coloring skips complete graphs.
EXACT_STEPS = [
    2, 8, 24, 27, 7, 2, 34, 0, 14, 2, 0, 0, 26, 7, 7, 8, 2, 91, 5, 22, 6, 9, 6, 18,
    7, 13, 18, 0, 2, 8, 2, 2, 10, 3, 4, 0, 3, 12, 0, 2, 0, 7, 9, 3, 2, 13, 15, 2, 7,
    20, 3, 0, 2, 84, 2, 11, 6, 6, 20, 5, 6, 2, 0, 24, 19, 0, 0, 15, 3315, 2, 27, 9,
    40, 8, 23, 5, 3, 2, 4, 0, 7, 0, 10, 3, 19, 4, 7, 2, 0, 0, 0, 2, 6, 3, 4, 7, 3,
    0, 0, 7, 0, 8, 2, 40, 15, 2, 3, 0, 17, 4, 286, 8, 58, 10, 2, 0, 2, 17, 21, 0, 0,
    0, 9, 5, 0, 6, 110, 0, 16, 2, 18, 12, 2, 3, 0, 7, 9, 9, 2, 36, 7, 2, 3, 5, 4,
    13, 20, 3, 11, 3, 0, 0, 21, 11, 7, 17, 11, 0, 2, 6, 3, 3, 3, 10, 0, 0, 16, 0, 2,
    11, 0, 2, 33, 9, 0, 2, 0, 10, 25, 0, 28, 0, 4, 9, 0, 3, 2, 46594, 4, 3, 21, 0,
    5, 5, 25, 2, 0, 9, 7, 0, 1169, 10, 234, 185, 5, 114, 419, 2, 78, 610, 50, 5, 15,
    3, 2422, 6, 15, 6, 3, 3, 6, 184, 6, 10, 3, 15, 6, 1088, 99, 351, 10, 46, 9, 5,
    2142, 438, 3, 84, 81, 10, 223, 661, 317, 15, 15, 193, 2, 10, 8, 6, 82, 69, 6, 2,
    5, 25, 53, 141, 353, 7647, 25942, 832, 166, 32895,
]
TWO_STEPS = [
    2, 8, 24, 27, 7, 2, 22, 14, 2, 26, 7, 7, 8, 2, 312, 5, 15, 6, 9, 6, 18, 7, 13,
    18, 2, 8, 2, 2, 10, 3, 4, 3, 12, 2, 7, 9, 3, 2, 13, 15, 2, 7, 24, 3, 2, 39, 2,
    7, 6, 6, 20, 5, 6, 2, 24, 19, 15, 107, 2, 27, 9, 40, 8, 23, 5, 3, 2, 4, 7, 10,
    3, 19, 4, 7, 2, 2, 6, 3, 4, 7, 3, 7, 8, 2, 40, 15, 2, 3, 17, 4, 286, 8, 58, 10,
    2, 2, 17, 21, 9, 5, 6, 14, 16, 2, 18, 12, 2, 3, 7, 9, 9, 2, 36, 7, 2, 3, 5, 4,
    13, 20, 3, 11, 3, 21, 11, 7, 17, 7, 2, 6, 3, 3, 3, 10, 16, 2, 11, 2, 21, 9, 2,
    10, 25, 28, 4, 9, 3, 2, 173, 4, 3, 22, 5, 5, 25, 2, 9, 7, 1169, 10, 234, 185, 5,
    114, 419, 2, 78, 610, 50, 5, 15, 3, 2422, 6, 15, 6, 3, 3, 6, 184, 6, 10, 3, 15,
    6, 1088, 99, 351, 10, 46, 9, 5, 2142, 438, 3, 84, 81, 10, 223, 661, 317, 15, 15,
    193, 2, 10, 8, 6, 82, 69, 6, 2, 5, 17, 27, 45, 79, 145, 275, 1150, 166, 32895,
]


@functools.lru_cache(maxsize=None)
def _corpus():
    rng = random.Random(20261019)
    graphs = []
    while len(graphs) < 200:
        n = rng.randint(2, 9)
        g = gen_random_connected(n, rng.uniform(0.2, 0.8), seed=rng.randrange(10**6))
        if g.edge_count <= 13:
            graphs.append(g)
    glued = (gen_random_glued_blocks(seed) for seed in range(150))
    graphs += [g for g in glued if g.edge_count <= 16]
    graphs += [gen_path(n) for n in range(3, 11)]
    graphs += [gen_remark4_H(5), gen_H(3, 3), gen_H(3, 4)]
    return tuple(graphs)


def _over(steps, pinned):
    assert len(steps) == len(pinned)
    return [(i, got, cap) for i, (got, cap) in enumerate(zip(steps, pinned)) if got > cap]


def test_exact_cfc_digest_and_steps():
    digest = hashlib.sha256()
    value_witness = hashlib.sha256()
    steps = []
    for g in _corpus():
        r = exact_cfc(g)
        value_witness.update(repr((r.value, r.optimal_coloring.colors)).encode())
        digest.update(repr((r.value, r.optimal_coloring.colors, r.stats.colorings_examined)).encode())
        steps.append(r.stats.verification_steps)
    assert value_witness.hexdigest() == VALUE_WITNESS_DIGEST
    assert digest.hexdigest() == EXACT_DIGEST
    assert not _over(steps, EXACT_STEPS)


def test_exists_two_coloring_digest_and_steps():
    digest = hashlib.sha256()
    steps = []
    for g in _corpus():
        if is_complete(g):
            continue
        s = exists_two_coloring(g)
        digest.update(repr((s.exists, s.stats.colorings_examined)).encode())
        steps.append(s.stats.verification_steps)
    assert digest.hexdigest() == TWO_DIGEST
    assert not _over(steps, TWO_STEPS)
