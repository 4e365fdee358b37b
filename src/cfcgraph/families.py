"""Deterministic generators for the extremal families, plus seeded random
corpus generators for the verification harness.

Cliques are attached by vertex identification: the spine/hub vertex is a
vertex of its clique.  Numbering convention: structural spine first, then
clique fill-ins in block order, so labels are stable for golden tests.
``_glued`` implements it; each extremal generator is one call naming its
spine, its cut edges and its cliques.

Every generator hands its edges, canonical and sorted, straight to
``Graph`` and builds each graph once.  ``Graph`` still refuses a repeated or
out-of-range edge, so a generator bug raises ValueError.
"""
from __future__ import annotations

import inspect
import random
from itertools import chain, combinations, compress, repeat, starmap
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .errors import NotConnectedError, ParamOutOfRangeError, RetriesExhaustedError
from .graph import MAX_VERTEX_COUNT, Graph, canonical_edge, is_complete, is_connected
from .decomposition import block_decomposition

# Samples drawn before the random generators give up.
CONNECTED_RETRIES = 2000
BRIDGELESS_RETRIES = 5000


def _check_size(n: int, m: int) -> None:
    """Refuse order ``n`` or ``m`` possible edges above MAX_VERTEX_COUNT, the
    parser's largest order.  Generators call it before building edge lists."""
    if max(n, m) > MAX_VERTEX_COUNT:
        raise ParamOutOfRangeError(f"order {n} or edge count {m} is above {MAX_VERTEX_COUNT}")


def _glued(
    spine: int,
    edges: Iterable[Tuple[int, int]],
    cliques: Iterable[Tuple[Sequence[int], int]],
) -> Graph:
    """Spine vertices 0..spine-1 joined by ``edges``, which may also name
    clique vertices.  Each ``(attached, order)`` of ``cliques`` adds a
    K_order made of the ``attached`` spine vertices, in ascending order, and
    fresh fill vertices, numbered on from every vertex before them; its
    edges come out canonical.  The size is checked clique by clique, and
    ``edges`` is read only then, so both may be lazy.  ``edges`` may name a
    pair either way round, but no edge twice, nor a clique edge."""
    n, m, clique_edges = spine, 0, []
    for attached, order in cliques:
        fill = order - len(attached)
        n, m = n + fill, m + order * (order - 1) // 2
        _check_size(n, m)
        clique_edges += combinations([*attached, *range(n - fill, n)], 2)
    edges = list(starmap(canonical_edge, edges))
    _check_size(n, m + len(edges))
    return Graph(n, tuple(sorted(edges + clique_edges)))


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ParamOutOfRangeError("path needs order >= 1")
    _check_size(n, n - 1)
    return Graph(n, tuple(zip(range(n - 1), range(1, n))))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ParamOutOfRangeError("cycle needs order >= 3")
    _check_size(n, n)
    return Graph(n, _cycle_edges(n))


def _cycle_edges(n: int) -> Tuple[Tuple[int, int], ...]:
    """The n >= 3 edges of the cycle 0, 1, ..., n-1, canonical and sorted."""
    return ((0, 1), (0, n - 1), *zip(range(1, n - 1), range(2, n)))


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ParamOutOfRangeError("complete graph needs order >= 1")
    return _glued(0, [], [((), n)])


def gen_H(k: int, t: int) -> Graph:
    """Path on k vertices with a K_t identified at every path vertex.

    n = k*t, minimum degree t-1 = (n-k)/k, exactly k-1 cut edges.
    """
    if k < 3 or t < 3:
        raise ParamOutOfRangeError("H family needs k >= 3 and t >= 3")
    return _glued(k, ((i, i + 1) for i in range(k - 1)), (((i,), t) for i in range(k)))


def gen_R(k: int) -> Graph:
    """Central K_{k-1} matched by k-1 cut edges to k-1 outer K_k blocks.

    n = k^2 - 1, minimum degree (n-k+1)/k = k-1, k-1 cut edges.  For k = 3
    the central K_2 would itself be a third cut edge, so that case uses an
    equivalent 8-vertex witness (C4 - bridge - vertex - bridge - K3) with the
    same order, minimum degree, and cut-edge count as claimed.
    """
    if k < 3:
        raise ParamOutOfRangeError("R family needs k >= 3")
    if k == 3:
        return _glued(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)], [((5,), 3)])
    # Outer block j starts at vertex k-1 + j*k.
    bridges = ((j, k - 1 + j * k) for j in range(k - 1))
    return _glued(k - 1, bridges, chain([(range(k - 1), k - 1)], repeat(((), k), k - 1)))


def gen_S(t: int) -> Graph:
    """Path v0..v5 with K_t identified at v0, v1, v4, v5 and one K_t sharing
    the edge v2v3.

    n = 5t, minimum degree t-1 = (n-5)/5; the bridge subgraph is two paths
    v0v1v2 and v3v4v5 (orders {3, 3}).
    """
    if t < 3:
        raise ParamOutOfRangeError("S family needs t >= 3")
    cliques = [((0,), t), ((1,), t), ((2, 3), t), ((4,), t), ((5,), t)]
    return _glued(6, [(0, 1), (1, 2), (3, 4), (4, 5)], cliques)


def gen_D(k: int) -> Graph:
    """Hub vertex joined by k-1 cut edges to k-1 blocks K_{k+2}.

    n = k^2 + k - 1; every nonadjacent pair has degree sum >= 2k.
    """
    if k < 5:
        raise ParamOutOfRangeError("D family needs k >= 5")
    # The j-th block starts at vertex 1 + j*(k+2).
    bridges = ((0, 1 + j * (k + 2)) for j in range(k - 1))
    return _glued(1, bridges, repeat(((), k + 2), k - 1))


def gen_remark4_H(t: int) -> Graph:
    """Two triangles whose marked vertices 0 and 3 are joined by a path of
    order t; its inner vertices, from 6 on, are the fill vertices of K1s."""
    if t < 5:
        raise ParamOutOfRangeError("remark4-H needs t >= 5")
    inner = range(6, t + 4)
    path = zip(chain([0], inner), chain(inner, [3]))
    return _glued(0, path, chain([((), 3), ((), 3)], repeat(((), 1), t - 2)))


def gen_remark4_G(n: int) -> Graph:
    """Five cliques K_{n/5} whose marked vertices are joined in a path."""
    if n % 5 != 0 or n // 5 < 3:
        raise ParamOutOfRangeError("remark4-G needs n divisible by 5 with n/5 >= 3")
    q = n // 5
    return _glued(0, [(i * q, (i + 1) * q) for i in range(4)], [((), q)] * 5)


def gen_remark6_H(n: int) -> Graph:
    """Four cliques K_{n/4}; the first marked vertex is joined to the other
    three, so the bridge subgraph is a 3-star."""
    if n % 4 != 0 or n // 4 < 3:
        raise ParamOutOfRangeError("remark6-H needs n divisible by 4 with n/4 >= 3")
    q = n // 4
    return _glued(0, [(0, q), (0, 2 * q), (0, 3 * q)], [((), q)] * 4)


def gen_remark6_G() -> Graph:
    """Cliques of orders 1, 4, 5, 5; the single vertex is joined to one
    marked vertex of each other clique.  n = 15."""
    return _glued(1, [(0, 1), (0, 5), (0, 10)], [((), 4), ((), 5), ((), 5)])


def gen_remark7_G(n: int) -> Graph:
    """Path v1 u1 u2 v2 v3 of order 5 with a K_{(n-2)/3} identified at each
    of v1, v2, v3."""
    if n % 3 != 2 or n > 32 or (n - 2) // 3 < 3:
        raise ParamOutOfRangeError("remark7-G needs n = 2 mod 3, (n-2)/3 >= 3, n <= 32")
    q = (n - 2) // 3
    return _glued(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [((v,), q) for v in (0, 3, 4)])


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p): one ``rng.random()`` draw per pair u < v, in lexicographic
    order, the pair kept when the draw is below ``p``.  The pairs come
    canonical and sorted, so they make the ``Graph`` as they are; the draws
    are made one by one as the pairs are read."""
    pairs = n * (n - 1) // 2
    _check_size(n, pairs)
    draws = map(float(p).__gt__, starmap(rng.random, repeat((), pairs)))
    return Graph(n, tuple(compress(combinations(range(n), 2), draws)))


def gen_random_connected(n: int, edge_probability: float, seed: int) -> Graph:
    """Uniform random graph conditioned on connectivity, deterministic per seed."""
    if n < 2:
        raise ParamOutOfRangeError("random graph needs n >= 2")
    if not (0 < edge_probability <= 1):
        raise ParamOutOfRangeError("edge probability must be in (0, 1]")
    rng = random.Random(seed)
    for _ in range(CONNECTED_RETRIES):
        g = _gnp(n, edge_probability, rng)
        if is_connected(g):
            return g
    raise RetriesExhaustedError(
        f"no connected sample for n={n}, p={edge_probability} in {CONNECTED_RETRIES} tries"
    )


def gen_random_bridgeless(n: int, edge_probability: float, seed: int) -> Graph:
    """Random connected 2-edge-connected non-complete graph."""
    if n < 4:
        raise ParamOutOfRangeError("bridgeless non-complete sampling needs n >= 4")
    rng = random.Random(seed)
    for _ in range(BRIDGELESS_RETRIES):
        g = _gnp(n, edge_probability, rng)
        if is_complete(g):
            continue
        try:
            if not block_decomposition(g).cut_edges:
                return g
        except NotConnectedError:
            pass
    raise RetriesExhaustedError(
        f"no 2-edge-connected non-complete sample for n={n}, p={edge_probability}"
    )


def _random_block(rng: random.Random, max_order: int) -> Tuple[int, set]:
    """A small random 2-edge-connected building block (cycle, clique, or a
    cycle with chords) of order ``r``, 4 <= ``max_order`` <= 7, as ``(r,
    edges)``: its canonical edges on vertices 0..r-1, as a set, since a chord
    may repeat a cycle edge."""
    kind = rng.choice(("cycle", "clique", "chorded"))
    if kind == "clique":
        r = rng.randint(3, min(6, max_order))
        return r, set(combinations(range(r), 2))
    r = rng.randint(3 if kind == "cycle" else 4, max_order)
    edges = set(_cycle_edges(r))
    if kind == "chorded":
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(r)
            v = rng.randrange(r)
            if u != v:
                edges.add(canonical_edge(u, v))
    return r, edges


def gen_random_glued_blocks(seed: int, max_vertices: int = 40) -> Graph:
    """Random instance satisfying the two-coloring construction's hypothesis:
    2-edge-connected blocks chained by bridges whose induced subgraph is a
    linear forest with at most one component of order 3 or 4.

    The resulting graph is always connected and non-complete, with at most
    ``max_vertices`` >= 4 vertices: no connected, non-complete,
    2-edge-connected graph has fewer.
    """
    if max_vertices < 4:
        raise ParamOutOfRangeError("glued blocks need max_vertices >= 4")
    rng = random.Random(seed)
    # At most 5 blocks of <= 7 vertices plus 2 connector vertices, and one
    # block alone below 16 vertices: n <= min(37, max_vertices).
    max_order = min(7, max_vertices)
    block_count = rng.randint(1, max(1, min(5, (max_vertices - 2) // 7)))
    blocks = [_random_block(rng, max_order) for _ in range(block_count)]
    r, first = blocks[0]
    if block_count == 1 and len(first) == r * (r - 1) // 2:
        # A lone complete block would make the whole graph complete.
        r = rng.randint(4, max_order)
        blocks[0] = r, _cycle_edges(r)

    edges = []
    offsets = []
    base = 0
    for r, block_edges in blocks:
        offsets.append(base)
        edges += [(u + base, v + base) for u, v in block_edges]
        base += r
    n = base

    # Chain consecutive blocks; one connector may carry 1 or 2 middle
    # vertices, which makes its bridge component order 3 or 4.  The vertices
    # of block i come before block i+1's, and the middle vertices after both.
    long_connector = rng.randrange(block_count - 1) if block_count > 1 else None
    used = {i: set() for i in range(block_count)}
    for i in range(block_count - 1):
        a_choices = [v for v in range(blocks[i][0]) if v not in used[i]]
        b_choices = [v for v in range(blocks[i + 1][0]) if v not in used[i + 1]]
        a = offsets[i] + rng.choice(a_choices)
        b = offsets[i + 1] + rng.choice(b_choices)
        used[i].add(a - offsets[i])
        used[i + 1].add(b - offsets[i + 1])
        if i == long_connector and rng.random() < 0.7:
            middles = rng.randint(1, 2)
            path = [a, *range(n, n + middles), b]
            n += middles
            edges += map(canonical_edge, path, path[1:])
        else:
            edges.append((a, b))
    return Graph(n, tuple(sorted(edges)))


# The family names of `cfcgraph gen` and of the sharpness checks.
FAMILIES: Dict[str, Callable[..., Graph]] = {
    "H": gen_H,
    "R": gen_R,
    "S": gen_S,
    "D": gen_D,
    "remark4-H": gen_remark4_H,
    "remark4-G": gen_remark4_G,
    "remark6-H": gen_remark6_H,
    "remark6-G": gen_remark6_G,
    "remark7-G": gen_remark7_G,
    "path": gen_path,
    "cycle": gen_cycle,
    "complete": gen_complete,
    # The edge probability as an integer percentage keeps command lines whole-number.
    "random": lambda n, p_percent, seed: gen_random_connected(n, p_percent / 100.0, seed),
}


def family_params(family: str, params: Sequence[int], label: str = "") -> Tuple[str, ...]:
    """The parameter names of registry family ``family``: its generator's
    positional parameters, in order.  An unknown family, or ``params`` of
    another length, is an error naming the family ``label`` (as asked for)."""
    if family not in FAMILIES:
        raise ParamOutOfRangeError(f"unknown family {family!r}")
    names = tuple(inspect.signature(FAMILIES[family]).parameters)
    if len(params) != len(names):
        raise ParamOutOfRangeError(
            f"family {label or family!r} takes {len(names)} integer parameter(s)"
            + (f": {' '.join(names)}" if names else "")
        )
    return names
