"""Deterministic generators for the extremal families, plus seeded random
corpus generators for the verification harness.

Cliques are attached by vertex identification: the spine/hub vertex is a
vertex of its clique.  Numbering convention: structural spine first, then
clique fill-ins in block order, so labels are stable for golden tests.
"""
from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from .errors import ParamOutOfRangeError, RetriesExhaustedError
from .graph import Graph, build_graph, is_complete, is_connected
from .decomposition import find_cut_edges


def _clique_edges(vertices: List[int]) -> List[Tuple[int, int]]:
    return [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ParamOutOfRangeError("path needs order >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ParamOutOfRangeError("cycle needs order >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ParamOutOfRangeError("complete graph needs order >= 1")
    return build_graph(n, _clique_edges(list(range(n))))


def gen_H(k: int, t: int) -> Graph:
    """Path on k vertices with a K_t identified at every path vertex.

    n = k*t, minimum degree t-1 = (n-k)/k, exactly k-1 cut edges.
    """
    if k < 3 or t < 3:
        raise ParamOutOfRangeError("H family needs k >= 3 and t >= 3")
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i in range(k):
        fill = list(range(nxt, nxt + t - 1))
        nxt += t - 1
        edges.extend(_clique_edges([i] + fill))
    return build_graph(k * t, edges)


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
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)]
        edges.extend(_clique_edges([5, 6, 7]))
        return build_graph(8, edges)
    central = list(range(k - 1))
    edges = _clique_edges(central)
    nxt = k - 1
    for j in range(k - 1):
        outer = list(range(nxt, nxt + k))
        nxt += k
        edges.extend(_clique_edges(outer))
        edges.append((j, outer[0]))
    return build_graph(k * k - 1, edges)


def gen_S(t: int) -> Graph:
    """Path v0..v5 with K_t identified at v0, v1, v4, v5 and one K_t sharing
    the edge v2v3.

    n = 5t, minimum degree t-1 = (n-5)/5; the bridge subgraph is two paths
    v0v1v2 and v3v4v5 (orders {3, 3}).
    """
    if t < 3:
        raise ParamOutOfRangeError("S family needs t >= 3")
    edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
    nxt = 6
    for v in (0, 1):
        fill = list(range(nxt, nxt + t - 1))
        nxt += t - 1
        edges.extend(_clique_edges([v] + fill))
    fill = list(range(nxt, nxt + t - 2))
    nxt += t - 2
    edges.extend(_clique_edges([2, 3] + fill))
    for v in (4, 5):
        fill = list(range(nxt, nxt + t - 1))
        nxt += t - 1
        edges.extend(_clique_edges([v] + fill))
    return build_graph(5 * t, edges)


def gen_D(k: int) -> Graph:
    """Hub vertex joined by k-1 cut edges to k-1 blocks K_{k+2}.

    n = k^2 + k - 1; every nonadjacent pair has degree sum >= 2k.
    """
    if k < 5:
        raise ParamOutOfRangeError("D family needs k >= 5")
    edges = []
    nxt = 1
    for _ in range(k - 1):
        block = list(range(nxt, nxt + k + 2))
        nxt += k + 2
        edges.extend(_clique_edges(block))
        edges.append((0, block[0]))
    return build_graph(k * k + k - 1, edges)


def gen_remark4_H(t: int) -> Graph:
    """Two triangles whose marked vertices are joined by a path of order t."""
    if t < 5:
        raise ParamOutOfRangeError("remark4-H needs t >= 5")
    edges = _clique_edges([0, 1, 2]) + _clique_edges([3, 4, 5])
    inner = list(range(6, 6 + t - 2))
    chain = [0] + inner + [3]
    edges.extend(zip(chain, chain[1:]))
    return build_graph(6 + t - 2, edges)


def gen_remark4_G(n: int) -> Graph:
    """Five cliques K_{n/5} whose marked vertices are joined in a path."""
    if n % 5 != 0 or n // 5 < 3:
        raise ParamOutOfRangeError("remark4-G needs n divisible by 5 with n/5 >= 3")
    q = n // 5
    edges = []
    for i in range(5):
        edges.extend(_clique_edges(list(range(i * q, (i + 1) * q))))
    edges.extend((i * q, (i + 1) * q) for i in range(4))
    return build_graph(n, edges)


def gen_remark6_H(n: int) -> Graph:
    """Four cliques K_{n/4}; the first marked vertex is joined to the other
    three, so the bridge subgraph is a 3-star."""
    if n % 4 != 0 or n // 4 < 3:
        raise ParamOutOfRangeError("remark6-H needs n divisible by 4 with n/4 >= 3")
    q = n // 4
    edges = []
    for i in range(4):
        edges.extend(_clique_edges(list(range(i * q, (i + 1) * q))))
    edges.extend(((0, q), (0, 2 * q), (0, 3 * q)))
    return build_graph(n, edges)


def gen_remark6_G() -> Graph:
    """Cliques of orders 1, 4, 5, 5; the single vertex is joined to one
    marked vertex of each other clique.  n = 15."""
    edges = []
    edges.extend(_clique_edges([1, 2, 3, 4]))
    edges.extend(_clique_edges([5, 6, 7, 8, 9]))
    edges.extend(_clique_edges([10, 11, 12, 13, 14]))
    edges.extend(((0, 1), (0, 5), (0, 10)))
    return build_graph(15, edges)


def gen_remark7_G(n: int) -> Graph:
    """Path v1 u1 u2 v2 v3 of order 5 with a K_{(n-2)/3} identified at each
    of v1, v2, v3."""
    if n % 3 != 2 or n > 32 or (n - 2) // 3 < 3:
        raise ParamOutOfRangeError("remark7-G needs n = 2 mod 3, (n-2)/3 >= 3, n <= 32")
    q = (n - 2) // 3
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    nxt = 5
    for v in (0, 3, 4):
        fill = list(range(nxt, nxt + q - 1))
        nxt += q - 1
        edges.extend(_clique_edges([v] + fill))
    return build_graph(n, edges)


def gen_random_connected(
    n: int, edge_probability: float, seed: int, max_retries: int = 2000
) -> Graph:
    """Uniform random graph conditioned on connectivity, deterministic per seed."""
    if n < 2:
        raise ParamOutOfRangeError("random graph needs n >= 2")
    if not (0 < edge_probability <= 1):
        raise ParamOutOfRangeError("edge probability must be in (0, 1]")
    rng = random.Random(seed)
    for _ in range(max_retries):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_probability
        ]
        g = build_graph(n, edges)
        if is_connected(g):
            return g
    raise RetriesExhaustedError(
        f"no connected sample for n={n}, p={edge_probability} in {max_retries} tries"
    )


def gen_random_bridgeless(
    n: int, edge_probability: float, seed: int, max_retries: int = 5000
) -> Graph:
    """Random connected 2-edge-connected non-complete graph."""
    if n < 4:
        raise ParamOutOfRangeError("bridgeless non-complete sampling needs n >= 4")
    rng = random.Random(seed)
    for _ in range(max_retries):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_probability
        ]
        g = build_graph(n, edges)
        if is_connected(g) and not is_complete(g) and not find_cut_edges(g):
            return g
    raise RetriesExhaustedError(
        f"no 2-edge-connected non-complete sample for n={n}, p={edge_probability}"
    )


def _random_block(rng: random.Random, max_order: int) -> Graph:
    """A small random 2-edge-connected building block (cycle, clique, or a
    cycle with chords)."""
    kind = rng.choice(("cycle", "clique", "chorded"))
    if kind == "cycle":
        r = rng.randint(3, min(7, max_order))
        return gen_cycle(r)
    if kind == "clique":
        r = rng.randint(3, min(6, max_order))
        return gen_complete(r)
    r = rng.randint(4, min(7, max_order)) if max_order >= 4 else 3
    edges = [(i, (i + 1) % r) for i in range(r)]
    for _ in range(rng.randint(1, 3)):
        u = rng.randrange(r)
        v = rng.randrange(r)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return build_graph(r, edges)


def gen_random_glued_blocks(seed: int, max_vertices: int = 40) -> Graph:
    """Random instance satisfying the two-coloring construction's hypothesis:
    2-edge-connected blocks chained by bridges whose induced subgraph is a
    linear forest with at most one component of order 3 or 4.

    The resulting graph is always connected and non-complete.
    """
    rng = random.Random(seed)
    # At most 5 blocks of <= 7 vertices plus 2 connector vertices: n <= 37.
    block_count = rng.randint(1, max(1, min(5, (max_vertices - 2) // 7)))
    blocks = [_random_block(rng, 7) for _ in range(block_count)]
    if block_count == 1 and is_complete(blocks[0]):
        # A lone complete block would make the whole graph complete.
        blocks[0] = gen_cycle(rng.randint(4, 7))

    edges = []
    offsets = []
    base = 0
    for b in blocks:
        offsets.append(base)
        edges.extend((u + base, v + base) for u, v in b.edges)
        base += b.vertex_count
    n = base

    # Chain consecutive blocks; one connector may carry 1 or 2 middle
    # vertices, which makes its bridge component order 3 or 4.
    long_connector = rng.randrange(block_count - 1) if block_count > 1 else None
    used = {i: set() for i in range(block_count)}
    for i in range(block_count - 1):
        a_choices = [v for v in range(blocks[i].vertex_count) if v not in used[i]]
        b_choices = [v for v in range(blocks[i + 1].vertex_count) if v not in used[i + 1]]
        a = offsets[i] + rng.choice(a_choices)
        b = offsets[i + 1] + rng.choice(b_choices)
        used[i].add(a - offsets[i])
        used[i + 1].add(b - offsets[i + 1])
        if i == long_connector and rng.random() < 0.7:
            middles = rng.randint(1, 2)
            chain = [a] + [n + j for j in range(middles)] + [b]
            n += middles
            edges.extend(zip(chain, chain[1:]))
        else:
            edges.append((a, b))
    return build_graph(n, edges)


# The family names of `cfcgraph gen` and of the sharpness checks.  A family's
# parameters are its generator's positional parameters, in order.
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
