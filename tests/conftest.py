"""Shared brute-force oracles, kept independent of the library's search code."""
import itertools
import os
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Tuple

import cfcgraph as cfc
from cfcgraph.graph import Edge, Graph, canonical_edge

# CLI tests run `python -m cfcgraph.cli` in a subprocess; like pytest's
# `pythonpath` setting for the tests themselves, let it import the package
# from this checkout without an install.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def bridge_oracle(g):
    """Remove each edge in turn and re-test connectivity."""
    bridges = set()
    for e in g.edges:
        rest = [x for x in g.edges if x != e]
        if not cfc.is_connected(cfc.build_graph(g.vertex_count, rest)):
            bridges.add(e)
    return frozenset(bridges)


def relabelled(g, rng):
    """g with its vertices renamed by a random permutation from ``rng``."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return cfc.build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def sparse_connected(rng, n_max, chord_p):
    """A random tree on 2..``n_max`` vertices plus each other pair with
    probability ``chord_p``: C(G) is large and often leaves Lemma 2.2's shape."""
    n = rng.randint(2, n_max)
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    chords = {(u, v) for v in range(n) for u in range(v) if rng.random() < chord_p}
    return cfc.build_graph(n, sorted(tree | chords))


def bridge_subgraph_oracle(g):
    """C(G) rebuilt from the remove-and-test bridges: per component its
    vertices, edges and path sequence (None unless a path, else its vertices
    from the least end), ordered by (order, vertices)."""
    bridges = bridge_oracle(g)
    nbrs = {}
    for u, v in bridges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    left = set(nbrs)
    components = []
    while left:
        start = min(left)
        comp, frontier = {start}, [start]
        while frontier:
            for y in nbrs[frontier.pop()] - comp:
                comp.add(y)
                frontier.append(y)
        left -= comp
        seq = None
        if all(len(nbrs[x]) <= 2 for x in comp):
            seq = [min(x for x in comp if len(nbrs[x]) == 1)]
            while len(seq) < len(comp):
                seq.append(min(nbrs[seq[-1]] - set(seq)))
            seq = tuple(seq)
        edges = tuple(sorted(e for e in bridges if e[0] in comp))
        components.append((tuple(sorted(comp)), edges, seq))
    components.sort(key=lambda c: (len(c[0]), c[0]))
    return bridges, components


def _components_without(g, x):
    """Component ids of G - x: each vertex other than x maps to the least
    vertex of its component."""
    ids = {}
    for s in range(g.vertex_count):
        if s == x or s in ids:
            continue
        ids[s] = s
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w != x and w not in ids:
                    ids[w] = s
                    stack.append(w)
    return ids


def block_oracle(g):
    """Blocks of a connected graph as sorted edge tuples, in sorted order.

    Two edges share a block iff no vertex x separates them: for every x,
    their ends other than x lie in one component of G - x.  So an edge's
    block is fixed by the tuple, over all x, of those components.
    """
    ids = [_components_without(g, x) for x in range(g.vertex_count)]
    blocks = {}
    for u, v in g.edges:
        key = tuple(c[u if u != x else v] for x, c in enumerate(ids))
        blocks.setdefault(key, []).append((u, v))
    return sorted(map(tuple, blocks.values()))


def simple_paths_between(g, source, target):
    """Recursive simple-path enumeration (independent of the library's
    iterative search)."""

    def rec(cur, visited, path):
        if cur == target:
            yield tuple(path)
            return
        for w in g.adjacency[cur]:
            if w not in visited:
                visited.add(w)
                path.append(w)
                yield from rec(w, visited, path)
                path.pop()
                visited.remove(w)

    yield from rec(source, {source}, [source])


def conflict_free_path_from_map(
    g: Graph, cmap: Dict[Edge, int], source: int, target: int
) -> Optional[Tuple[int, ...]]:
    """First conflict-free source-target path in depth-first order under the
    edge-color map ``cmap``, or None after the pair's whole simple-path space
    is exhausted.

    Color multiplicities are maintained incrementally, so each step is O(1).
    """
    counts: Dict[int, int] = {}
    singles = 0  # number of colors currently used exactly once

    def add(c):
        nonlocal singles
        k = counts.get(c, 0) + 1
        counts[c] = k
        if k == 1:
            singles += 1
        elif k == 2:
            singles -= 1

    def remove(c):
        nonlocal singles
        k = counts[c] - 1
        counts[c] = k
        if k == 0:
            singles -= 1
        elif k == 1:
            singles += 1

    path = [source]
    on_path = [False] * g.vertex_count
    on_path[source] = True
    stack = [iter(g.adjacency[source])]
    while stack:
        it = stack[-1]
        advanced = False
        for w in it:
            if on_path[w]:
                continue
            c = cmap[canonical_edge(path[-1], w)]
            if w == target:
                add(c)
                if singles > 0:
                    return tuple(path) + (target,)
                remove(c)
                continue
            add(c)
            path.append(w)
            on_path[w] = True
            stack.append(iter(g.adjacency[w]))
            advanced = True
            break
        if not advanced:
            stack.pop()
            last = path.pop()
            on_path[last] = False
            if path:
                remove(cmap[canonical_edge(path[-1], last)])
    return None


def coloring_is_conflict_free_connected(g, colors):
    """Independent verdict: every pair joined by a path with a unique color."""
    cmap = dict(zip(g.edges, colors))
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            ok = False
            for p in simple_paths_between(g, u, v):
                counts = Counter(
                    cmap[cfc.canonical_edge(a, b)] for a, b in zip(p, p[1:])
                )
                if 1 in counts.values():
                    ok = True
                    break
            if not ok:
                return False
    return True


def cfc_brute(g, tmax=None):
    """Smallest palette size by full unrestricted enumeration (no symmetry
    breaking); only for very small graphs."""
    m = g.edge_count
    if tmax is None:
        tmax = m
    for t in range(1, tmax + 1):
        for colors in itertools.product(range(1, t + 1), repeat=m):
            if coloring_is_conflict_free_connected(g, colors):
                return t
    return None


def has_two_coloring_brute(g):
    """Full 2^m sweep, no first-edge fix; cross-check for symmetry soundness."""
    for colors in itertools.product((1, 2), repeat=g.edge_count):
        if coloring_is_conflict_free_connected(g, colors):
            return True
    return False
