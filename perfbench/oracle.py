"""Reference checks for benchmark outputs.

Nothing here imports cfcgraph: every verdict the benchmark gives on a CLI
output is computed from the edge list it wrote during set-up.  The checks are
brute force and meant for the small graphs of the `cfc` items and the
smaller `color2` items.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]


def canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def adjacency(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(n: int, edges: Sequence[Edge]) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def bridges(n: int, edges: Sequence[Edge]) -> Set[Edge]:
    """Edges whose removal disconnects the graph (by deletion, O(m(n+m)))."""
    out = set()
    for i, e in enumerate(edges):
        if not _connected(n, edges[:i] + edges[i + 1:]):
            out.add(canon(*e))
    return out


def _longest_path_edges(adj: Dict[int, List[int]]) -> int:
    """Edge count of the longest path in a forest given by adjacency lists."""
    best = 0
    for start in adj:
        # Farthest distance from `start`; forests are small here.
        dist = {start: 0}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    stack.append(w)
        best = max(best, max(dist.values()))
    return best


def cfc_lower_bound(n: int, edges: Sequence[Edge]) -> int:
    """A lower bound on cfc from structure alone.

    1 for complete graphs.  Otherwise at least 2; at least 3 when the bridges
    do not form a linear forest with components of at most three edges
    (Czap et al., Lemma 2.2); and at least ceil(log2(L + 1)) for a path of L
    bridges, since its vertices are joined by that path only.
    """
    if len(edges) == n * (n - 1) // 2:
        return 1
    forest: Dict[int, List[int]] = {}
    for u, v in bridges(n, list(edges)):
        forest.setdefault(u, []).append(v)
        forest.setdefault(v, []).append(u)
    lower = 2
    components: List[Set[int]] = []
    seen: Set[int] = set()
    for s in forest:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            for w in forest[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(comp)
    linear = all(len(nb) <= 2 for nb in forest.values())
    if not linear or any(len(c) - 1 > 3 for c in components):
        lower = 3
    if linear:
        longest = max((len(c) - 1 for c in components), default=0)
    else:
        longest = _longest_path_edges(forest)
    return max(lower, longest.bit_length())


def _pair_served(adj: List[List[int]], color: Dict[Edge, int], s: int, t: int) -> bool:
    """True iff some simple s-t path has a color that occurs on it exactly once."""
    counts: Dict[int, int] = {}
    on_path = {s}
    path = [s]
    iters = [iter(adj[s])]
    while iters:
        advanced = False
        for w in iters[-1]:
            if w in on_path:
                continue
            c = color[canon(path[-1], w)]
            counts[c] = counts.get(c, 0) + 1
            if w == t:
                if any(k == 1 for k in counts.values()):
                    return True
                counts[c] -= 1
                continue
            path.append(w)
            on_path.add(w)
            iters.append(iter(adj[w]))
            advanced = True
            break
        if not advanced:
            iters.pop()
            last = path.pop()
            on_path.discard(last)
            if path:
                counts[color[canon(path[-1], last)]] -= 1
    return False


def failing_pair(
    n: int, edges: Sequence[Edge], colors: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """First vertex pair with no conflict-free path, or None if there is none."""
    adj = adjacency(n, edges)
    color = {canon(*e): c for e, c in zip(edges, colors)}
    for u in range(n):
        for v in range(u + 1, n):
            if canon(u, v) not in color and not _pair_served(adj, color, u, v):
                return (u, v)
    return None


def _simple_paths(adj: List[List[int]], index: Dict[Edge, int], s: int, t: int) -> List[Tuple[int, ...]]:
    """Every simple s-t path, as the indices of its edges."""
    out: List[Tuple[int, ...]] = []
    path = [s]

    def extend(u: int, used: List[int]) -> None:
        for w in adj[u]:
            if w in path:
                continue
            used.append(index[canon(u, w)])
            if w == t:
                out.append(tuple(used))
            else:
                path.append(w)
                extend(w, used)
                path.pop()
            used.pop()

    extend(s, [])
    return out


def has_coloring(n: int, edges: Sequence[Edge], colors: int) -> bool:
    """True iff some coloring of `edges` with at most `colors` colors is
    conflict-free connected.

    Exhaustive: each coloring is taken once up to a renaming of the colors
    (the first use of color c comes after the first use of c - 1), and every
    simple path of every non-adjacent pair is listed up front.  Meant for the
    small graphs of the `cfc` items (m <= 8 gives at most 3^7 colorings).
    """
    m = len(edges)
    if m == 0:
        return True
    adj = adjacency(n, edges)
    index = {canon(*e): i for i, e in enumerate(edges)}
    pairs = [
        _simple_paths(adj, index, u, v)
        for u in range(n) for v in range(u + 1, n) if canon(u, v) not in index
    ]
    color = [0] * m

    def served(paths: List[Tuple[int, ...]]) -> bool:
        for path in paths:
            counts: Dict[int, int] = {}
            for i in path:
                counts[color[i]] = counts.get(color[i], 0) + 1
            if 1 in counts.values():
                return True
        return False

    def assign(i: int, used: int) -> bool:
        if i == m:
            return all(served(paths) for paths in pairs)
        for c in range(1, min(used + 1, colors) + 1):
            color[i] = c
            if assign(i + 1, max(used, c)):
                return True
        return False

    return assign(0, 0)
