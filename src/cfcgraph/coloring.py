"""Edge colorings, conflict-free connectivity verification, and the explicit
two-coloring for graphs whose bridge subgraph is a linear forest with at most
one component larger than a single edge (that one of order at most four).
"""
from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .decomposition import (
    BlockDecomposition,
    CutEdgeProfile,
    block_decomposition,
    select_block_matching,
)
from .errors import (
    CompleteGraphError,
    EdgeListParseError,
    HypothesisViolatedError,
    NonPositiveError,
    NotAPathError,
    NotConnectedError,
)
from .graph import Edge, Graph, canonical_edge, is_complete, is_connected


@dataclass(frozen=True)
class EdgeColoring:
    graph: Graph
    colors: Tuple[int, ...]  # aligned with graph.edges

    def __post_init__(self):
        if len(self.colors) != self.graph.edge_count:
            raise ValueError("coloring must assign exactly one color per edge")
        if any(c < 1 for c in self.colors):
            raise ValueError("colors must be positive integers")

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))

    def as_dict(self) -> Dict[Edge, int]:
        return dict(zip(self.graph.edges, self.colors))


@dataclass(frozen=True)
class CfcVerdict:
    is_conflict_free_connected: bool
    witness_paths: Optional[Mapping[Tuple[int, int], Tuple[int, ...]]]
    failing_pair: Optional[Tuple[int, int]]


def make_coloring(g: Graph, color_map: Dict[Edge, int]) -> EdgeColoring:
    if set(color_map) != set(g.edges):
        raise ValueError("color map must cover exactly the graph's edges")
    return EdgeColoring(graph=g, colors=tuple(color_map[e] for e in g.edges))


def cfc_path_formula(edge_count: int) -> int:
    """Conflict-free connection number of a path with the given edge count:
    ceil(log2(edge_count + 1)), in exact integer arithmetic."""
    if edge_count < 1:
        raise NonPositiveError(f"edge_count must be positive, got {edge_count}")
    # ceil(log2(x)) == (x - 1).bit_length() for x >= 1, here with x = edge_count + 1
    return edge_count.bit_length()


def is_conflict_free_path(coloring: EdgeColoring, path: Sequence[int]) -> bool:
    """True iff some color occurs on exactly one edge of the path."""
    g = coloring.graph
    if len(path) < 2:
        raise NotAPathError("a path needs at least two vertices")
    if len(set(path)) != len(path):
        raise NotAPathError("path vertices must be pairwise distinct")
    cmap = coloring.as_dict()
    counts: Dict[int, int] = {}
    for u, v in zip(path, path[1:]):
        if not g.has_edge(u, v):
            raise NotAPathError(f"{u} and {v} are not adjacent")
        c = cmap[canonical_edge(u, v)]
        counts[c] = counts.get(c, 0) + 1
    return any(k == 1 for k in counts.values())


def enumerate_simple_paths(g: Graph, source: int, target: int) -> Iterator[Tuple[int, ...]]:
    """Depth-first enumeration of simple source-target paths, neighbors in
    ascending index order."""
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
            if w == target:
                yield tuple(path) + (target,)
                continue
            path.append(w)
            on_path[w] = True
            stack.append(iter(g.adjacency[w]))
            advanced = True
            break
        if not advanced:
            stack.pop()
            on_path[path.pop()] = False


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


def verify_conflict_free_connected(coloring: EdgeColoring) -> CfcVerdict:
    """Decide whether every vertex pair is joined by a conflict-free path.

    Exact for any number of colors, in O(m (n + m)) time plus the pair
    bookkeeping.  It rests on Menger's theorem: a u-v path uses color c
    exactly once, on edge ab, iff G - E_c (G without the edges of color c)
    has two vertex-disjoint paths from {u, v} to {a, b}.  Adjacent pairs are
    served by their own edge.  For each edge ab, color classes smallest
    first, one lowpoint DFS of G - E_c plus a vertex s adjacent to a and b
    labels every vertex reached with the vertex of s's blocks under which it
    hangs; the pairs reached with different labels are served by ab.  The
    sweep stops as soon as every pair is served.

    ``failing_pair`` is the lexicographically first unserved pair.  On
    success ``witness_paths`` maps every pair (u < v) to a conflict-free
    u-v path, built from the pair's serving edge when it is read.
    """
    g = coloring.graph
    if not is_connected(g):
        raise NotConnectedError("verification requires a connected graph")
    n = g.vertex_count
    unserved = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    served: Dict[Tuple[int, int], Tuple[int, int, int]] = {}  # pair -> (c, a, b)
    classes: Dict[int, List[Edge]] = {}
    for e, c in zip(g.edges, coloring.colors):
        classes.setdefault(c, []).append(e)

    # One set of DFS arrays for every edge: discovery times keep rising from
    # run to run, so a vertex was reached in this run iff disc >= start.
    s = n
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    parent = [0] * (n + 1)
    attach = [0] * (n + 1)
    label = [0] * (n + 1)
    clock = 0
    for c, members in sorted(classes.items(), key=lambda item: (len(item[1]), item[0])):
        if not unserved:
            break
        adj = _adjacency_without(coloring, c)
        adj.append([])
        for a, b in members:
            adj[a].append(s)
            adj[b].append(s)
            adj[s] = [a, b]
            clock += 1
            start = disc[s] = low[s] = clock
            order = []
            stack = [(s, iter(adj[s]))]
            while stack:
                x, it = stack[-1]
                for w in it:
                    if disc[w] < start:
                        clock += 1
                        disc[w] = low[w] = clock
                        parent[w] = x
                        order.append(w)
                        stack.append((w, iter(adj[w])))
                        break
                    if disc[w] < low[x]:
                        low[x] = disc[w]
                else:
                    stack.pop()
                    if stack and low[x] < low[stack[-1][0]]:
                        low[stack[-1][0]] = low[x]
            adj[a].pop()
            adj[b].pop()
            # attach[w]: the vertex nearest s of the block holding the tree
            # edge into w; it is s exactly for the vertices of s's blocks.
            for w in order:
                p = parent[w]
                attach[w] = at = p if low[w] >= disc[p] else attach[p]
                label[w] = w if at == s else label[at]
            rest = []
            for pair in unserved:
                u, v = pair
                if disc[u] >= start and disc[v] >= start and label[u] != label[v]:
                    served[pair] = (c, a, b)
                else:
                    rest.append(pair)
            unserved = rest
            if not unserved:
                break
    if unserved:
        return CfcVerdict(
            is_conflict_free_connected=False, witness_paths=None, failing_pair=unserved[0]
        )
    return CfcVerdict(
        is_conflict_free_connected=True,
        witness_paths=WitnessPaths(coloring, served),
        failing_pair=None,
    )


def _adjacency_without(coloring: EdgeColoring, color: int) -> List[List[int]]:
    """Adjacency lists of G - E_color."""
    adj: List[List[int]] = [[] for _ in range(coloring.graph.vertex_count)]
    for (x, y), c in zip(coloring.graph.edges, coloring.colors):
        if c != color:
            adj[x].append(y)
            adj[y].append(x)
    return adj


class WitnessPaths(Mapping):
    """Read-only map from every vertex pair (u, v), u < v, of a conflict-free
    connected coloring to a conflict-free u-v path.

    A pair of adjacent vertices gets its edge.  Any other pair gets, when it
    is read, the path through its serving edge ab of color c, given as
    ``served[pair] = (c, a, b)``: two vertex-disjoint paths from {u, v} to
    {a, b} in G - E_c, joined by ab.
    """

    def __init__(self, coloring: EdgeColoring, served: Dict[Tuple[int, int], Tuple[int, int, int]]):
        self._coloring = coloring
        self._served = served

    def __len__(self) -> int:
        n = self._coloring.graph.vertex_count
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        n = self._coloring.graph.vertex_count
        return ((u, v) for u in range(n) for v in range(u + 1, n))

    def __contains__(self, pair) -> bool:
        return pair in self._served or pair in self._coloring.graph.edge_set

    def __getitem__(self, pair: Tuple[int, int]) -> Tuple[int, ...]:
        if pair in self._coloring.graph.edge_set:
            return pair
        c, a, b = self._served[pair]
        to_u, to_v = _two_disjoint_paths(_adjacency_without(self._coloring, c), pair, (a, b))
        return tuple(to_u) + tuple(reversed(to_v))


def _two_disjoint_paths(
    adj: Sequence[Sequence[int]], sources: Tuple[int, int], sinks: Edge
) -> Tuple[List[int], List[int]]:
    """Two vertex-disjoint paths, one from each of ``sources`` to one of
    ``sinks``: two augmenting paths of a flow with unit vertex capacities.

    Vertex x splits into an in-node 2x and an out-node 2x + 1 joined by one
    unit of capacity; an edge xy becomes the arcs 2x+1 -> 2y and 2y+1 -> 2x.
    """
    S, T = -1, -2

    def arcs_out(p):
        if p == S:
            return [2 * x for x in sources]
        x, out = divmod(p, 2)
        if not out:
            return [p + 1]
        return [2 * y for y in adj[x]] + ([T] if x in sinks else [])

    def arcs_in(p):
        x, out = divmod(p, 2)
        if out:
            return [p - 1]
        return [2 * y + 1 for y in adj[x]] + ([S] if x in sources else [])

    flow = set()
    for _ in range(2):
        prev = {S: None}
        queue = deque([S])
        while T not in prev:
            p = queue.popleft()
            for q in arcs_out(p):
                if q not in prev and (p, q) not in flow:
                    prev[q] = p
                    queue.append(q)
            if p != S:
                for q in arcs_in(p):
                    if q not in prev and (q, p) in flow:
                        prev[q] = p
                        queue.append(q)
        q = T
        while q != S:
            p = prev[q]
            if (q, p) in flow:
                flow.discard((q, p))
            else:
                flow.add((p, q))
            q = p
    succ = {p: q for p, q in flow if p != S}
    paths = []
    for x in sources:
        path = [x]
        p = succ[2 * x + 1]
        while p != T:
            path.append(p // 2)
            p = succ[p + 1]
        paths.append(path)
    return paths[0], paths[1]


def two_coloring_hypothesis_holds(profile: CutEdgeProfile) -> bool:
    """Shape condition on the bridge subgraph: a linear forest that is empty,
    or has all components of order 2 except possibly the largest, which has
    order at most 4."""
    if not profile.is_linear_forest:
        return False
    orders = profile.component_orders
    if not orders:
        return True
    return all(o == 2 for o in orders[:-1]) and orders[-1] <= 4


def construct_two_coloring(g: Graph, d: Optional[BlockDecomposition] = None) -> EdgeColoring:
    """The explicit conflict-free connection 2-coloring.

    ``d`` is g's block decomposition, computed here when not given.
    Matching edges (one per nontrivial block) get color 2; the largest bridge
    component is colored 1 / 1,2 / 1,2,1 along its path depending on order;
    every other edge gets color 1.
    """
    if not is_connected(g):
        raise NotConnectedError("construction requires a connected graph")
    if is_complete(g):
        raise CompleteGraphError("complete graphs need only one color")
    if d is None:
        d = block_decomposition(g)
    profile = d.profile
    if not two_coloring_hypothesis_holds(profile):
        raise HypothesisViolatedError(
            "bridge subgraph is not a linear forest with at most one component "
            f"of order 3..4 (orders {list(profile.component_orders)})"
        )

    color_map = {e: 1 for e in g.edges}
    for e in select_block_matching(d).chosen_edges:
        color_map[e] = 2
    largest = profile.largest
    if largest is not None and largest.order >= 3:
        # Bridges lie in no nontrivial block, so only the path's second edge
        # differs from color 1.
        a, b = largest.path_sequence[1:3]
        color_map[canonical_edge(a, b)] = 2
    return make_coloring(g, color_map)


def normalize_coloring(coloring: EdgeColoring) -> EdgeColoring:
    """Renumber colors to 1..t by first occurrence in canonical edge order."""
    mapping: Dict[int, int] = {}
    out = []
    for c in coloring.colors:
        if c not in mapping:
            mapping[c] = len(mapping) + 1
        out.append(mapping[c])
    return EdgeColoring(graph=coloring.graph, colors=tuple(out))


def format_coloring(coloring: EdgeColoring) -> str:
    lines = [f"coloring {coloring.palette_size}"]
    for (u, v), c in zip(coloring.graph.edges, coloring.colors):
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, g: Graph) -> EdgeColoring:
    """Parse the coloring text format against a known graph.  The header's
    t must be the number of distinct colors in the body."""
    color_map: Dict[Edge, int] = {}
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header_line is None:
            if parts[0] != "coloring" or len(parts) != 2 or not parts[1].isdecimal():
                raise EdgeListParseError("expected header 'coloring t', t a whole number", lineno)
            header_line, t = lineno, int(parts[1])
            continue
        if len(parts) != 3:
            raise EdgeListParseError("expected line 'u v c'", lineno)
        try:
            u, v, c = (int(x) for x in parts)
        except ValueError:
            raise EdgeListParseError("fields must be integers", lineno)
        e = canonical_edge(u, v)
        if e in color_map:
            raise EdgeListParseError(f"repeated edge {u} {v}", lineno)
        color_map[e] = c
    if header_line is None:
        raise EdgeListParseError("missing header 'coloring t'", 1)
    if len(set(color_map.values())) != t:
        raise EdgeListParseError(
            f"header says {t} colors, the body uses {len(set(color_map.values()))}", header_line
        )
    try:
        return make_coloring(g, color_map)
    except ValueError as exc:
        raise EdgeListParseError(str(exc), 1)
