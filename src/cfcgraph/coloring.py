"""Edge colorings, conflict-free connectivity verification, and the explicit
two-coloring for graphs whose bridge subgraph is a linear forest with at most
one component larger than a single edge (that one of order at most four):
one color-2 edge in each nontrivial block, and one on that component's second
bridge.
"""
from __future__ import annotations

from collections import Counter, defaultdict, deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import DefaultDict, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .decomposition import (
    BlockDecomposition,
    _lowpoint,
    block_decomposition,
    select_block_edges,
)
from .errors import (
    CompleteGraphError,
    EdgeListParseError,
    HypothesisViolatedError,
    NonPositiveError,
    NotAPathError,
    NotConnectedError,
)
from .graph import (
    Edge,
    Graph,
    _int_field,
    canonical_edge,
    is_complete,
    is_connected,
)


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


def verify_conflict_free_connected(coloring: EdgeColoring) -> CfcVerdict:
    """Decide whether every vertex pair is joined by a conflict-free path.

    Exact for any number of colors, in O(m (n + m)) time for the runs of
    ``_edge_runs``.  Adjacent pairs are served by their own edge.  The
    unserved pairs are bitset rows, O(n^2 / 64) machine words in all: row u
    has bit v > u while u and v are nonadjacent and unserved.  After a run,
    a reached u keeps the bits of the vertices it did not reach or reached
    with its own label; the sweep stops once every row is empty.

    ``failing_pair`` is the lexicographically first unserved pair: the lowest
    bit of the least nonempty row.  On success ``witness_paths`` maps every
    pair (u < v) to a conflict-free u-v path; a pair's serving edge is found
    again when its path is read.
    """
    g = coloring.graph
    n = g.vertex_count
    bit = [1 << v for v in range(n)]
    rows = [(1 << n) - (b << 1) for b in bit]
    for u, v in g.edges:
        rows[u] ^= bit[v]
    live = n - rows.count(0)
    if live:
        for _, _, _, order, _, _, label in _edge_runs(g, coloring.colors):
            # same[x]: the vertices labelled x.  A label is w itself or an
            # earlier vertex's, so preorder meets it before the rest.
            reached = 0
            same: Dict[int, int] = {}
            for w in order:
                b = bit[w]
                reached |= b
                x = label[w]
                same[x] = b if x == w else same[x] | b
            keep = ~reached
            for u in order:
                row = rows[u]
                if row:
                    row &= keep | same[label[u]]
                    rows[u] = row
                    live -= not row
            if not live:
                break
    # A served pair is joined by a path, so only an unserved pair (or no
    # vertex at all) can mean the graph is not connected.
    if (live or not n) and not is_connected(g):
        raise NotConnectedError("verification requires a connected graph")
    if live:
        u, row = next((u, row) for u, row in enumerate(rows) if row)
        pair = (u, (row & -row).bit_length() - 1)
        return CfcVerdict(is_conflict_free_connected=False, witness_paths=None, failing_pair=pair)
    return CfcVerdict(
        is_conflict_free_connected=True, witness_paths=WitnessPaths(coloring), failing_pair=None
    )


def _edge_runs(
    g: Graph, colors: Sequence[int]
) -> Iterator[Tuple[int, int, int, List[int], int, List[int], List[int]]]:
    """One ``decomposition._lowpoint`` run per edge ab of g, under ``colors``
    (aligned with ``g.edges``): color classes smallest first (ties by color),
    then each class's edges in order.

    It rests on Menger's theorem: a u-v path uses color c exactly once, on
    edge ab, iff G - E_c (G without the edges of color c) has two
    vertex-disjoint paths from {u, v} to {a, b}.  The run for ab searches
    G - E_c plus a vertex s = n adjacent to a and b; its block heads label
    every vertex reached with the vertex of s's blocks under which it hangs,
    so ab serves exactly the pairs reached with different labels.

    Yields ``(c, a, b, order, start, disc, label)``: ``order`` lists the
    vertices reached, a vertex w was reached iff ``disc[w] >= start``, and
    ``label[w]`` is its label.  ``disc`` and ``label`` are the same lists in
    every run, overwritten by the next one, so a consumer reads them before
    it asks for the next run; it stops the sweep by not asking.
    """
    n = g.vertex_count
    classes: Dict[int, List[Edge]] = {}
    for e, c in zip(g.edges, colors):
        classes.setdefault(c, []).append(e)

    # One set of DFS arrays for every edge: discovery times keep rising from
    # run to run, so a vertex was reached in this run iff disc >= start.
    s = n
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    parent = [0] * (n + 1)
    head = [0] * (n + 1)
    label = [0] * (n + 1)
    clock = 0
    for c, members in sorted(classes.items(), key=lambda item: (len(item[1]), item[0])):
        # The ends of the class's edges hold lists, which s is appended to.
        adj = _adjacency_without(g, members)
        adj.append([])
        for a, b in members:
            adj[a].append(s)
            adj[b].append(s)
            adj[s] = [a, b]
            order, clock = _lowpoint(adj, s, disc, low, parent, head, clock)
            adj[a].pop()
            adj[b].pop()
            # parent[head[w]] is the vertex nearest s of the block holding
            # the tree edge into w; it is s exactly for s's blocks.
            for w in order:
                at = parent[head[w]]
                label[w] = w if at == s else label[at]
            yield c, a, b, order, disc[s], disc, label


def _serve_pairs(
    g: Graph, colors: Sequence[int], pairs: List[Edge]
) -> Tuple[Dict[Edge, Tuple[int, int, int]], List[Edge]]:
    """Split ``pairs`` into those joined by a conflict-free path under
    ``colors`` (aligned with ``g.edges``) and the rest.

    Returns ``(served, unserved)``: ``served`` maps each served pair to its
    serving edge ab and that edge's color c as ``(c, a, b)``, the first run
    of ``_edge_runs`` to serve it; ``unserved`` keeps the given order.  The
    sweep stops as soon as every pair is served, so a call with one pair
    finds the serving edge that a call with all pairs gives it.
    """
    unserved = pairs
    served: Dict[Edge, Tuple[int, int, int]] = {}
    if not unserved:
        return served, unserved
    for c, a, b, _, start, disc, label in _edge_runs(g, colors):
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
    return served, unserved


def _adjacency_without(g: Graph, removed: Iterable[Edge]) -> List[Sequence[int]]:
    """The neighbours of each vertex in g without the edges ``removed``, in
    ascending order.  Each end of a removed edge gets a new list, g's
    filtered once by the set of its removed neighbours; every other vertex
    keeps g's tuple, so the cost is O(n) plus the ends' degrees."""
    adj: List[Sequence[int]] = list(g.adjacency)
    dropped: DefaultDict[int, Set[int]] = defaultdict(set)
    for x, y in removed:
        dropped[x].add(y)
        dropped[y].add(x)
    for x, ys in dropped.items():
        adj[x] = [y for y in adj[x] if y not in ys]
    return adj


class WitnessPaths(Mapping):
    """Read-only map from every vertex pair (u, v), 0 <= u < v < n, of a
    conflict-free connected coloring to a conflict-free u-v path.

    It holds only the coloring: membership is a range test and builds no
    path, and any other key, a reversed pair included, is missing.  A pair
    of adjacent vertices gets its edge.  Any other pair gets, when it is
    read, the path through its serving edge ab of color c, which
    ``_serve_pairs`` finds again for that pair alone: two vertex-disjoint
    paths from {u, v} to {a, b} in G - E_c, joined by ab.
    """

    def __init__(self, coloring: EdgeColoring):
        self._coloring = coloring

    def __len__(self) -> int:
        n = self._coloring.graph.vertex_count
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        n = self._coloring.graph.vertex_count
        return ((u, v) for u in range(n) for v in range(u + 1, n))

    def __contains__(self, pair) -> bool:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        u, v = pair
        n = self._coloring.graph.vertex_count
        return isinstance(u, int) and isinstance(v, int) and 0 <= u < v < n

    def __getitem__(self, pair: Tuple[int, int]) -> Tuple[int, ...]:
        if pair not in self:
            raise KeyError(pair)
        g, colors = self._coloring.graph, self._coloring.colors
        if pair in g.edge_set:
            return pair
        c, a, b = _serve_pairs(g, colors, [pair])[0][pair]
        color_class = [e for e, k in zip(g.edges, colors) if k == c]
        to_u, to_v = _two_disjoint_paths(_adjacency_without(g, color_class), pair, (a, b))
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


def construct_two_coloring(g: Graph, d: Optional[BlockDecomposition] = None) -> EdgeColoring:
    """The explicit conflict-free connection 2-coloring.

    ``d`` is g's block decomposition, computed here when not given.
    The least edge of each nontrivial block gets color 2; the largest bridge
    component, read from its least end, is colored 1 / 1,2 / 1,2,1 depending
    on order; every other edge gets color 1.  A nontrivial block B is
    2-connected, so B minus its color-2 edge e is connected, and any two
    edges of B lie on a common cycle: between distinct vertices B has a route
    without e and one through e, so the color-2 edges need not be a matching.
    Under the hypothesis the vertices on two bridges are the inner vertices
    of that component, so its second edge is found without walking it:
    between the two inner vertices of a P4, or from the inner vertex of a P3
    to its larger other end.
    """
    if is_complete(g):
        raise CompleteGraphError("complete graphs need only one color")
    if d is None:
        d = block_decomposition(g)
    if not d.construction_applies:
        raise HypothesisViolatedError(
            "bridge subgraph is not a linear forest with at most one component "
            f"of order 3..4 (orders {list(d.component_orders)})"
        )

    twos = set(select_block_edges(d))
    if d.max_component_edges >= 2:
        # Bridges lie in no nontrivial block, so only the path's second edge
        # differs from color 1.
        ends = Counter(chain.from_iterable(d.cut_edges))
        inner = sorted(x for x, k in ends.items() if k == 2)
        b = inner[0]
        if len(inner) == 2:
            c = inner[1]
        else:
            c = max(u + v - b for u, v in d.cut_edges if b in (u, v))
        twos.add(canonical_edge(b, c))
    return EdgeColoring(graph=g, colors=tuple(2 if e in twos else 1 for e in g.edges))


def format_coloring(coloring: EdgeColoring) -> str:
    lines = [f"coloring {coloring.palette_size}"]
    for (u, v), c in zip(coloring.graph.edges, coloring.colors):
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, g: Graph) -> EdgeColoring:
    """Parse the coloring text format against a known graph.  The header's
    t must be the number of distinct colors in the body.  t is ASCII digits,
    and u, v and c are too, optionally after a minus sign.  An edge outside g
    or a color below 1 fails at its line; a missing edge of g, at the header."""
    color_map: Dict[Edge, int] = {}
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header_line is None:
            # isdecimal refuses a sign, _int_field other digits and a t past int's limit.
            try:
                if parts[0] != "coloring" or len(parts) != 2 or not parts[1].isdecimal():
                    raise ValueError
                header_line, t = lineno, _int_field(parts[1])
            except ValueError:
                raise EdgeListParseError("expected header 'coloring t', t a whole number", lineno)
            continue
        if len(parts) != 3:
            raise EdgeListParseError("expected line 'u v c'", lineno)
        try:
            u, v, c = map(_int_field, parts)
        except ValueError:
            raise EdgeListParseError("fields must be integers", lineno)
        e = canonical_edge(u, v)
        if e not in g.edge_set:
            raise EdgeListParseError(f"edge {u} {v} is not in the graph", lineno)
        if c < 1:
            raise EdgeListParseError(f"color {c} is below 1", lineno)
        if e in color_map:
            raise EdgeListParseError(f"repeated edge {u} {v}", lineno)
        color_map[e] = c
    if header_line is None:
        raise EdgeListParseError("missing header 'coloring t'", 1)
    if len(set(color_map.values())) != t:
        raise EdgeListParseError(
            f"header says {t} colors, the body uses {len(set(color_map.values()))}", header_line
        )
    # Each edge is g's and none repeats, so only a count can fall short.
    if len(color_map) != g.edge_count:
        raise EdgeListParseError("color map must cover exactly the graph's edges", header_line)
    return EdgeColoring(graph=g, colors=tuple(color_map[e] for e in g.edges))
