"""Simple undirected graph: construction, basic queries, and edge-list I/O.

Vertices are dense indices 0..n-1.  Edges are stored in canonical form
(min, max) so edge sets and colorings compare exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, List, Optional, Tuple

from .errors import (
    EdgeListParseError,
    EmptyGraphError,
    InvalidVertexError,
    SelfLoopError,
)

Edge = Tuple[int, int]

# Largest vertex count an edge-list file may declare.  Every vertex, even an
# isolated one, costs memory, so a larger header is refused before anything
# is allocated.  Peak RSS of `analyze` at this order (child ru_maxrss, Python
# 3.11): 97 MB for a one-edge header, 1.05 GB (about 1 KB a vertex) for the
# path, of which parsing reaches 495 MB and parsing plus decomposition 913 MB.
MAX_VERTEX_COUNT = 1 << 20


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is a strictly increasing tuple of canonical (min, max) pairs
    of vertices in [0, vertex_count); any other tuple raises ValueError.
    ``adjacency`` holds sorted neighbor tuples and is derived, so it is
    excluded from equality and hashing.
    """

    vertex_count: int
    edges: Tuple[Edge, ...]
    adjacency: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False, default=())
    edge_set: frozenset = field(compare=False, repr=False, default=frozenset())

    def __post_init__(self):
        # Appending from the sorted canonical edges fills each vertex's
        # neighbours in ascending order: its lower neighbours u from the
        # edges (u, x), then its higher neighbours from the edges (x, v).
        n = self.vertex_count
        adjacency = [[] for _ in range(n)]
        prev = (0, 0)
        for e in self.edges:
            u, v = e
            if e <= prev or not u < v < n:
                raise ValueError(
                    f"edges must be sorted canonical pairs (u, v), 0 <= u < v < {n}; "
                    f"got {e} after {prev}"
                )
            adjacency[u].append(v)
            adjacency[v].append(u)
            prev = e
        object.__setattr__(self, "adjacency", tuple(map(tuple, adjacency)))
        object.__setattr__(self, "edge_set", frozenset(self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edge_set


@dataclass(frozen=True)
class VertexDegreeView:
    degrees: Tuple[int, ...]
    min_degree: int


def build_graph(vertex_count: int, edge_list: Iterable[Tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, collapsing duplicates.

    Raises InvalidVertexError for out-of-range endpoints and SelfLoopError
    for loops.
    """
    if vertex_count < 0:
        raise InvalidVertexError(f"vertex_count must be nonnegative, got {vertex_count}")
    edges = set()
    for u, v in edge_list:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise InvalidVertexError(f"edge ({u}, {v}) has an endpoint outside [0, {vertex_count})")
        edges.add(canonical_edge(u, v))
    return Graph(vertex_count=vertex_count, edges=tuple(sorted(edges)))


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex."""
    if g.vertex_count == 0:
        raise EmptyGraphError("connectivity is undefined for the empty graph")
    seen = [False] * g.vertex_count
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.vertex_count


def is_complete(g: Graph) -> bool:
    if g.vertex_count == 0:
        raise EmptyGraphError("completeness is undefined for the empty graph")
    n = g.vertex_count
    return g.edge_count == n * (n - 1) // 2


def degree_view(g: Graph) -> VertexDegreeView:
    if g.vertex_count == 0:
        raise EmptyGraphError("degree view is undefined for the empty graph")
    degrees = tuple(len(a) for a in g.adjacency)
    return VertexDegreeView(degrees=degrees, min_degree=min(degrees))


def nonadjacent_pairs(g: Graph) -> List[Edge]:
    """Every pair (u, v), u < v, of nonadjacent vertices, in lexicographic
    order."""
    edge_set = g.edge_set
    return [p for p in combinations(range(g.vertex_count), 2) if p not in edge_set]


def min_nonadjacent_degree_sum(g: Graph) -> Optional[int]:
    """Minimum of deg(x)+deg(y) over nonadjacent pairs; None for complete graphs."""
    deg = [len(a) for a in g.adjacency]
    return min((deg[u] + deg[v] for u, v in nonadjacent_pairs(g)), default=None)


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    First non-comment line is ``n m``, followed by m lines ``u v`` with
    0-based endpoints, each edge once in either orientation.  Lines starting
    with ``#`` are comments.  A header n above MAX_VERTEX_COUNT is an error
    at the header line, raised before anything of size n is allocated.
    """
    n = None  # until the header line
    seen = {}  # u * n + v -> (u, v), u < v
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise EdgeListParseError("expected header 'n m'", lineno)
            try:
                n, expected_m = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError("header fields must be integers", lineno)
            if n < 0:
                raise EdgeListParseError(f"vertex_count must be nonnegative, got {n}", lineno)
            if n > MAX_VERTEX_COUNT:
                raise EdgeListParseError(
                    f"vertex_count must be at most {MAX_VERTEX_COUNT}, got {n}", lineno
                )
            continue
        if len(parts) != 2:
            raise EdgeListParseError("expected edge line 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError("edge endpoints must be integers", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeListParseError(f"edge ({u}, {v}) has an endpoint outside [0, {n})", lineno)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise EdgeListParseError(f"repeated edge {u} {v}", lineno)
        seen[key] = (u, v) if u < v else (v, u)
    if n is None:
        raise EdgeListParseError("missing header 'n m'", 1)
    if len(seen) != expected_m:
        raise EdgeListParseError(
            f"header declares {expected_m} edges but {len(seen)} were given", 1
        )
    return Graph(vertex_count=n, edges=tuple(map(seen.__getitem__, sorted(seen))))


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.vertex_count} {g.edge_count}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
