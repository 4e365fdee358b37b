"""Edge colorings, conflict-free connectivity verification, and the explicit
two-coloring for graphs whose bridge subgraph is a linear forest with at most
one component larger than a single edge (that one of order at most four).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

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
    witness_paths: Optional[Dict[Tuple[int, int], Tuple[int, ...]]]
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


def find_conflict_free_path(
    coloring: EdgeColoring, source: int, target: int
) -> Optional[Tuple[int, ...]]:
    """First conflict-free source-target path in depth-first order, or None
    after the pair's whole simple-path space is exhausted."""
    return conflict_free_path_from_map(coloring.graph, coloring.as_dict(), source, target)


def conflict_free_path_from_map(
    g: Graph, cmap: Dict[Edge, int], source: int, target: int
) -> Optional[Tuple[int, ...]]:
    """Same search as find_conflict_free_path, driven by a raw edge-color map.

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
    """Exhaustive check over all vertex pairs in lexicographic order.

    Worst-case exponential in the graph size; intended as an oracle for
    desk-scale graphs (roughly m <= 25).
    """
    g = coloring.graph
    if not is_connected(g):
        raise NotConnectedError("verification requires a connected graph")
    cmap = coloring.as_dict()
    witnesses: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            p = conflict_free_path_from_map(g, cmap, u, v)
            if p is None:
                return CfcVerdict(
                    is_conflict_free_connected=False,
                    witness_paths=None,
                    failing_pair=(u, v),
                )
            witnesses[(u, v)] = p
    return CfcVerdict(
        is_conflict_free_connected=True, witness_paths=witnesses, failing_pair=None
    )


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
    """Parse the coloring text format against a known graph."""
    color_map: Dict[Edge, int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if parts[0] != "coloring" or len(parts) != 2:
                raise EdgeListParseError("expected header 'coloring t'", lineno)
            header_seen = True
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
    if not header_seen:
        raise EdgeListParseError("missing header 'coloring t'", 1)
    try:
        return make_coloring(g, color_map)
    except ValueError as exc:
        raise EdgeListParseError(str(exc), 1)
