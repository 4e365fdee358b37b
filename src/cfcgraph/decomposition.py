"""Structural analysis: cut edges, blocks, block-cut tree, the bridge-induced
subgraph C(G) with its linear-forest classification, and the per-block
matching selection used by the two-coloring construction.

``block_decomposition`` is the one structural pass and the only entry point:
one lowpoint DFS gives every field, C(G) included.  Callers read the cut edges
and C(G) off it as ``d.cut_edges`` and ``d.profile``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import EmptyGraphError, NotConnectedError
from .graph import Edge, Graph, canonical_edge


@dataclass(frozen=True)
class Block:
    """One block: its edges (canonical, sorted) and induced vertex set."""

    edges: Tuple[Edge, ...]
    vertices: Tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return len(self.edges) == 1


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: Tuple[Block, ...]
    cut_vertices: FrozenSet[int]
    profile: CutEdgeProfile

    @property
    def cut_edges(self) -> FrozenSet[Edge]:
        return self.profile.cut_edges


@dataclass(frozen=True)
class BridgeComponent:
    """One connected component of the bridge-induced subgraph.

    ``path_sequence`` is the vertex order along the component when it is a
    path, starting from its lowest-index degree-1 endpoint; None otherwise.
    """

    vertices: Tuple[int, ...]
    edges: Tuple[Edge, ...]
    path_sequence: Optional[Tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def is_path(self) -> bool:
        return self.path_sequence is not None


@dataclass(frozen=True)
class CutEdgeProfile:
    cut_edges: FrozenSet[Edge]
    components: Tuple[BridgeComponent, ...]
    is_linear_forest: bool
    component_orders: Tuple[int, ...]
    max_component_edges: int

    @property
    def largest(self) -> Optional[BridgeComponent]:
        return self.components[-1] if self.components else None

    @property
    def lemma_2_2_shape(self) -> bool:
        """Lemma 2.2's necessary condition for cfc = 2: C(G) is a linear
        forest whose every component has at most three edges."""
        return self.is_linear_forest and self.max_component_edges <= 3


def _biconnected(g: Graph) -> Tuple[List[List[Edge]], set]:
    """Iterative lowpoint DFS: returns (blocks as edge lists, cut vertices).

    Each block is the slice of the edge stack above its tree edge; a DFS
    pushes every edge once, so a block lists each of its edges once.
    Raises NotConnectedError when it reaches fewer than all vertices.
    """
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("connectivity is undefined for the empty graph")
    adjacency = g.adjacency
    disc = [-1] * n
    low = [0] * n
    blocks: List[List[Edge]] = []
    cut = set()
    edge_stack: List[Edge] = []

    root = 0
    counter = 0
    disc[root] = low[root] = counter
    counter += 1
    # Frame: vertex, DFS parent, neighbour iterator, edge-stack height at
    # the tree edge into the vertex.
    frames = [(root, -1, iter(adjacency[root]), 0)]
    root_children = 0

    while frames:
        u, pu, it, _ = frames[-1]
        pushed = False
        for v in it:
            if v == pu:
                continue
            if disc[v] == -1:
                frames.append((v, u, iter(adjacency[v]), len(edge_stack)))
                edge_stack.append((u, v) if u < v else (v, u))
                disc[v] = low[v] = counter
                counter += 1
                if u == root:
                    root_children += 1
                pushed = True
                break
            if disc[v] < disc[u]:
                edge_stack.append((u, v) if u < v else (v, u))
                if disc[v] < low[u]:
                    low[u] = disc[v]
        if pushed:
            continue
        _, p, _, height = frames.pop()
        if frames:
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                if p != root:
                    cut.add(p)
                blocks.append(edge_stack[height:])
                del edge_stack[height:]
    if counter != n:
        raise NotConnectedError("operation requires a connected graph")
    if root_children >= 2:
        cut.add(root)
    return blocks, cut


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks, cut vertices, cut edges and the cut-edge profile of a
    connected graph, all from one lowpoint pass.  The one-vertex graph has
    no blocks and an empty profile."""
    raw_blocks, cut = _biconnected(g)
    blocks = []
    for edge_list in raw_blocks:
        if len(edge_list) == 1:
            blocks.append(Block(edges=tuple(edge_list), vertices=edge_list[0]))
            continue
        edge_list.sort()
        vertices = tuple(sorted({x for e in edge_list for x in e}))
        blocks.append(Block(edges=tuple(edge_list), vertices=vertices))
    # Blocks are edge-disjoint, so their first edges alone fix the order.
    blocks.sort(key=lambda b: b.edges[0])
    cut_edges = frozenset(b.edges[0] for b in blocks if b.is_trivial)
    return BlockDecomposition(
        blocks=tuple(blocks),
        cut_vertices=frozenset(cut),
        profile=_bridge_profile(cut_edges),
    )


def _bridge_profile(bridges: FrozenSet[Edge]) -> CutEdgeProfile:
    """C(G) from its edges: one walk per component collects its vertices and
    edges.  All components are acyclic, so the linear-forest test reduces to
    max degree <= 2 within the bridge subgraph.
    """
    adj: Dict[int, List[int]] = {}
    for u, v in bridges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    seen = set()
    components = []
    for start in adj:
        if start in seen:
            continue
        comp = [start]
        comp_edges = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    comp_edges.append(canonical_edge(u, w))
                    stack.append(w)
        comp_vertices = tuple(sorted(comp))
        comp_edges = tuple(sorted(comp_edges))
        path_sequence = None
        if all(len(adj[v]) <= 2 for v in comp_vertices):
            cur = min(v for v in comp_vertices if len(adj[v]) == 1)
            prev = None
            seq = [cur]
            while len(seq) < len(comp_vertices):
                nxt = [w for w in adj[cur] if w != prev][0]
                seq.append(nxt)
                prev, cur = cur, nxt
            path_sequence = tuple(seq)
        components.append(
            BridgeComponent(
                vertices=comp_vertices, edges=comp_edges, path_sequence=path_sequence
            )
        )
    components.sort(key=lambda c: (c.order, c.vertices))
    return CutEdgeProfile(
        cut_edges=bridges,
        components=tuple(components),
        is_linear_forest=all(c.is_path for c in components),
        component_orders=tuple(c.order for c in components),
        max_component_edges=max((len(c.edges) for c in components), default=0),
    )


def select_block_matching(d: BlockDecomposition) -> Tuple[Edge, ...]:
    """Choose one edge per nontrivial block so the choices form a matching;
    returns them sorted.

    The block-cut tree is rooted at the lowest-index cut vertex (or at the
    unique block when there is none); each nontrivial block avoids the cut
    vertex on its path toward the root.  A 2-connected block minus one vertex
    still contains an edge, and for any cut vertex at most one incident block
    (the root-side one) may pick an edge touching it, so the result is a
    matching.  Lowest canonical-order choice keeps the output deterministic.
    """
    blocks_at: Dict[int, List[int]] = {}
    cuts_of: Dict[int, List[int]] = {}
    for bi, b in enumerate(d.blocks):
        for v in b.vertices:
            if v in d.cut_vertices:
                blocks_at.setdefault(v, []).append(bi)
                cuts_of.setdefault(bi, []).append(v)
    # Root-side cut vertex per block, from one walk down the tree: a cut
    # vertex is entered from its parent block, a block from its parent cut
    # vertex, and neither walks back to where it came from.
    attachment: Dict[int, int] = {}
    stack = [(min(d.cut_vertices), -1)] if d.cut_vertices else []
    while stack:
        x, from_block = stack.pop()
        for bi in blocks_at[x]:
            if bi != from_block:
                attachment[bi] = x
                stack.extend((v, bi) for v in cuts_of[bi] if v != x)

    chosen = sorted(
        min(e for e in b.edges if attachment.get(bi) not in e)
        for bi, b in enumerate(d.blocks)
        if not b.is_trivial
    )
    # Matching property is guaranteed by construction; check defensively.
    used = set()
    for u, v in chosen:
        assert u not in used and v not in used, "chosen edges are not a matching"
        used.update((u, v))
    return tuple(chosen)
