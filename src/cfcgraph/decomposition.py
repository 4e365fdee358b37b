"""Structural analysis: cut edges, blocks, block-cut tree, the bridge-induced
subgraph C(G) with its linear-forest classification, and the per-block
matching selection used by the two-coloring construction.

``block_decomposition`` is the one structural pass and the only entry point:
one lowpoint DFS gives every field, C(G) included.  Callers read the cut edges
and C(G) off it as ``d.cut_edges`` and ``d.profile``.  That DFS, ``_lowpoint``,
marks each vertex with the head of its block.  The block count, the cut
vertices and the cut edges come straight from the DFS arrays; ``d.blocks``
groups the edges by block head only when first read.  The verifier's per-edge
rule in ``coloring`` runs the same DFS once per edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import EmptyGraphError, NotConnectedError
from .graph import Edge, Graph


@dataclass(frozen=True)
class Block:
    """One block: its edges (canonical, sorted).  ``vertices``, the sorted
    vertex set, is computed on first use."""

    edges: Tuple[Edge, ...]

    @cached_property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(sorted({x for e in self.edges for x in e}))

    @property
    def is_trivial(self) -> bool:
        return len(self.edges) == 1


@dataclass(frozen=True)
class BlockDecomposition:
    """What ``block_decomposition`` finds in ``_graph``.  ``blocks``, sorted
    by first edge, is built on first read from the DFS arrays: an edge
    belongs to the block of the tree edge into its deeper end, since a back
    edge closes a cycle through that tree edge, and ``g.edges`` is sorted,
    so grouping it in order yields sorted blocks in that order."""

    block_count: int
    cut_vertices: FrozenSet[int]
    profile: CutEdgeProfile
    _graph: Graph = field(repr=False)
    _disc: List[int] = field(repr=False, compare=False)
    _head: List[int] = field(repr=False, compare=False)

    @property
    def cut_edges(self) -> FrozenSet[Edge]:
        return self.profile.cut_edges

    @cached_property
    def blocks(self) -> Tuple[Block, ...]:
        disc, head = self._disc, self._head
        blocks: Dict[int, List[Edge]] = {}
        for e in self._graph.edges:
            u, v = e
            blocks.setdefault(head[u] if disc[u] > disc[v] else head[v], []).append(e)
        return tuple(map(Block, map(tuple, blocks.values())))


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


def _lowpoint(
    adj: Sequence[Sequence[int]], root: int, disc: List[int], low: List[int],
    parent: List[int], head: List[int], clock: int,
) -> Tuple[List[int], int]:
    """Iterative lowpoint DFS of ``adj`` from ``root`` (Tarjan 1972): returns
    the vertices reached besides ``root`` in preorder, and the last discovery
    time used.

    Discovery times go on from ``clock``, so one set of arrays serves many
    runs: a vertex is reached in this run iff ``disc >= disc[root]``.  For
    each reached w it fills ``disc``, ``parent``, ``low`` (the least
    discovery time among w's subtree and its neighbours, so at most
    ``disc[parent[w]]``) and ``head[w]``: the deeper end of the topmost tree
    edge of the block that holds the tree edge into w, so that
    ``parent[head[w]]`` is that block's vertex nearest ``root``.

    The vertex being scanned and its neighbour iterator are locals; the
    stack holds only its ancestors' iterators, and ``parent`` names the
    vertex to return to, so a frame costs no tuple.
    """
    clock += 1
    start = disc[root] = low[root] = clock
    order = []
    stack = []
    x, it = root, iter(adj[root])
    while True:
        for w in it:
            if disc[w] < start:
                clock += 1
                disc[w] = low[w] = clock
                parent[w] = x
                order.append(w)
                stack.append(it)
                x, it = w, iter(adj[w])
                break
            if disc[w] < low[x]:
                low[x] = disc[w]
        else:
            if not stack:
                break
            p = parent[x]
            if low[x] < low[p]:
                low[p] = low[x]
            x, it = p, stack.pop()
    # A tree edge pw starts a block iff nothing below w reaches above p.
    for w in order:
        p = parent[w]
        head[w] = w if low[w] >= disc[p] else head[p]
    return order, clock


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks, cut vertices, cut edges and the cut-edge profile of a
    connected graph, all from one ``_lowpoint`` run rooted at vertex 0.

    Each block is named by its head.  A cut vertex is the top vertex of a
    block, other than the root; the root is one when it tops two or more
    blocks.  A block whose head heads one tree edge has two vertices, and a
    simple graph has one edge between them, so it is a bridge.  The
    one-vertex graph has no blocks and an empty profile.  Raises
    EmptyGraphError when g has no vertex and NotConnectedError when the DFS
    reaches fewer than all vertices.
    """
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("connectivity is undefined for the empty graph")
    disc = [0] * n
    parent = [0] * n
    head = [0] * n
    order, _ = _lowpoint(g.adjacency, 0, disc, [0] * n, parent, head, 0)
    if len(order) != n - 1:
        raise NotConnectedError("operation requires a connected graph")
    heads = [w for w in order if head[w] == w]
    shared = {head[w] for w in order if head[w] != w}  # heads of 2+ tree edges
    tops = [parent[h] for h in heads]
    cut = {x for x in tops if x != 0}
    if tops.count(0) >= 2:
        cut.add(0)
    bridges = frozenset([
        (parent[h], h) if parent[h] < h else (h, parent[h])
        for h in heads if h not in shared
    ])
    return BlockDecomposition(
        block_count=len(heads),
        cut_vertices=frozenset(cut),
        profile=_bridge_profile(bridges),
        _graph=g,
        _disc=disc,
        _head=head,
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
                    comp_edges.append((u, w) if u < w else (w, u))
                    stack.append(w)
        comp.sort()
        comp_edges.sort()
        path_sequence = None
        if all(len(adj[v]) <= 2 for v in comp):
            # From the least endpoint, each step leaves by the neighbour it
            # did not come from.
            prev = next(v for v in comp if len(adj[v]) == 1)
            cur = adj[prev][0]
            seq = [prev, cur]
            for _ in range(len(comp) - 2):
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                seq.append(cur)
            path_sequence = tuple(seq)
        components.append(
            BridgeComponent(
                vertices=tuple(comp), edges=tuple(comp_edges), path_sequence=path_sequence
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
