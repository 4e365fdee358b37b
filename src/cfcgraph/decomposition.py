"""Structural analysis: cut edges, blocks, cut vertices, the bridge-induced
subgraph C(G) with its linear-forest classification, and the one edge per
nontrivial block that the two-coloring construction colors 2.

``block_decomposition`` is the one structural pass and the only entry point:
one lowpoint DFS gives every field of ``BlockDecomposition``, C(G) included,
so callers read the cut edges as ``d.cut_edges`` and C(G)'s shape as
``d.component_orders``, ``d.max_degree`` and ``d.longest_cut_path``; no
other module builds C(G).  That DFS, ``_lowpoint``, marks each vertex with
the head of its block.  The block count, the cut vertices, the cut edges and
C(G)'s component orders come straight from the DFS arrays; ``d.blocks`` and
``d.longest_cut_path`` read them only when first read, and
``select_block_edges`` reads them without building a block.
The verifier's per-edge rule in ``coloring`` runs the same DFS once per edge.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .errors import EmptyGraphError, NotConnectedError
from .graph import Edge, Graph


@dataclass(frozen=True)
class BlockDecomposition:
    """What ``block_decomposition`` finds in ``_graph``: the block count, the
    cut vertices, and C(G), the subgraph of the cut edges, as its edges, the
    orders of its components in ascending order and its maximum degree (0
    with no edge).  C(G)'s components are trees, so the largest has one edge
    fewer than vertices.

    ``blocks``, each the sorted tuple of its edges, sorted by first edge, is
    built on first read from the DFS arrays: an edge belongs to the block of
    the tree edge into its deeper end, since a back edge closes a cycle
    through that tree edge, and ``g.edges`` is sorted, so grouping it in
    order yields sorted blocks in that order.  ``longest_cut_path`` is also
    computed on first read."""

    block_count: int
    cut_vertices: FrozenSet[int]
    cut_edges: FrozenSet[Edge]
    component_orders: Tuple[int, ...]
    max_degree: int
    _graph: Graph = field(repr=False)
    _disc: List[int] = field(repr=False, compare=False)
    _head: List[int] = field(repr=False, compare=False)

    @property
    def is_linear_forest(self) -> bool:
        return self.max_degree <= 2

    @property
    def max_component_edges(self) -> int:
        return self.component_orders[-1] - 1 if self.component_orders else 0

    @property
    def lemma_2_2_shape(self) -> bool:
        """Lemma 2.2's necessary condition for cfc = 2: C(G) is a linear
        forest whose every component has at most three edges."""
        return self.is_linear_forest and self.max_component_edges <= 3

    @property
    def construction_applies(self) -> bool:
        """The two-coloring construction's hypothesis: Lemma 2.2's shape with
        every component but the largest (the last order) a single edge."""
        orders = self.component_orders
        return self.lemma_2_2_shape and (len(orders) < 2 or orders[-2] == 2)

    def _edges_by_head(self) -> Iterator[Tuple[int, Edge]]:
        """Each edge of the graph in sorted order with its block's head."""
        disc, head = self._disc, self._head
        for e in self._graph.edges:
            u, v = e
            yield (head[u] if disc[u] > disc[v] else head[v]), e

    @cached_property
    def blocks(self) -> Tuple[Tuple[Edge, ...], ...]:
        blocks: Dict[int, List[Edge]] = {}
        for h, e in self._edges_by_head():
            blocks.setdefault(h, []).append(e)
        return tuple(map(tuple, blocks.values()))

    @cached_property
    def longest_cut_path(self) -> int:
        """The edge count of a longest path of C(G), 0 with no cut edge.  Off
        a linear forest the cut edges are read deeper end first, so
        ``below[x]``, the longest cut-edge path hanging from x, is complete
        when the edge above x joins it to the longest yet at the upper end."""
        if self.is_linear_forest:
            return self.max_component_edges
        disc = self._disc
        below: Dict[int, int] = {}
        longest = 0
        for upper, lower in sorted(
            (sorted(e, key=disc.__getitem__) for e in self.cut_edges), key=lambda e: -disc[e[1]]
        ):
            hanging = below.get(lower, 0) + 1
            longest = max(longest, below.get(upper, 0) + hanging)
            below[upper] = max(below.get(upper, 0), hanging)
        return longest


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
    """Blocks, cut vertices, cut edges and C(G) of a connected graph, all
    from one ``_lowpoint`` run rooted at vertex 0.

    Each block is named by its head.  A cut vertex is the top vertex of a
    block, other than the root; the root is one when it tops two or more
    blocks.  A block whose head heads one tree edge has two vertices, and a
    simple graph has one edge between them, so it is a bridge.  Every bridge
    is thus a tree edge, each component of C(G) is a subtree, and in preorder
    a bridge's upper end is labelled with its component before the bridge is
    read.  The one-vertex graph has no blocks and an empty C(G).  Raises
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
    bridge_heads = [h for h in heads if h not in shared]
    bridges = frozenset([
        (parent[h], h) if parent[h] < h else (h, parent[h]) for h in bridge_heads
    ])
    component = [-1] * n
    orders = []
    for h in bridge_heads:
        c = component[parent[h]]
        if c < 0:
            c = component[parent[h]] = len(orders)
            orders.append(1)
        component[h] = c
        orders[c] += 1
    return BlockDecomposition(
        block_count=len(heads),
        cut_vertices=frozenset(cut),
        cut_edges=bridges,
        component_orders=tuple(sorted(orders)),
        max_degree=max(Counter(chain.from_iterable(bridges)).values(), default=0),
        _graph=g,
        _disc=disc,
        _head=head,
    )


def select_block_edges(d: BlockDecomposition) -> Tuple[Edge, ...]:
    """The least edge of each nontrivial block (a block that is not a cut
    edge), sorted.  One scan of the sorted edges finds them all; it stops once
    every nontrivial block has its edge."""
    wanted = d.block_count - len(d.cut_edges)
    chosen: Dict[int, Edge] = {}
    for h, e in d._edges_by_head():
        if len(chosen) == wanted:
            break
        if h not in chosen and e not in d.cut_edges:
            chosen[h] = e
    return tuple(sorted(chosen.values()))
