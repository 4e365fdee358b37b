"""Differential check of the edge-list bulk parser, the graph the parser
builds from edge keys, the blocks built on first read, C(G) as the structural
pass reads it off the DFS, the solver's bridge-forest bound h(G), the JSON
writer and the least degree sum of a nonadjacent pair, using only the
standard library, for interpreters without pytest.

    PYTHONPATH=src python tests/stdlib_equivalence.py

``parse_edge_list`` must give the same graph, or the same error line and
message, as the line loop on random edge-list texts, and the bulk path must
agree with the line loop wherever it accepts a text.  A ``Graph`` built from
the sorted keys ``u * n + v`` must match ``build_graph`` on the same edges in
every field, equality, hash and repr.  ``block_decomposition``'s ``blocks``
must match conftest's block oracle, and its fields and properties of C(G),
the longest path of C(G) included, conftest's bridge-subgraph oracle, with
each component's diameter found by a search from every vertex, on random
connected graphs.
``solver.bridge_forest_bound`` must be h(G) as the oracle's components of
C(G) give it.
``cli._render`` must write ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline on random nested payloads, rows of ints and their near
misses included.  ``min_nonadjacent_degree_sum``
must be the least degree sum over all nonadjacent pairs, on random graphs of
up to 40 vertices from edgeless to complete, disconnected ones included.  Exits 1 on the first mismatch,
naming its input.

The generators and checks are also the ones the pytest suite runs, with
hypothesis drawing the ``random.Random`` they read from.
"""
from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from itertools import combinations

from cfcgraph.cli import _render
from cfcgraph.decomposition import block_decomposition
from cfcgraph.errors import EdgeListParseError
from cfcgraph.graph import (
    Graph,
    _parse_lines,
    _parse_plain,
    build_graph,
    min_nonadjacent_degree_sum,
    parse_edge_list,
)
from cfcgraph.solver import bridge_forest_bound
from conftest import block_oracle, bridge_subgraph_oracle

CASES = 3000
SEED = 0
# Digits, the separators and comment mark of the format, other ASCII
# punctuation, the line breaks str.splitlines knows besides "\n", and a
# non-ASCII digit.
ALPHABET = "0123456789 \t\n\r#+_-\x0b\x0c\x1c\x85\u2028\u0663"
STRINGS = ["", "a", "\u00e9t\u00e9", " ", '"\\\n\t', "\u2028", "\U0001f600", "k"]
# Code points for random strings: printable ASCII, control characters,
# non-ASCII, lone surrogates and astral.
CHARS = " ~az09\"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600"
FLOATS = [0.5, -0.0, 1e300, 5e-324, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")]


def outcome(parse, text):
    """The graph ``parse`` returns for ``text``, or its error's line and
    message."""
    try:
        return parse(text)
    except EdgeListParseError as exc:
        return exc.line_number, str(exc)


def parse_agrees(text: str) -> bool:
    """``parse_edge_list`` matches the line loop on ``text``, and the bulk
    path, where it accepts ``text``, gives the line loop's graph."""
    expected = outcome(_parse_lines, text)
    return outcome(parse_edge_list, text) == expected and _parse_plain(text) in (None, expected)


def keys_graph_agrees(n: int, edges) -> bool:
    """The graph of the sorted keys of ``edges`` equals ``build_graph(n,
    edges)`` in every field, equality, hash and repr, and builds its edge
    tuples only when ``edges`` is first read."""
    g = build_graph(n, edges)
    kg = Graph._from_keys(n, sorted(u * n + v for u, v in g.edges))
    if "edges" in vars(kg) or kg.edge_count != g.edge_count:
        return False
    return (kg.edges, kg.adjacency, kg.edge_set, hash(kg), repr(kg)) == (
        g.edges, g.adjacency, g.edge_set, hash(g), repr(g)
    ) and kg == g and g == kg


def blocks_agree(g: Graph) -> bool:
    """``block_decomposition(g).blocks``, built on first read, are the block
    oracle's; ``block_count`` counts them and the trivial ones are the cut
    edges."""
    d = block_decomposition(g)
    if "blocks" in vars(d):
        return False
    blocks = list(d.blocks)
    return (
        blocks == block_oracle(g)
        and d.block_count == len(blocks)
        and d.cut_edges == frozenset(b[0] for b in blocks if len(b) == 1)
    )


def tree_shape(vertices, edges):
    """``(maximum degree, diameter)`` of a component of the bridge-subgraph
    oracle's C(G), the diameter the longest distance a breadth-first search
    from any vertex reaches."""
    nbrs = {x: [] for x in vertices}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    diameter = 0
    for source in vertices:
        seen, frontier, depth = {source}, [source], 0
        while True:
            frontier = [y for x in frontier for y in nbrs[x] if y not in seen]
            if not frontier:
                break
            seen.update(frontier)
            depth += 1
        diameter = max(diameter, depth)
    return max(len(ys) for ys in nbrs.values()), diameter


def profile_agrees(g: Graph) -> bool:
    """``block_decomposition(g)`` has the cut edges, ascending component
    orders, linear-forest verdict, largest component size, maximum degree
    and longest path of the bridge-subgraph oracle's C(G), the longest path
    being the largest component diameter."""
    d = block_decomposition(g)
    bridges, components = bridge_subgraph_oracle(g)
    ends = [x for c in components for e in c[1] for x in e]
    return (
        d.cut_edges, d.component_orders, d.is_linear_forest, d.max_component_edges, d.max_degree,
        d.longest_cut_path,
    ) == (
        bridges,
        tuple(len(c[0]) for c in components),
        all(c[2] is not None for c in components),
        max((len(c[1]) for c in components), default=0),
        max(Counter(ends).values(), default=0),
        max((tree_shape(*c[:2])[1] for c in components), default=0),
    )


def bound_agrees(g: Graph) -> bool:
    """``bridge_forest_bound`` of g's decomposition is h(G): over the components of
    the bridge-subgraph oracle's C(G), the largest of the maximum degree and
    ceil(log2(diameter + 1)); 0 when C(G) is empty."""
    _, components = bridge_subgraph_oracle(g)
    h = 0
    for vertices, edges, _ in components:
        degree, diameter = tree_shape(vertices, edges)
        h = max(h, degree, math.ceil(math.log2(diameter + 1)))
    return bridge_forest_bound(block_decomposition(g)) == h


def degree_sum_agrees(g: Graph) -> bool:
    """``min_nonadjacent_degree_sum(g)`` is the least deg(x) + deg(y) over
    all pairs x < y not joined by an edge, None when every pair is."""
    deg = [len(a) for a in g.adjacency]
    sums = (
        deg[x] + deg[y] for x, y in combinations(range(g.vertex_count), 2)
        if (x, y) not in g.edge_set
    )
    return min_nonadjacent_degree_sum(g) == min(sums, default=None)


def render_agrees(payload) -> bool:
    return _render(payload, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def edge_list_text(rng: random.Random) -> str:
    """A well-formed edge list (comments, header, edge lines in either
    orientation) with a few characters of the alphabet put in or swapped,
    or free text over the alphabet."""
    if rng.random() < 0.3:
        return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(40)))
    n = rng.randrange(7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
    lines = ["# c"] * rng.randrange(3) + [f"{n} {len(edges)}"]
    lines += [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
    chars = list("\n".join(lines) + rng.choice(["", "\n"]))
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        i = rng.randrange(len(chars) + 1)
        if i < len(chars) and rng.random() < 0.5:
            chars[i] = rng.choice(ALPHABET)
        else:
            chars.insert(i, rng.choice(ALPHABET))
    return "".join(chars)


def edge_list(rng: random.Random):
    """``(n, edges)``: 0-9 vertices and any set of edges, each in either
    orientation, in random order."""
    n = rng.randrange(10)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
    return n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def connected_graph(rng: random.Random) -> Graph:
    """A random spanning tree on 1-9 vertices plus each other pair with one
    random probability: from trees to dense graphs."""
    n = rng.randint(1, 9)
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    p = rng.random() ** 2
    chords = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return build_graph(n, sorted(tree.union(chords)))


def any_graph(rng: random.Random) -> Graph:
    """A graph on 1-40 vertices with each pair an edge with one probability
    in [0.02, 1]: from edgeless and disconnected graphs to complete ones."""
    n = rng.randint(1, 40)
    p = rng.uniform(0.02, 1.0)
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def string(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(STRINGS)
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(8)))


def integer(rng: random.Random) -> int:
    return rng.randrange(-10**20, 10**20) if rng.random() < 0.2 else rng.randrange(-5, 100)


def int_rows(rng: random.Random):
    """Rows of ints of one width, as lists or tuples, which the JSON writer
    fills into one template each, or such rows with one near miss it must
    refuse: a bool, float or None in a row, a ragged width, all rows empty,
    or an item that is not a row."""
    width = rng.randint(1, 4)
    rows = [[integer(rng) for _ in range(width)] for _ in range(rng.randint(1, 5))]
    miss = rng.randrange(8)
    i = rng.randrange(len(rows))
    if miss == 0:
        rows[i][rng.randrange(width)] = rng.choice([True, False, 1.0, -0.5, None])
    elif miss == 1:
        rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + [integer(rng)]
    elif miss == 2:
        rows = [[] for _ in rows]
    elif miss == 3:
        rows[i] = rng.choice([integer(rng), string(rng), {}, {"a": 1}])
    rows = [tuple(r) if type(r) is list and rng.random() < 0.3 else r for r in rows]
    return rows if rng.random() < 0.7 else tuple(rows)


def json_value(rng: random.Random, depth: int = 0):
    """A bool, None, int, float or string, or below depth 3 also a list,
    tuple, or dict with str or with int keys, of such values, or rows of
    ints."""
    kind = rng.randrange(10 if depth < 3 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return integer(rng)
    if kind == 2:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind in (3, 4, 5):
        return string(rng)
    if kind == 9:
        return int_rows(rng)
    items = [json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return items if rng.random() < 0.7 else tuple(items)
    if kind == 7:
        return {string(rng): v for v in items}
    return {rng.randrange(-3, 4): v for v in items}


def payload(rng: random.Random) -> dict:
    return {string(rng): json_value(rng) for _ in range(rng.randrange(6))}


def main() -> int:
    rng = random.Random(SEED)
    bulk = 0
    for _ in range(CASES):
        text = edge_list_text(rng)
        if not parse_agrees(text):
            print(f"parse mismatch on {text!r}", file=sys.stderr)
            return 1
        bulk += _parse_plain(text) is not None
    for _ in range(CASES):
        n, edges = edge_list(rng)
        if not keys_graph_agrees(n, edges):
            print(f"keys-built graph mismatch on {n} {edges!r}", file=sys.stderr)
            return 1
    for _ in range(CASES):
        g = connected_graph(rng)
        if not blocks_agree(g):
            print(f"blocks mismatch on {g!r}", file=sys.stderr)
            return 1
    for _ in range(CASES):
        g = connected_graph(rng)
        if not profile_agrees(g):
            print(f"C(G) profile mismatch on {g!r}", file=sys.stderr)
            return 1
    for _ in range(CASES):
        p = payload(rng)
        if not render_agrees(p):
            print(f"render mismatch on {p!r}", file=sys.stderr)
            return 1
    for _ in range(CASES):
        g = connected_graph(rng)
        if not bound_agrees(g):
            print(f"h(G) mismatch on {g!r}", file=sys.stderr)
            return 1
    for _ in range(CASES):
        g = any_graph(rng)
        if not degree_sum_agrees(g):
            print(f"degree sum mismatch on {g!r}", file=sys.stderr)
            return 1
    print(f"{CASES} texts ({bulk} read in bulk), {CASES} keys-built graphs, "
          f"{CASES} block decompositions, {CASES} C(G) profiles, {CASES} payloads, "
          f"{CASES} h(G) bounds and {CASES} least degree sums agree "
          f"on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
