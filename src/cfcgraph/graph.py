"""Simple undirected graph: construction, basic queries, and edge-list I/O.

Vertices are dense indices 0..n-1.  Edges are stored in canonical form
(min, max) so edge sets and colorings compare exactly.
"""
from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import combinations, islice, repeat
from operator import eq
from typing import Iterable, Iterator, List, Optional, Tuple

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
# 3.11.7): 97 MB for a one-edge header, 641 MB (about 0.63 KB a vertex) for the
# path, of which parsing reaches 334 MB and parsing plus decomposition 531 MB.
MAX_VERTEX_COUNT = 1 << 20


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph.

    ``Graph(vertex_count, edges)`` takes a strictly increasing tuple of
    canonical (min, max) pairs of vertices in [0, vertex_count); any other
    tuple raises ValueError.  ``adjacency`` holds sorted neighbour tuples.
    The parser builds a graph from its sorted edge keys ``u * n + v``
    (``_from_keys``); then ``edges`` is built on first read.  ``edge_set``
    is always built on first read.  Equality, hashing and repr read
    ``vertex_count`` and ``edges`` alone, as for a frozen dataclass of those
    two fields.
    """

    def __init__(self, vertex_count: int, edges: Tuple[Edge, ...]):
        # Appending from the sorted canonical edges fills each vertex's
        # neighbours in ascending order: its lower neighbours u from the
        # edges (u, x), then its higher neighbours from the edges (x, v).
        n = vertex_count
        adjacency = [[] for _ in range(n)]
        prev = (0, 0)
        for e in edges:
            u, v = e
            if e <= prev or not u < v < n:
                raise ValueError(
                    f"edges must be sorted canonical pairs (u, v), 0 <= u < v < {n}; "
                    f"got {e} after {prev}"
                )
            adjacency[u].append(v)
            adjacency[v].append(u)
            prev = e
        self.__dict__.update(
            vertex_count=n, edges=edges, edge_count=len(edges),
            adjacency=tuple(map(tuple, adjacency)),
        )

    @classmethod
    def _from_keys(cls, vertex_count: int, keys: List[int]) -> "Graph":
        """The graph whose edges are the pairs ``divmod(k, vertex_count)`` of
        the strictly increasing keys ``k = u * vertex_count + v``,
        0 <= u < v < vertex_count; any other list raises ValueError.  No
        edge tuple is made until ``edges`` is read."""
        # With no vertex every key gives u >= v = 0 and is refused.
        n = vertex_count or 1
        adjacency = [[] for _ in range(vertex_count)]
        prev = -1
        for k in keys:
            # Once k > prev >= -1, v < n always holds, so u < v < n iff u < v.
            u, v = divmod(k, n)
            if k <= prev or u >= v:
                raise ValueError(
                    f"edge keys must be increasing u * n + v, 0 <= u < v < n = "
                    f"{vertex_count}; got {k} after {prev}"
                )
            adjacency[u].append(v)
            adjacency[v].append(u)
            prev = k
        g = cls.__new__(cls)
        g.__dict__.update(
            vertex_count=vertex_count, _keys=keys, edge_count=len(keys),
            adjacency=tuple(map(tuple, adjacency)),
        )
        return g

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        # Only a keys-built graph gets here: __init__ stores its edges.
        return tuple(map(divmod, self._keys, repeat(self.vertex_count)))

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edge_set

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"


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


def min_degree(g: Graph) -> int:
    if g.vertex_count == 0:
        raise EmptyGraphError("minimum degree is undefined for the empty graph")
    return min(map(len, g.adjacency))


def nonadjacent_pairs(g: Graph) -> Iterator[Edge]:
    """Every pair (u, v), u < v, of nonadjacent vertices, in lexicographic
    order, each made only when read."""
    edge_set = g.edge_set
    return (p for p in combinations(range(g.vertex_count), 2) if p not in edge_set)


def min_nonadjacent_degree_sum(g: Graph) -> Optional[int]:
    """Minimum of deg(x)+deg(y) over nonadjacent pairs; None for complete graphs.

    The vertices are scanned in ascending degree.  The first later vertex
    not adjacent to x gives x's least sum, so x's scan stops there, or as
    soon as the sum reaches the best so far; the whole scan stops once
    2 deg(x) does.  x reads at most deg(x) + 1 later vertices, so the cost
    is O(n log n + m) rather than one step per pair.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    order = sorted(range(n), key=lambda x: len(adjacency[x]))
    deg = [len(adjacency[x]) for x in order]
    best = 2 * n  # above every degree sum
    for i in range(n):
        dx = deg[i]
        if 2 * dx >= best:
            break
        neighbours = set(adjacency[order[i]])
        for j in range(i + 1, n):
            s = dx + deg[j]
            if s >= best:
                break
            if order[j] not in neighbours:
                best = s
                break
    return best if best < 2 * n else None


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    First non-comment line is ``n m``, followed by m lines ``u v`` with
    0-based endpoints, each edge once in either orientation.  Lines starting
    with ``#`` are comments.  Every field is ASCII digits, optionally after a
    minus sign (``_int_field``).  A header n above MAX_VERTEX_COUNT is an error
    at the header line, raised before anything of size n is allocated.

    Plain text takes a bulk path (``_parse_plain``); all other text, and
    plain text that fails a check, goes through the line loop
    (``_parse_lines``), the only path that reports errors.
    """
    g = _parse_plain(text)
    return g if g is not None else _parse_lines(text)


# The line breaks of ``str.splitlines`` other than "\n".  Before the header
# any of them would split a line the bulk path reads as one.
_OTHER_LINE_BREAKS = re.compile("[\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
_PLAIN_HEADER = re.compile(r"[ \t]*([0-9]+)[ \t]+([0-9]+)[ \t]*")
_INT_FIELD = re.compile("-?[0-9]+")
# Deletes ASCII digits and turns a tab into a space: a plain body becomes
# " \n" per line.  The other table turns it into JSON list items.
_SEPARATORS = {ord(c): None for c in "0123456789"}
_SEPARATORS[ord("\t")] = " "
_TO_JSON_ITEMS = str.maketrans(" \t\n", ",,,")


def _parse_plain(text: str) -> Optional[Graph]:
    """The graph of a plain edge list, read in bulk; None when ``text`` is
    not plain or fails a check, so the line loop reads it and names the
    error.

    Plain: the header comes after nothing but blank and comment lines, and
    every later line is two runs of ASCII digits separated by one space or
    tab, with "\n" line ends.  The body's tokens become ints in one JSON
    decode (a token with a leading zero is not JSON, so it goes to the line
    loop), each edge a canonical key ``u * n + v``; range, self-loops, the
    declared count and repeats are checked over the whole list at once, and
    the graph is built from the sorted keys.
    """
    pos = 0
    while True:  # the header line is text[pos:end]
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line = text[pos:end].strip()
        if line and not line.startswith("#"):
            break
        if end == len(text):
            return None
        pos = end + 1
    header = _PLAIN_HEADER.fullmatch(text, pos, end)
    if header is None or _OTHER_LINE_BREAKS.search(text, 0, end):
        return None
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:  # past int's digit limit
        return None
    if n > MAX_VERTEX_COUNT:
        return None
    body = text[end + 1:len(text) - text.endswith("\n")]
    if body:
        seps = body.translate(_SEPARATORS)
        if seps != " \n" * (len(seps) // 2) + " ":
            return None
    # The body and then the ints are dropped as soon as the next stage has
    # read them, which keeps the peak memory below the line loop's.
    try:
        ends = json.loads("[" + body.translate(_TO_JSON_ITEMS) + "]") if body else []
    except ValueError:
        return None
    del body
    if len(ends) != 2 * m:
        return None
    self_loop = any(map(eq, islice(ends, 0, None, 2), islice(ends, 1, None, 2)))
    if self_loop or max(ends, default=-1) >= n:
        return None
    pairs = iter(ends)
    keys = [u * n + v if u < v else v * n + u for u, v in zip(pairs, pairs)]
    del ends, pairs
    keys.sort()
    if any(map(eq, keys, islice(keys, 1, None))):
        return None
    return Graph._from_keys(n, keys)


def _int_field(field: str) -> int:
    """An integer field of the text formats: ASCII digits after an optional
    minus sign.  "+1", "2_0" or a non-ASCII digit raises ValueError."""
    if _INT_FIELD.fullmatch(field) is None:
        raise ValueError(f"not an integer field: {field!r}")
    return int(field)


def _parse_lines(text: str) -> Graph:
    """``parse_edge_list`` line by line, raising EdgeListParseError at the
    first bad line."""
    n = None  # until the header line
    seen = set()  # u * n + v, u < v
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise EdgeListParseError("expected header 'n m'", lineno)
            try:
                n, expected_m = _int_field(parts[0]), _int_field(parts[1])
            except ValueError:
                raise EdgeListParseError("header fields must be integers", lineno)
            if n < 0:
                raise EdgeListParseError(f"vertex_count must be nonnegative, got {n}", lineno)
            if n > MAX_VERTEX_COUNT:
                raise EdgeListParseError(
                    f"vertex_count must be at most {MAX_VERTEX_COUNT}, got {n}", lineno
                )
            header_line = lineno
            continue
        if len(parts) != 2:
            raise EdgeListParseError("expected edge line 'u v'", lineno)
        try:
            u, v = _int_field(parts[0]), _int_field(parts[1])
        except ValueError:
            raise EdgeListParseError("edge endpoints must be integers", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeListParseError(f"edge ({u}, {v}) has an endpoint outside [0, {n})", lineno)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise EdgeListParseError(f"repeated edge {u} {v}", lineno)
        seen.add(key)
    if n is None:
        raise EdgeListParseError("missing header 'n m'", 1)
    if len(seen) != expected_m:
        raise EdgeListParseError(
            f"header declares {expected_m} edges but {len(seen)} were given", header_line
        )
    return Graph._from_keys(n, sorted(seen))


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``.  A byte that is not UTF-8 is
    an EdgeListParseError at the line that holds the first such byte,
    numbered as the parsers number lines; only then is the file re-read as
    bytes to find it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte's line is the last line of the good prefix plus one
        # character; its line breaks count as they do in the decoded text.
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise EdgeListParseError(
            f"{path} is not UTF-8 text (byte 0x{data[exc.start]:02x})", lineno
        ) from None


def read_edge_list(path) -> Graph:
    return parse_edge_list(read_text(path))


def format_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.vertex_count} {g.edge_count}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
