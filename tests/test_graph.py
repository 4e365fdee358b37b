import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import cfcgraph as cfc
from cfcgraph.errors import (
    EdgeListParseError,
    EmptyGraphError,
    InvalidVertexError,
    SelfLoopError,
)
from cfcgraph.graph import (
    MAX_VERTEX_COUNT,
    Graph,
    _parse_lines,
    _parse_plain,
    nonadjacent_pairs,
    read_edge_list,
    read_text,
)
from stdlib_equivalence import (
    any_graph,
    degree_sum_agrees,
    edge_list,
    edge_list_text,
    keys_graph_agrees,
    parse_agrees,
)


def test_build_triangle():
    g = cfc.build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_trivial_graph():
    g = cfc.build_graph(1, [])
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_build_collapses_duplicates():
    g = cfc.build_graph(4, [(0, 1), (1, 0), (1, 2)])
    assert g.edge_count == 2


def test_build_rejects_out_of_range():
    with pytest.raises(InvalidVertexError):
        cfc.build_graph(3, [(0, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        cfc.build_graph(3, [(1, 1)])


def test_is_connected():
    path = cfc.build_graph(5, [(i, i + 1) for i in range(4)])
    assert cfc.is_connected(path)
    two_triangles = cfc.build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert not cfc.is_connected(two_triangles)
    assert cfc.is_connected(cfc.build_graph(1, []))
    with pytest.raises(EmptyGraphError):
        cfc.is_connected(cfc.build_graph(0, []))


def test_is_complete():
    k4 = cfc.build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert cfc.is_complete(k4)
    c4 = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not cfc.is_complete(c4)
    assert cfc.is_complete(cfc.build_graph(1, []))


def test_degree_view():
    tri = cfc.build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert tuple(map(len, tri.adjacency)) == (2, 2, 2)
    assert cfc.min_degree(tri) == 2
    star = cfc.build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert tuple(map(len, star.adjacency)) == (3, 1, 1, 1)
    assert cfc.min_degree(star) == 1
    assert cfc.min_degree(cfc.build_graph(2, [])) == 0
    with pytest.raises(EmptyGraphError):
        cfc.min_degree(cfc.build_graph(0, []))


def test_degree_view_h_family():
    from cfcgraph.families import gen_H

    # delta = (n - k) / k = (9 - 3) / 3 for k = 3, t = 3
    assert cfc.min_degree(gen_H(3, 3)) == 2


def test_min_nonadjacent_degree_sum():
    k4 = cfc.build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert cfc.min_nonadjacent_degree_sum(k4) is None
    p3 = cfc.build_graph(3, [(0, 1), (1, 2)])
    assert cfc.min_nonadjacent_degree_sum(p3) == 2


def test_min_nonadjacent_degree_sum_matches_brute_force():
    # The early-stopping scan against every nonadjacent pair, on 500 random
    # graphs (n 1-40, p 0.02-1) and on complete, edgeless and disconnected ones.
    rng = random.Random(24)
    for _ in range(500):
        g = any_graph(rng)
        assert degree_sum_agrees(g), g
    for n in (1, 2, 5, 40):
        complete = cfc.build_graph(n, combinations(range(n), 2))
        assert cfc.min_nonadjacent_degree_sum(complete) is None
    for n in (2, 3, 40):
        assert cfc.min_nonadjacent_degree_sum(cfc.build_graph(n, [])) == 0
    two_k5 = cfc.build_graph(10, [*combinations(range(5), 2), *combinations(range(5, 10), 2)])
    assert cfc.min_nonadjacent_degree_sum(two_k5) == 8
    k20_and_a_vertex = cfc.build_graph(21, combinations(range(20), 2))
    assert cfc.min_nonadjacent_degree_sum(k20_and_a_vertex) == 19


def test_min_nonadjacent_degree_sum_d_family():
    from cfcgraph.families import gen_D

    assert cfc.min_nonadjacent_degree_sum(gen_D(5)) >= 10


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return n, edges


@given(edge_lists())
def test_degree_sum_is_twice_edge_count(ne):
    n, edges = ne
    g = cfc.build_graph(n, edges)
    assert sum(map(len, g.adjacency)) == 2 * g.edge_count
    assert cfc.min_degree(g) == min(map(len, g.adjacency))


@given(edge_lists(), st.randoms())
def test_build_graph_order_independent(ne, rnd):
    n, edges = ne
    shuffled = list(edges) + edges[:2]
    rnd.shuffle(shuffled)
    assert cfc.build_graph(n, edges) == cfc.build_graph(n, shuffled)


@given(edge_lists())
def test_complete_iff_no_nonadjacent_pair(ne):
    n, edges = ne
    g = cfc.build_graph(n, edges)
    assert cfc.is_complete(g) == (cfc.min_nonadjacent_degree_sum(g) is None)


def test_edge_list_round_trip():
    g = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3)])
    text = cfc.format_edge_list(g, comments=["a comment"])
    assert cfc.parse_edge_list(text) == g


def test_parse_reports_line_numbers():
    with pytest.raises(EdgeListParseError) as exc:
        cfc.parse_edge_list("3 1\n0 x\n")
    assert exc.value.line_number == 2
    with pytest.raises(EdgeListParseError):
        cfc.parse_edge_list("# only a comment\n")


def test_parse_checks_edge_count():
    with pytest.raises(EdgeListParseError):
        cfc.parse_edge_list("3 2\n0 1\n")


def test_parse_rejects_repeated_edge_line():
    for text in ("3 3\n0 1\n1 2\n0 1\n", "3 3\n0 1\n1 2\n1 0\n"):
        with pytest.raises(EdgeListParseError) as exc:
            cfc.parse_edge_list(text)
        assert exc.value.line_number == 4


def test_parse_reports_bad_edge_at_its_line():
    cases = (
        ("2 1\n# c\n0 5\n", "edge (0, 5) has an endpoint outside [0, 2)"),
        ("3 2\n0 1\n2 2\n", "self-loop at vertex 2"),
    )
    for text, message in cases:
        with pytest.raises(EdgeListParseError) as exc:
            cfc.parse_edge_list(text)
        assert exc.value.line_number == 3
        assert str(exc.value) == f"line 3: {message}"


def test_parse_reports_negative_order_at_header_line():
    with pytest.raises(EdgeListParseError) as exc:
        cfc.parse_edge_list("# c\n-1 0\n")
    assert str(exc.value) == "line 2: vertex_count must be nonnegative, got -1"


@given(edge_lists())
def test_adjacency_equals_sorted_neighbour_sets(ne):
    n, edges = ne
    g = cfc.build_graph(n, edges)
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    assert g.adjacency == tuple(tuple(sorted(s)) for s in neighbours)


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, ((0, 2), (0, 1))),  # unsorted
        (3, ((1, 0),)),  # not canonical
        (3, ((0, 1), (0, 1))),  # repeated
        (3, ((1, 1),)),  # self-loop
        (3, ((0, 3),)),  # endpoint out of range
        (3, ((-1, 2),)),  # negative endpoint
    ],
)
def test_graph_rejects_edges_that_are_not_sorted_canonical_pairs(n, edges):
    with pytest.raises(ValueError, match=r"^edges must be sorted canonical pairs \(u, v\), "
                                         r"0 <= u < v < 3; got \("):
        cfc.Graph(vertex_count=n, edges=edges)
    # The same edges as keys u * n + v, as the parser hands them over.
    with pytest.raises(ValueError, match=r"^edge keys must be increasing u \* n \+ v"):
        Graph._from_keys(n, [u * n + v for u, v in edges])


def test_keys_built_graph_without_vertices():
    assert Graph._from_keys(0, []) == cfc.Graph(0, ())
    with pytest.raises(ValueError):
        Graph._from_keys(0, [0])


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_keys_built_graph_matches_build_graph(rng):
    n, edges = edge_list(rng)
    assert keys_graph_agrees(n, edges), (n, edges)


@given(edge_lists())
def test_parsed_graph_matches_build_graph(ne):
    n, edges = ne
    g = cfc.build_graph(n, edges)
    parsed = cfc.parse_edge_list(cfc.format_edge_list(g))
    assert "edges" not in vars(parsed)
    assert (parsed.vertex_count, parsed.edge_count, parsed.adjacency) == (
        g.vertex_count, g.edge_count, g.adjacency
    )
    assert parsed == g and hash(parsed) == hash(g) and repr(parsed) == repr(g)
    assert parsed.edges == g.edges and parsed.edge_set == g.edge_set


def test_nonadjacent_pairs_in_lexicographic_order():
    c4 = cfc.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert list(nonadjacent_pairs(c4)) == [(0, 2), (1, 3)]
    assert list(nonadjacent_pairs(cfc.build_graph(3, [(0, 1), (1, 2), (0, 2)]))) == []


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("3\n0 1\n", 1, "expected header 'n m'"),
        ("# c\nthree 1\n0 1\n", 2, "header fields must be integers"),
        ("-1 0\n", 1, "vertex_count must be nonnegative, got -1"),
        ("3 2\n0 1\n1 2 0\n", 3, "expected edge line 'u v'"),
        ("3 2\n0 1\n1 x\n", 3, "edge endpoints must be integers"),
        # Fields are ASCII digits, a minus sign allowed; int() reads these.
        ("3 1\n0 2_0\n", 2, "edge endpoints must be integers"),
        ("3 1\n0 \u0662\n", 2, "edge endpoints must be integers"),
        ("3 1\n+0 1\n", 2, "edge endpoints must be integers"),
        ("+3 1\n0 1\n", 1, "header fields must be integers"),
        ("3 1_0\n0 1\n", 1, "header fields must be integers"),
        ("\u0663 1\n0 1\n", 1, "header fields must be integers"),
        ("3 2\n0 1\n2 2\n", 3, "self-loop at vertex 2"),
        ("3 2\n0 1\n\n1 3\n", 4, "edge (1, 3) has an endpoint outside [0, 3)"),
        ("3 2\n0 1\n-1 2\n", 3, "edge (-1, 2) has an endpoint outside [0, 3)"),
        ("3 3\n0 1\n1 2\n2 1\n", 4, "repeated edge 2 1"),
        ("3 3\n0 1\n1 2\n0 1\n", 4, "repeated edge 0 1"),
        ("3 3\n0 1\n1 2\n", 1, "header declares 3 edges but 2 were given"),
        ("3 1\n0 1\n1 2\n", 1, "header declares 1 edges but 2 were given"),
        ("# c\n3 2\n0 1\n", 2, "header declares 2 edges but 1 were given"),
        ("# nothing else\n", 1, "missing header 'n m'"),
    ],
)
def test_parse_errors_name_their_line(text, line, message):
    with pytest.raises(EdgeListParseError) as exc:
        cfc.parse_edge_list(text)
    assert exc.value.line_number == line
    assert str(exc.value) == f"line {line}: {message}"


def test_parse_bounds_the_header_vertex_count():
    with pytest.raises(EdgeListParseError) as exc:
        cfc.parse_edge_list(f"# c\n{MAX_VERTEX_COUNT + 1} 1\n0 1\n")
    assert str(exc.value) == (
        f"line 2: vertex_count must be at most {MAX_VERTEX_COUNT}, got {MAX_VERTEX_COUNT + 1}"
    )
    g = cfc.parse_edge_list("3 1\n0 1\n")
    assert g.vertex_count == 3 and g.edges == ((0, 1),)
    assert not cfc.is_connected(g)


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0 1\n2 1\n",
        "# c\n\n 3\t2 \n0\t1\n2 1",  # comment, blank, padded header, tab, no final newline
        "3 0\n",
        "1 0",
    ],
)
def test_plain_text_takes_the_bulk_path(text):
    g = _parse_plain(text)
    assert g is not None and g == _parse_lines(text)


@pytest.mark.parametrize(
    "text",
    [
        "3\x0b1\n0 1\n",  # str.splitlines breaks the header line: an error
        "# c\x1c3 1\n0 1\n",  # ... or ends the comment before a header
        "# c\u2028\n3 1\n0 1\n",
        "3 1\r\n0 1\r\n",
        "3 1\n0  1\n",  # two blanks
        "3 1\n00 1\n",  # a leading zero is not JSON
        "3 1\n0 1\n\n",  # a blank body line
        "3 1\n# c\n0 1\n",  # a comment after the header
        "3 1\n0 \u0661\n",  # a digit that is not ASCII
        "3 2\n0 1\n1 0\n",  # a repeat
        "3 1\n1 1\n",  # a self-loop
        "3 1\n0 3\n",  # out of range
        "3 2\n0 1\n",  # too few edges
        f"{MAX_VERTEX_COUNT + 1} 0\n",
    ],
)
def test_other_text_goes_to_the_line_loop(text):
    assert _parse_plain(text) is None


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_parse_matches_the_line_loop(rng):
    text = edge_list_text(rng)
    assert parse_agrees(text), text


def test_edge_set_is_computed_on_first_use():
    g = cfc.build_graph(3, [(0, 1), (1, 2)])
    assert "edge_set" not in vars(g)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.edge_set == frozenset(g.edges)


@pytest.mark.parametrize(
    "data,line",
    [
        (b"\xe9\n2 1\n0 1\n", 1),
        (b"# caf\xe9\n2 1\n0 1\n", 1),
        (b"2 1\n0 1\n\xe9", 3),
        (b"2 1\n0 1\n\n\xc3", 4),  # a sequence cut short by the end of file
        (b"# \xe2\x82\n2 1\n0 1\n", 1),  # ... and by a line break
        (b"# \xe2\x82\xac\n# \xff\n2 1\n0 1\n", 2),
        (b"2 1\r\n0 1\r\n# \xe9\r\n", 3),
        (b"2 1\r0 1\r\xe9", 3),
    ],
)
def test_non_utf8_input_fails_at_the_line_of_its_first_bad_byte(data, line, tmp_path):
    path = tmp_path / "input.edges"
    path.write_bytes(data)
    with pytest.raises(EdgeListParseError) as exc:
        read_edge_list(path)
    assert exc.value.line_number == line
    assert str(path) in str(exc.value)


def test_read_text_of_utf8_is_the_text_mode_read(tmp_path):
    path = tmp_path / "input.edges"
    path.write_bytes("# caf\u00e9\r\n2 1\r\n0 1\r\n".encode("utf-8"))
    assert read_text(path) == "# caf\u00e9\n2 1\n0 1\n"
    assert read_edge_list(path).edges == ((0, 1),)
