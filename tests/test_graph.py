import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic.errors import EdgeListParseError, ValidationError
from geodetic.graph import (
    Graph,
    bfs_depth,
    is_connected,
    parse_edge_list,
    require_connected,
    write_edge_list,
)
from geodetic.intervals import Instance
from helpers import (
    ReferenceGraph,
    broom_graph,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    hypercube_graph,
    path_graph,
    reference_depth,
)


class TestGraph:
    def test_basic_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2), (0, 1), (2, 1)])
        assert g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_one_shot_generator_input(self):
        g = Graph(4, ((i, i + 1) for i in range(3)))
        assert g.m == 3
        assert g == path_graph(4)

    def test_first_bad_edge_in_input_order_is_reported(self):
        with pytest.raises(ValidationError, match="self-loop at vertex 1"):
            Graph(3, [(0, 1), (1, 1), (0, 5)])
        with pytest.raises(ValidationError, match=r"out of range: \(0, 5\)"):
            Graph(3, [(0, 1), (0, 5), (1, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 2)])

    def test_degree_and_neighbors(self):
        g = path_graph(4)
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.neighbors(2) == (1, 3)

    def test_edges_sorted(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert list(g.edges()) == [(0, 1), (1, 2)]


@st.composite
def pair_lists(draw, max_n: int = 12, max_pairs: int = 30) -> tuple[int, list[tuple[int, int]]]:
    """n and a list of distinct-endpoint pairs on 0..n-1, with repeats,
    some of them reversed, in random order."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return n, []
    base = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=max_pairs))
    repeats = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans()),
                            max_size=10)) if base else []
    pairs = base + [(v, u) if flip else (u, v) for (u, v), flip in repeats]
    return n, draw(st.permutations(pairs))


# ways to hand Graph the same pairs: a list, a tuple, a one-shot generator,
# and a list of two-element lists
FEEDS = [list, tuple, lambda pairs: (p for p in pairs), lambda pairs: [list(p) for p in pairs]]


class TestAgainstPerEdgeReference:
    """Graph against the per-edge ReferenceGraph of tests/helpers.py."""

    @settings(max_examples=200, deadline=None)
    @given(pair_lists(), st.sampled_from(FEEDS))
    def test_same_graph(self, case, feed):
        n, pairs = case
        g, ref = Graph(n, feed(pairs)), ReferenceGraph(n, pairs)
        assert (g.n, g.m) == (ref.n, ref.m)
        assert g.adj == ref.adj
        assert list(g.edges()) == ref.edges()
        for v in range(n):
            assert g.degree(v) == ref.degree(v)
            assert g.neighbors(v) == ref.neighbors(v)
        assert write_edge_list(g) == "".join(f"{u} {v}\n" for u, v in ref.edges())

    @settings(max_examples=200, deadline=None)
    @given(pair_lists(), pair_lists())
    def test_equality_and_hash_follow_the_reference(self, case, other):
        n, pairs = case
        g = Graph(n, pairs)
        # the same edges in another order and orientation are the same graph
        again = Graph(n, [(v, u) for u, v in reversed(pairs)])
        assert g == again and hash(g) == hash(again)
        h = Graph(*other)
        assert (g == h) == ((n, ReferenceGraph(n, pairs).adj) == (other[0], ReferenceGraph(*other).adj))
        if g == h:
            assert hash(g) == hash(h)

    @settings(max_examples=200, deadline=None)
    @given(pair_lists() | pair_lists(max_n=80, max_pairs=400))
    def test_bfs_depth_matches_a_reference_scan(self, case):
        # disconnected draws included: both give None; the larger draws have
        # frontiers wide enough for the numpy steps
        n, pairs = case
        assert bfs_depth(Graph(n, pairs)) == reference_depth(ReferenceGraph(n, pairs))

    @pytest.mark.parametrize("g", [cycle_graph(101), complete_graph(40), broom_graph(80, 6),
                                   complete_bipartite_graph(20, 20), hypercube_graph(6)],
                             ids=["narrow", "wide", "narrow-then-wide", "wide-repeats",
                                  "hypercube"])
    def test_bfs_depth_on_narrow_and_wide_levels(self, g):
        # in K20,20 and Q6 a wide level reaches each new vertex many times
        assert bfs_depth(g) == reference_depth(ReferenceGraph(g.n, list(g.edges())))

    @settings(max_examples=200, deadline=None)
    @given(pair_lists(), st.integers(0, 40),
           st.sampled_from([(0, 0), (2, 2), (-1, 0), (0, -1), (0, 12), (12, 0), (0, 2**63),
                            (2**63, 0), (2**64 + 1, 1), (-2**63 - 1, 0), (5, 5)]))
    def test_first_bad_pair_raises_as_in_the_reference(self, case, pos, bad):
        # ids at or beyond 2^63 do not fit int64 and are out of range like any other
        n, pairs = case
        pairs = list(pairs)
        pairs.insert(min(pos, len(pairs)), bad)
        with pytest.raises(ValidationError) as want:
            ReferenceGraph(n, pairs)
        with pytest.raises(ValidationError) as got:
            Graph(n, pairs)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [(0, 1, 2), (0,), ()])
    def test_pair_of_other_length_raises(self, bad):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), bad])


class TestConnectivity:
    def test_single_vertex_connected(self):
        assert is_connected(Graph(1, []))

    def test_path_connected(self):
        assert is_connected(path_graph(5))

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        with pytest.raises(ValidationError):
            require_connected(g)

    def test_isolated_vertex(self):
        assert not is_connected(Graph(3, [(0, 1)]))

    def test_bfs_depth_is_the_eccentricity_of_vertex_zero(self):
        assert bfs_depth(Graph(1, [])) == 0
        assert bfs_depth(path_graph(5)) == 4
        assert bfs_depth(Graph(5, [(2, 0), (2, 1), (2, 3), (3, 4)])) == 3
        assert bfs_depth(cycle_graph(7)) == 3
        assert bfs_depth(Graph(3, [(0, 1)])) is None

    def test_large_cycle_memory_is_linear(self):
        # a graph and its traversal cost O(n + m), not one n-bit int per vertex
        n = 20000
        tracemalloc.start()
        try:
            g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
            assert is_connected(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20


def simplicial(g: Graph, v: int) -> bool:
    return bool(Instance.of(g).forced >> v & 1)


class TestSimplicial:
    """The forced core on Instance is exactly the simplicial vertices."""

    def test_path_endpoints(self):
        g = path_graph(4)
        assert simplicial(g, 0)
        assert simplicial(g, 3)
        assert not simplicial(g, 1)

    def test_complete_graph_all_simplicial(self):
        g = complete_graph(4)
        assert all(simplicial(g, v) for v in range(4))

    def test_cycle_none_simplicial(self):
        g = cycle_graph(5)
        assert not any(simplicial(g, v) for v in range(5))

    def test_isolated_vertex_simplicial(self):
        g = Graph(2, [(0, 1)])
        assert simplicial(g, 0)

    @given(connected_graphs(min_n=2, max_n=7))
    def test_matches_definition(self, g):
        forced = Instance.of(g).forced
        for v in range(g.n):
            nbrs = g.adj[v]
            clique = all(b in g.adj[a] for i, a in enumerate(nbrs)
                         for b in nbrs[i + 1:])
            assert bool(forced >> v & 1) == clique


class TestParse:
    def test_simple_path(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert (g.n, g.m) == (3, 2)
        assert g.adj[1] == (0, 2)

    def test_one_based(self):
        g = parse_edge_list("1 2\n2 3\n1 3\n", one_based=True)
        assert (g.n, g.m) == (3, 3)

    def test_comments_and_blanks(self):
        text = "# header\n\n0 1\n% another comment\n1 2\n"
        g = parse_edge_list(text)
        assert (g.n, g.m) == (3, 2)

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1\n")
        assert g.m == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n1 2 3\n")
        assert exc.value.line_no == 2

    def test_non_integer_reports_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\na b\n")
        assert exc.value.line_no == 2

    def test_negative_id(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 -1\n")

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            parse_edge_list("3 3\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("# nothing here\n")

    def test_sparse_ids_compact_in_first_appearance_order(self):
        g = parse_edge_list("10 20\n20 30\n")
        # 10 -> 0, 20 -> 1, 30 -> 2
        assert (g.n, g.m) == (3, 2)
        assert g.adj[1] == (0, 2)

    def test_contiguous_ids_kept(self):
        g = parse_edge_list("2 1\n0 2\n")
        assert g.adj[2] == (0, 1)

    def test_strict_rejects_disconnected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 1\n2 3\n", strict=True)

    def test_iterable_of_lines(self):
        g = parse_edge_list(["0 1", "1 2"])
        assert (g.n, g.m) == (3, 2)

    @given(connected_graphs())
    def test_round_trip(self, g):
        again = parse_edge_list(write_edge_list(g))
        assert again == g


# small ids, and ids on both sides of 2^63, which parse as Python ints and
# get compacted
VERTEX_IDS = st.integers(0, 6) | st.integers(2**63 - 4, 2**63 + 4)
PADDING = st.sampled_from(["", " ", "\t", " \t "])
SEPARATORS = st.sampled_from([" ", "\t", "   ", " \t\t"])
LINE_ENDS = st.sampled_from(["\n", "\r\n"])
SKIPPED = st.sampled_from(["", "   ", "\t", "# comment", "%\tnote"])
MALFORMED = st.sampled_from(["7", "1 2 3", "a b", "1 x", "1.5 2", "0x1 2",
                             "-1 2", "3 3", f"{2**63} {2**63}"])


@st.composite
def edge_list_texts(draw) -> tuple[str, list[tuple[int, int]]]:
    """Edge-list text in mixed whitespace, and the edges in the order written.

    Edges repeat, reversed or not, between blank and comment lines; every
    line ends in LF or CRLF.
    """
    edges = draw(st.lists(st.tuples(VERTEX_IDS, VERTEX_IDS).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=10))
    written, lines = [], []
    for u, v in edges:
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                u, v = v, u
            written.append((u, v))
            lines.append(f"{draw(PADDING)}{u}{draw(SEPARATORS)}{v}{draw(PADDING)}")
        if draw(st.booleans()):
            lines.append(draw(SKIPPED))
    return "".join(line + draw(LINE_ENDS) for line in lines), written


def canonical_graph(written: list[tuple[int, int]]) -> Graph:
    """The graph of an edge list: ids 0..n-1 kept, others numbered by first appearance."""
    ids = list(dict.fromkeys(v for edge in written for v in edge))
    if max(ids) == len(ids) - 1:
        label = {v: v for v in ids}
    else:
        label = {v: pos for pos, v in enumerate(ids)}
    canonical = sorted({tuple(sorted((label[u], label[v]))) for u, v in written})
    return Graph(len(ids), canonical)


class TestParseFuzz:
    @given(edge_list_texts())
    def test_matches_canonical_edge_list(self, case):
        text, written = case
        assert parse_edge_list(text) == canonical_graph(written)

    @given(edge_list_texts(), MALFORMED, st.integers(0, 40))
    def test_malformed_line_is_a_parse_or_validation_error(self, case, bad, pos):
        lines = case[0].splitlines(keepends=True)
        lines.insert(pos, bad + "\n")
        with pytest.raises((EdgeListParseError, ValidationError)):
            parse_edge_list("".join(lines))

    @given(st.text(st.sampled_from("0123456789 -\t\r\n#%ax."), max_size=60))
    def test_any_text_parses_or_raises_a_graph_error(self, text):
        try:
            g = parse_edge_list(text)
        except (EdgeListParseError, ValidationError):
            return
        assert g == parse_edge_list(write_edge_list(g))
