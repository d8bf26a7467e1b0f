import pytest
from hypothesis import given, settings

import geodetic.intervals
import geodetic.local
from geodetic.bitset import full_mask, mask_of, vertices_of
from geodetic.errors import ValidationError
from geodetic.generate import GenSpec, generate
from geodetic.graph import Graph
from geodetic.greedy import largest_increase
from geodetic.intervals import (Cover, Instance, all_pairs_distances, interval_table,
                                is_geodetic, row_bytes)
from geodetic.local import find_start, locally_greedy_geodetic
from helpers import (
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    oracle_closure,
    path_graph,
    star_graph,
)


def cover_after_start(g, v):
    return Cover(interval_table(all_pairs_distances(g)), 1 << v)


class TestFindStart:
    def test_path_picks_leaf(self):
        assert find_start(Instance.of(path_graph(4))) == 0

    def test_star_picks_first_leaf(self):
        assert find_start(Instance.of(star_graph(4))) == 1

    def test_complete_picks_simplicial(self):
        assert find_start(Instance.of(complete_graph(4))) == 0

    def test_cycle_falls_back_to_min_degree(self):
        assert find_start(Instance.of(cycle_graph(6))) == 0

    def test_prefers_earlier_simplicial_over_degree_one(self):
        # 0-1-2 triangle with a pendant 3 on vertex 2: 0, 1 and 3 are forced
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert find_start(Instance.of(g)) == 0

    @settings(max_examples=60)
    @given(connected_graphs(min_n=1, max_n=10))
    def test_lowest_forced_vertex_when_the_core_is_not_empty(self, g):
        inst = Instance.of(g)
        if inst.forced:
            assert find_start(inst) == min(vertices_of(inst.forced))
        else:
            assert g.degree(find_start(inst)) == min(map(g.degree, range(g.n)))


class TestLargestLocalIncrease:
    """Local's step: largest_increase on a cover grown from the start vertex.

    The start vertex is already covered, so each gain leaves it out.
    """

    def test_path_from_leaf(self):
        u, gain = largest_increase(cover_after_start(path_graph(4), 0))
        assert u == 3
        assert gain == 0b1110

    def test_triangle_breaks_tie_low(self):
        u, gain = largest_increase(cover_after_start(complete_graph(3), 0))
        assert u == 1
        assert gain == mask_of([1])

    def test_even_cycle_antipodal(self):
        u, gain = largest_increase(cover_after_start(cycle_graph(6), 0))
        assert u == 3
        assert gain == full_mask(6) & ~1

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_rows_match_interval_table(self, g):
        t = interval_table(all_pairs_distances(g))
        v = find_start(Instance.of(g))
        cover = cover_after_start(g, v)
        # the start vertex's row is the gain of every other vertex
        assert all(cover.gains[j] == t[v][j] for j in range(g.n) if j != v)


class TestLocallyGreedy:
    def test_path(self):
        res = locally_greedy_geodetic(path_graph(4))
        assert res.vertices == (0, 3)

    def test_even_cycle(self):
        res = locally_greedy_geodetic(cycle_graph(6))
        assert res.vertices == (0, 3)
        assert res.value == 2

    def test_odd_cycle(self):
        assert locally_greedy_geodetic(cycle_graph(5)).value == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_graph(self, n):
        assert locally_greedy_geodetic(complete_graph(n)).value == n

    def test_star(self):
        res = locally_greedy_geodetic(star_graph(5))
        assert res.value == 5
        assert res.vertices == (1, 2, 3, 4, 5)

    def test_result_flags(self):
        res = locally_greedy_geodetic(cycle_graph(6))
        assert res.algorithm == "locally-greedy"
        assert not res.optimal
        assert res.verified

    def test_single_vertex(self):
        assert locally_greedy_geodetic(Graph(1, [])).vertices == (0,)

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            locally_greedy_geodetic(Graph(4, [(0, 1), (2, 3)]))

    def test_deterministic(self):
        g = generate(GenSpec("WS", 40, 160, seed=13))
        assert (locally_greedy_geodetic(g).vertices
                == locally_greedy_geodetic(g).vertices)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_result_is_geodetic_by_oracle(self, g):
        res = locally_greedy_geodetic(g)
        assert oracle_closure(g, set(res.vertices)) == frozenset(range(g.n))

    @pytest.mark.parametrize("family", ["ER", "WS", "BA"])
    def test_result_is_geodetic_on_generated(self, family):
        for seed in range(3):
            g = generate(GenSpec(family, 50, 200, seed=seed))
            t = interval_table(all_pairs_distances(g))
            res = locally_greedy_geodetic(g)
            assert is_geodetic(t, mask_of(res.vertices))


class TestRows:
    def test_builds_one_row_per_member_and_none_to_check(self, monkeypatch):
        built = []
        build_row = geodetic.intervals.interval_row

        def counted(d, v):
            built.append(v)
            return build_row(d, v)

        at_finish = []
        finish = geodetic.local.finish

        def finish_counted(*args):
            at_finish.append(len(built))
            return finish(*args)

        monkeypatch.setattr(geodetic.intervals, "interval_row", counted)
        monkeypatch.setattr(geodetic.local, "finish", finish_counted)
        res = locally_greedy_geodetic(generate(GenSpec("BA", 60, 200, seed=4)))
        assert sorted(built) == list(res.vertices)
        assert at_finish == [len(built)]  # the final check reuses the rows

    def test_rows_past_the_cap_are_a_data_error(self, monkeypatch):
        # on K2,60 locally greedy takes all 60 leaves, one row each
        g = complete_bipartite_graph(2, 60)
        monkeypatch.setattr(geodetic.intervals, "TABLE_MEMORY_CAP", 4 * row_bytes(g.n))
        with pytest.raises(ValidationError, match="cap"):
            locally_greedy_geodetic(g)
