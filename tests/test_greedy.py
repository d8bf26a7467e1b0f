import pytest
from hypothesis import given, settings

from geodetic.bitset import full_mask, mask_of
from geodetic.errors import ValidationError
from geodetic.generate import GenSpec, generate
from geodetic.graph import Graph
from geodetic.greedy import (
    greedy_geodetic,
    greedy_init,
    largest_increase,
    largest_increase_pair,
)
from geodetic.intervals import all_pairs_distances, closure, interval_table, is_geodetic
from helpers import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    oracle_closure,
    path_graph,
)


def fresh_state(g):
    return greedy_init(g, interval_table(all_pairs_distances(g)))


class TestInit:
    def test_path_seeds_with_leaves(self):
        state = fresh_state(path_graph(4))
        assert state.members == mask_of([0, 3])
        assert state.coverage == full_mask(4)
        assert state.coverage == closure(state.table, state.members)

    def test_cycle_starts_empty(self):
        t = interval_table(all_pairs_distances(cycle_graph(5)))
        state = greedy_init(cycle_graph(5), t)
        assert state.members == 0
        assert state.coverage == 0
        assert state.table is t  # shared, not copied


class TestLargestIncrease:
    def test_empty_set_has_no_gain(self):
        state = fresh_state(cycle_graph(5))
        assert largest_increase(state) == (None, 0)

    def test_triangle_with_two_members(self):
        state = fresh_state(complete_graph(3))
        state.members = mask_of([0, 1])
        state.coverage = closure(state.table, state.members)
        v, gain = largest_increase(state)
        assert v == 2
        assert gain == mask_of([2])

    def test_no_candidates_left(self):
        state = fresh_state(Graph(2, [(0, 1)]))
        assert state.members == 0b11
        assert largest_increase(state) == (None, 0)

    @settings(max_examples=40)
    @given(connected_graphs(min_n=3, max_n=8))
    def test_gain_equals_closure_difference(self, g):
        state = fresh_state(g)
        if state.members == 0:
            state.members = 1
            state.coverage = closure(state.table, state.members)
        v, gain = largest_increase(state)
        if v is None:
            return
        grown = closure(state.table, state.members | (1 << v))
        assert gain == grown & ~state.coverage


class TestLargestIncreasePair:
    def test_odd_cycle_picks_longest_interval(self):
        state = fresh_state(cycle_graph(5))
        largest_increase(state)
        i, j, gain = largest_increase_pair(state)
        assert (i, j) == (0, 2)
        assert gain == mask_of([0, 1, 2])

    def test_too_few_candidates(self):
        state = fresh_state(Graph(2, [(0, 1)]))
        largest_increase(state)
        assert largest_increase_pair(state) == (None, None, 0)

    def test_pair_gain_covers_both_endpoints(self):
        state = fresh_state(cycle_graph(7))
        largest_increase(state)
        i, j, gain = largest_increase_pair(state)
        assert gain & (1 << i)
        assert gain & (1 << j)


class TestGreedyGeodetic:
    def test_path(self):
        res = greedy_geodetic(path_graph(4))
        assert res.vertices == (0, 3)
        assert res.value == 2

    def test_even_cycle(self):
        res = greedy_geodetic(cycle_graph(6))
        assert res.value == 2

    def test_odd_cycle(self):
        res = greedy_geodetic(cycle_graph(5))
        assert res.vertices == (0, 2, 3)
        assert res.value == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graph_needs_everything(self, n):
        assert greedy_geodetic(complete_graph(n)).value == n
        assert greedy_geodetic(complete_graph(n), add_one=True).value == n

    def test_result_flags(self):
        res = greedy_geodetic(cycle_graph(6))
        assert res.algorithm == "greedy"
        assert not res.optimal
        assert res.verified
        assert res.seconds >= 0

    def test_addone_tag(self):
        res = greedy_geodetic(cycle_graph(6), add_one=True)
        assert res.algorithm == "greedy-addone"

    def test_addone_odd_cycle(self):
        assert greedy_geodetic(cycle_graph(5), add_one=True).value == 3

    def test_single_vertex(self):
        res = greedy_geodetic(Graph(1, []))
        assert res.vertices == (0,)

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            greedy_geodetic(Graph(4, [(0, 1), (2, 3)]))

    def test_deterministic(self):
        g = generate(GenSpec("ER", 30, 120, seed=9))
        assert greedy_geodetic(g).vertices == greedy_geodetic(g).vertices

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_result_is_geodetic_by_oracle(self, g):
        for add_one in (False, True):
            res = greedy_geodetic(g, add_one=add_one)
            got = oracle_closure(g, set(res.vertices))
            assert got == frozenset(range(g.n))

    @pytest.mark.parametrize("family", ["ER", "WS", "BA"])
    def test_result_is_geodetic_on_generated(self, family):
        for seed in range(3):
            g = generate(GenSpec(family, 40, 160, seed=seed))
            t = interval_table(all_pairs_distances(g))
            for add_one in (False, True):
                res = greedy_geodetic(g, add_one=add_one)
                assert is_geodetic(t, mask_of(res.vertices))
