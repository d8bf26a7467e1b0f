from hypothesis import given, settings

from geodetic.bounds import diameter_bound, trivial_bound
from geodetic.exact import exact_geodetic
from geodetic.intervals import all_pairs_distances
from geodetic.graph import Graph
from helpers import complete_graph, connected_graphs, cycle_graph, path_graph


class TestBounds:
    def test_trivial_is_n(self):
        assert trivial_bound(path_graph(7)) == 7

    def test_diameter_bound_path(self):
        # n - diam + 1 = 7 - 6 + 1
        dist = all_pairs_distances(path_graph(7))
        assert diameter_bound(dist) == 2

    def test_diameter_bound_complete(self):
        dist = all_pairs_distances(complete_graph(5))
        assert diameter_bound(dist) == 5

    def test_diameter_bound_cycle(self):
        dist = all_pairs_distances(cycle_graph(6))
        assert diameter_bound(dist) == 4

    def test_diameter_bound_single_vertex(self):
        # diameter 0: the bound must not exceed n = 1
        dist = all_pairs_distances(Graph(1, []))
        assert diameter_bound(dist) == 1 == trivial_bound(Graph(1, []))

    @settings(max_examples=50)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_sandwich(self, g):
        dist = all_pairs_distances(g)
        value = exact_geodetic(g).value
        assert value <= diameter_bound(dist) <= trivial_bound(g)
