import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodetic.exact
from geodetic.bitset import full_mask, mask_of
from geodetic.errors import ValidationError
from geodetic.exact import (
    BRUTE_FORCE_MAX_N,
    Budget,
    SearchLimits,
    brute_force_geodetic,
    complete,
    exact_geodetic,
)
from geodetic.generate import GenSpec, benchmark_grid, edge_count_for_density, generate
from geodetic.greedy import greedy_cover, greedy_geodetic
from geodetic.graph import Graph
from geodetic.intervals import (
    Cover,
    Instance,
    all_pairs_distances,
    closure,
    interval_table,
    is_geodetic,
)
from helpers import (
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    leaf_count,
    oracle_geodetic_number,
    path_graph,
    petersen_graph,
    pruned_exact_value,
    random_tree,
    relabeled_pairs,
    star_graph,
)


def forced_of(g: Graph) -> int:
    return Instance.of(g).forced


class TestForcedVertices:
    def test_path_leaves(self):
        assert forced_of(path_graph(4)) == mask_of([0, 3])

    def test_cycle_has_none(self):
        assert forced_of(cycle_graph(6)) == 0

    def test_complete_graph_all(self):
        assert forced_of(complete_graph(4)) == 0b1111

    def test_star_leaves_and_center(self):
        # the center of a star is not simplicial once it has two leaves
        assert forced_of(star_graph(3)) == mask_of([1, 2, 3])


class TestBruteForce:
    @pytest.mark.parametrize("g,expect", [
        (path_graph(4), 2),
        (cycle_graph(5), 3),
        (cycle_graph(6), 2),
        (complete_graph(4), 4),
        (star_graph(4), 4),
    ])
    def test_known_values(self, g, expect):
        res = brute_force_geodetic(g)
        assert res.value == expect
        assert res.optimal
        assert res.verified
        assert res.algorithm == "brute-force"

    def test_refuses_large_input(self):
        g = path_graph(BRUTE_FORCE_MAX_N + 1)
        with pytest.raises(ValueError):
            brute_force_geodetic(g)

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            brute_force_geodetic(Graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_matches_enumeration_oracle(self, g):
        assert brute_force_geodetic(g).value == oracle_geodetic_number(g)


@pytest.mark.parametrize("solve", [exact_geodetic, brute_force_geodetic])
@pytest.mark.parametrize("g,expect", [
    (Graph(1, []), (0,)),
    (Graph(2, [(0, 1)]), (0, 1)),
])
def test_tiny_graphs_need_every_vertex(solve, g, expect):
    res = solve(g)
    assert (res.vertices, res.optimal, res.verified) == (expect, True, True)


class TestExact:
    @pytest.mark.parametrize("g,expect", [
        (path_graph(2), 2),
        (path_graph(7), 2),
        (cycle_graph(4), 2),
        (cycle_graph(5), 3),
        (cycle_graph(9), 3),
        (complete_graph(5), 5),
        (star_graph(6), 6),
    ])
    def test_known_values(self, g, expect):
        res = exact_geodetic(g)
        assert res.value == expect
        assert res.optimal
        assert res.algorithm == "exact"

    def test_forced_set_is_contained(self):
        g = generate(GenSpec("BA", 18, 40, seed=2))
        res = exact_geodetic(g)
        forced = forced_of(g)
        assert forced & mask_of(res.vertices) == forced

    def test_result_set_is_geodetic(self):
        g = generate(GenSpec("ER", 16, 40, seed=5))
        res = exact_geodetic(g)
        t = interval_table(all_pairs_distances(g))
        assert is_geodetic(t, mask_of(res.vertices))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_matches_brute_force(self, g):
        assert exact_geodetic(g).value == brute_force_geodetic(g).value

    @settings(max_examples=40, deadline=None)
    @given(relabeled_pairs(min_n=2, max_n=12))
    def test_value_survives_relabeling(self, pair):
        g, h = pair
        value = exact_geodetic(g).value
        assert exact_geodetic(h).value == value
        assert brute_force_geodetic(g).value == brute_force_geodetic(h).value == value

    @pytest.mark.parametrize("family", ["ER", "WS", "BA"])
    def test_matches_brute_force_on_generated(self, family):
        for seed in range(4):
            n = 12 + seed
            g = generate(GenSpec(family, n, 2 * n, seed=seed))
            assert exact_geodetic(g).value == brute_force_geodetic(g).value

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            exact_geodetic(Graph(4, [(0, 1), (2, 3)]))


class TestOptions:
    @staticmethod
    def assert_singleton_options_are_forced(inst: Instance):
        singletons = mask_of(k for k, opts in enumerate(inst.options) if opts == 1 << k)
        assert singletons == inst.forced

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(max_n=14))
    @example(Graph(1, []))
    def test_forced_core_is_the_singleton_options(self, g):
        self.assert_singleton_options_are_forced(Instance.of(g))

    @pytest.mark.parametrize("spec", [s for s in benchmark_grid("standard") if s.n <= 60],
                             ids=lambda s: f"{s.family}-{s.n}-s{s.seed}")
    def test_forced_core_is_the_singleton_options_on_standard_cells(self, spec):
        self.assert_singleton_options_are_forced(Instance.of(generate(spec)))

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=9))
    def test_options_cover_every_interval_containing_k(self, g):
        # k in I(a, b) with k != b makes a an option of k, and nothing else does
        inst = Instance.of(g)
        for k in range(g.n):
            expect = mask_of(a for a in range(g.n)
                             if a == k or any(inst.table[a][b] >> k & 1
                                              for b in range(g.n) if b != k))
            assert inst.options[k] == expect


class TestComplete:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(max_n=9), st.integers(1, 4), st.sets(st.integers(0, 8)),
           st.sets(st.integers(0, 8)))
    def test_completes_exactly_when_enumeration_does(self, g, slots, start, excluded):
        # excluded vertices stand for the options an earlier sibling tried
        inst = Instance.of(g)
        table = inst.table
        full = full_mask(g.n)
        members = mask_of(start) & full
        cover = Cover(table, members)
        allowed = full & ~members & ~mask_of(excluded)
        budget = Budget(SearchLimits(), 0.0)
        found = complete(table, inst.options, [gain | 1 << v for v, gain in enumerate(cover.gains)],
                         allowed, full & ~cover.coverage, slots, budget)
        candidates = [v for v in range(g.n) if allowed >> v & 1]
        exists = any(closure(table, members | mask_of(picks)) == full
                     for size in range(slots + 1)
                     for picks in itertools.combinations(candidates, size))
        assert (found is not None) == exists
        if found is not None:
            assert found & ~allowed == 0
            assert found.bit_count() <= slots
            assert closure(table, members | found) == full
        assert budget.nodes >= 1

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=16))
    def test_value_matches_the_pruned_search(self, g):
        # the reference branches on candidates in gain order and prunes with
        # pair-counting bounds, so it shares no branching rule with complete
        inst = Instance.of(g)
        assert exact_geodetic(inst).value == pruned_exact_value(inst)


# Each family's builder and the closed form of its geodetic number, a function
# of the builder's arguments (Chartrand, Harary & Zhang, Networks 39 (2002)).
KNOWN_FAMILIES = {
    "hypercube": (hypercube_graph, lambda d: 2),
    "grid": (grid_graph, lambda rows, cols: 2),
    "bipartite": (complete_bipartite_graph, lambda a, b: min(a, 4)),  # 2 <= a <= b
    "cycle": (cycle_graph, lambda n: 2 if n % 2 == 0 else 3),
    "petersen": (petersen_graph, lambda: 4),
    "tree": (random_tree, lambda n, seed: leaf_count(random_tree(n, seed))),
}


def known_case(family: str, *args: int) -> tuple[Graph, int]:
    build, value = KNOWN_FAMILIES[family]
    return build(*args), value(*args)


class TestKnownFamilies:
    @pytest.mark.parametrize("family,args", [
        *[("hypercube", (d,)) for d in (1, 2, 3, 4)],
        *[("grid", dims) for dims in ((1, 2), (2, 2), (2, 5), (3, 3), (3, 4), (4, 4))],
        *[("bipartite", ab) for ab in ((2, 2), (2, 6), (3, 3), (3, 7), (4, 4), (4, 7),
                                       (5, 5), (5, 7), (6, 6))],
        *[("cycle", (n,)) for n in range(3, 13)],
        ("petersen", ()),
        *[("tree", (n, seed)) for n in (2, 5, 8, 12) for seed in range(3)],
    ], ids=str)
    def test_closed_form_matches_brute_force(self, family, args):
        g, expect = known_case(family, *args)
        assert brute_force_geodetic(g).value == expect

    @pytest.mark.parametrize("family,args", [
        ("hypercube", (6,)),
        ("grid", (12, 12)),
        ("bipartite", (5, 30)),
        ("bipartite", (3, 40)),
        ("petersen", ()),
        ("cycle", (200,)),  # n = 200 and 201 take the uint16 distance path
        ("cycle", (201,)),
        ("tree", (200, 0)),
    ], ids=str)
    def test_exact_proves_closed_form(self, family, args):
        g, expect = known_case(family, *args)
        res = exact_geodetic(g)
        assert (res.value, res.optimal, res.verified) == (expect, True, True)


class TestSearchLimits:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SearchLimits(time_budget=0)
        with pytest.raises(ValidationError):
            SearchLimits(node_budget=-5)
        with pytest.raises(ValidationError):
            SearchLimits(time_budget=float("nan"))

    def test_node_budget_returns_upper_bound(self):
        g = cycle_graph(6)
        res = exact_geodetic(g, SearchLimits(node_budget=1))
        assert not res.optimal
        assert res.verified
        t = interval_table(all_pairs_distances(g))
        assert is_geodetic(t, mask_of(res.vertices))
        assert res.value >= brute_force_geodetic(g).value

    def test_time_budget_returns_upper_bound(self):
        g = generate(GenSpec("ER", 24, 69, seed=3))
        res = exact_geodetic(g, SearchLimits(time_budget=1e-6))
        assert not res.optimal
        t = interval_table(all_pairs_distances(g))
        assert is_geodetic(t, mask_of(res.vertices))

    def test_time_budget_counts_the_fallback(self, monkeypatch):
        # greedy's cover is built before the search and takes 10 s of a fake
        # clock, so the 1 s budget is spent before the first search node
        clock = SimpleNamespace(now=geodetic.exact.time.perf_counter())
        monkeypatch.setattr(geodetic.exact, "time",
                            SimpleNamespace(perf_counter=lambda: clock.now))
        greedy_cover = geodetic.exact.greedy_cover

        def slow_greedy_cover(inst):
            clock.now += 10.0
            return greedy_cover(inst)

        monkeypatch.setattr(geodetic.exact, "greedy_cover", slow_greedy_cover)
        res = exact_geodetic(cycle_graph(6), SearchLimits(time_budget=1.0))
        assert not res.optimal
        assert res.value == 2

    @pytest.mark.parametrize("limits,calls", [
        (None, 0),
        (SearchLimits(), 0),
        (SearchLimits(node_budget=10**6), 1),
        (SearchLimits(time_budget=60.0), 1),
    ], ids=["none", "unbudgeted", "nodes", "time"])
    def test_only_a_budgeted_run_builds_the_fallback(self, monkeypatch, limits, calls):
        built = []
        greedy_cover = geodetic.exact.greedy_cover
        monkeypatch.setattr(geodetic.exact, "greedy_cover",
                            lambda inst: built.append(inst) or greedy_cover(inst))
        res = exact_geodetic(cycle_graph(6), limits)
        assert (res.optimal, res.value) == (True, 2)
        assert len(built) == calls

    def test_generous_budget_still_optimal(self):
        g = cycle_graph(8)
        res = exact_geodetic(g, SearchLimits(time_budget=60.0, node_budget=10**9))
        assert res.optimal
        assert res.value == 2

    @pytest.mark.parametrize("family", ["ER", "WS", "BA"])
    def test_exhausted_budget_is_never_worse_than_greedy(self, family):
        inst = Instance.of(generate(GenSpec(family, 60, edge_count_for_density(60, 0.1),
                                            seed=1)))
        assert inst.forced == 0  # the core plus what it leaves uncovered is all 60
        res = exact_geodetic(inst, SearchLimits(node_budget=2000))
        assert not res.optimal
        assert res.value <= greedy_geodetic(inst).value < 60
        assert is_geodetic(inst.table, mask_of(res.vertices))

    @pytest.mark.parametrize("g", [
        # forced core {3, 4} leaves 2 and 5 uncovered: the core plus those
        # is as small as greedy's cover {0, 3, 4, 5} but another set
        Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 5)]),
        generate(GenSpec("BA", 30, 60, seed=1)),
    ], ids=["n6-tie", "BA30"])
    def test_exhausted_budget_returns_greedy_cover(self, g):
        inst = Instance.of(g)
        res = exact_geodetic(inst, SearchLimits(node_budget=1))
        assert not res.optimal
        assert mask_of(res.vertices) == greedy_cover(inst)

    @pytest.mark.parametrize("family,n,density,seed,nodes,value", [
        # proved in 1,497 nodes (test_node_budget_pins_nodes_to_proof)
        ("BA", 30, 0.2, 3, 10_000, 9),
        # proved in 125,615 nodes, about 2 s
        ("WS", 60, 0.1, 1, 200_000, 7),
    ])
    def test_proves_within_node_budget(self, family, n, density, seed, nodes, value):
        g = generate(GenSpec(family, n, edge_count_for_density(n, density), seed=seed))
        res = exact_geodetic(g, SearchLimits(node_budget=nodes))
        assert (res.optimal, res.value) == (True, value)

    @pytest.mark.parametrize("family,seed,nodes,expect", [
        ("BA", 3, 1497, (True, 9)),
        ("BA", 3, 1496, (False, 10)),
        ("ER", 2, 1110, (True, 7)),
        ("ER", 2, 1109, (False, 7)),
    ])
    def test_node_budget_pins_nodes_to_proof(self, family, seed, nodes, expect):
        # the proof opens exactly 1,497 and 1,110 nodes; one fewer returns
        # greedy's cover, flagged non-optimal
        g = generate(GenSpec(family, 30, edge_count_for_density(30, 0.2), seed=seed))
        res = exact_geodetic(g, SearchLimits(node_budget=nodes))
        assert (res.optimal, res.value) == expect

    def test_forced_shortcut_ignores_budget(self):
        # a path is decided by its endpoints before any search node opens
        res = exact_geodetic(path_graph(9), SearchLimits(node_budget=1))
        assert res.optimal
        assert res.vertices == (0, 8)
