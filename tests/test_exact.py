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
    completion_reach,
    exact_geodetic,
    stale_pair_reach,
)
from geodetic.generate import GenSpec, edge_count_for_density, generate
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


class TestCompletionReach:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(max_n=9), st.integers(2, 4), st.data())
    def test_admissible_against_brute_force(self, g, slots, data):
        table = Instance.of(g).table
        members = data.draw(st.sets(st.integers(0, g.n - 1)))
        cover = Cover(table, mask_of(members))
        uncov_mask = full_mask(g.n) & ~cover.coverage
        scored = sorted((((cover.gains[v] | 1 << v) & uncov_mask, v)
                         for v in range(g.n) if v not in members),
                        key=lambda t: (-t[0].bit_count(), t[1]))  # the search's order
        reach = completion_reach(table, scored, uncov_mask, slots)
        assert len(reach) == len(scored)
        for pos in range(len(scored)):
            rest = [v for _, v in scored[pos:]]
            for size in range(1, slots + 1):
                for picks in itertools.combinations(rest, size):
                    added = closure(table, cover.members | mask_of(picks)) & uncov_mask
                    assert 2 * added.bit_count() <= reach[pos]


class TestStalePairReach:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(max_n=9), st.sets(st.integers(0, 8)))
    # a case where both picks' caps are tight: halving the second cap or
    # the pair maxima makes the bound inadmissible here, and random draws
    # alone did not find one
    @example(Graph(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)]),
             {0, 3})
    def test_admissible_against_brute_force(self, g, start):
        # a slots = 3 node records its candidates' pair maxima; below each
        # first pick i, the slots = 2 child bounds with them and counts no pairs
        table = Instance.of(g).table
        members = {v for v in start if v < g.n}
        cover = Cover(table, mask_of(members))
        uncov_mask = full_mask(g.n) & ~cover.coverage
        scored = sorted((((cover.gains[v] | 1 << v) & uncov_mask, v)
                         for v in range(g.n) if v not in members),
                        key=lambda t: (-t[0].bit_count(), t[1]))
        pair_max = [0] * g.n
        completion_reach(table, scored, uncov_mask, 3, pair_max)
        for first, (gain, i) in enumerate(scored):
            child_mask = uncov_mask & ~gain
            child = sorted((((g_j | table[i][j]) & child_mask, j) for g_j, j in scored[first + 1:]),
                           key=lambda t: (-t[0].bit_count(), t[1]))  # complete's order
            reach = stale_pair_reach(child, pair_max)
            assert len(reach) == len(child)
            base = cover.members | 1 << i
            for size in (1, 2):
                # picks from child[pos:] are bounded by reach[pos], tightest
                # at the first pick's position
                for picks in itertools.combinations(range(len(child)), size):
                    added = closure(table, base | mask_of(child[p][1] for p in picks)) & child_mask
                    assert 2 * added.bit_count() <= reach[picks[0]]


class TestComplete:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(max_n=9), st.integers(1, 4), st.sets(st.integers(0, 8)))
    # its 3-vertex covers are found only when the slots = 2 nodes below
    # slots = 3 credit each candidate with its pair maximum
    @example(Graph(6, [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)]),
             3, set())
    def test_completes_exactly_when_enumeration_does(self, g, slots, start):
        # slots 3 and 4 reach the stale-bound nodes at slots = 2 and the
        # single-pick scans at slots = 1 below them
        table = Instance.of(g).table
        full = full_mask(g.n)
        members = mask_of(start) & full
        cover = Cover(table, members)
        candidates = [v for v in range(g.n) if not members >> v & 1]
        budget = Budget(SearchLimits(), 0.0)
        found = complete(table, [(1 << v, v) for v in candidates], cover.gains,
                         full & ~cover.coverage, slots, budget)
        exists = any(closure(table, members | mask_of(picks)) == full
                     for size in range(slots + 1)
                     for picks in itertools.combinations(candidates, size))
        assert (found is not None) == exists
        if found is not None:
            assert found & ~mask_of(candidates) == 0
            assert found.bit_count() <= slots
            assert closure(table, members | found) == full
        assert budget.nodes >= 1


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

    def test_pair_bound_proves_within_node_budget(self):
        # proved in 6,680 nodes; a bound that credits every future pair with
        # the largest residual pair interval needs 14,099
        g = generate(GenSpec("BA", 30, edge_count_for_density(30, 0.2), seed=3))
        res = exact_geodetic(g, SearchLimits(node_budget=10_000))
        assert (res.optimal, res.value) == (True, 9)

    @pytest.mark.parametrize("family,seed,nodes,expect", [
        ("BA", 3, 6680, (True, 9)),
        ("BA", 3, 6679, (False, 10)),
        ("ER", 2, 3338, (True, 7)),
        ("ER", 2, 3337, (False, 7)),
    ])
    def test_node_budget_pins_nodes_to_proof(self, family, seed, nodes, expect):
        # the proof opens exactly 6,680 and 3,338 nodes; one fewer returns
        # greedy's cover, flagged non-optimal
        g = generate(GenSpec(family, 30, edge_count_for_density(30, 0.2), seed=seed))
        res = exact_geodetic(g, SearchLimits(node_budget=nodes))
        assert (res.optimal, res.value) == expect

    def test_forced_shortcut_ignores_budget(self):
        # a path is decided by its endpoints before any search node opens
        res = exact_geodetic(path_graph(9), SearchLimits(node_budget=1))
        assert res.optimal
        assert res.vertices == (0, 8)
