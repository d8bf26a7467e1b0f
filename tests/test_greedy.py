from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic.bitset import full_mask, mask_of
from geodetic.errors import ValidationError
from geodetic.generate import GenSpec, generate
from geodetic.graph import Graph
from geodetic.greedy import (
    FIRST_BATCH,
    NO_PAIR,
    exclude,
    greedy_cover,
    greedy_geodetic,
    largest_increase,
    largest_increase_pair,
    pair_bounds,
)
from geodetic.intervals import (
    DISTANCE_MAX_N,
    Cover,
    Instance,
    all_pairs_distances,
    closure,
    interval_table,
    is_geodetic,
    require_distances_fit,
)
from helpers import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    exhaustive_pair,
    oracle_closure,
    path_graph,
    scan_largest_increase,
    star_graph,
)


def seeded_cover(g, members=0):
    return Cover(interval_table(all_pairs_distances(g)), members)


class TestInit:
    def test_path_seeds_with_leaves(self):
        cover = seeded_cover(path_graph(4), Instance.of(path_graph(4)).forced)
        assert cover.members == mask_of([0, 3])
        assert cover.coverage == full_mask(4)
        assert cover.coverage == closure(cover.table, cover.members)

    def test_cycle_starts_empty(self):
        t = interval_table(all_pairs_distances(cycle_graph(5)))
        cover = Cover(t, Instance.of(cycle_graph(5)).forced)
        assert cover.members == 0
        assert cover.coverage == 0
        assert cover.table is t  # shared, not copied


class TestLargestIncrease:
    def test_empty_set_has_no_gain(self):
        cover = seeded_cover(cycle_graph(5))
        assert largest_increase(cover) == (None, 0)

    def test_triangle_with_two_members(self):
        cover = seeded_cover(complete_graph(3))
        cover.add(0)
        cover.add(1)
        assert cover.coverage == closure(cover.table, mask_of([0, 1]))
        v, gain = largest_increase(cover)
        assert v == 2
        assert gain == mask_of([2])

    def test_no_candidates_left(self):
        cover = seeded_cover(Graph(2, [(0, 1)]), 0b11)
        assert cover.members == 0b11
        assert largest_increase(cover) == (None, 0)

    @settings(max_examples=40)
    @given(connected_graphs(min_n=3, max_n=8))
    def test_gain_equals_closure_difference(self, g):
        cover = seeded_cover(g, Instance.of(g).forced)
        if cover.members == 0:
            cover.add(0)
        assert cover.coverage == closure(cover.table, cover.members)
        v, gain = largest_increase(cover)
        if v is None:
            return
        grown = closure(cover.table, cover.members | (1 << v))
        assert gain == grown & ~cover.coverage

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(min_n=2, max_n=24), st.data())
    def test_matches_the_member_scan_on_random_covers(self, g, data):
        members = data.draw(st.integers(0, full_mask(g.n)), label="members")
        cover = seeded_cover(g, members)
        v, gain = largest_increase(cover)
        assert (v, gain) == scan_largest_increase(cover)
        if v is not None:
            assert not (cover.members >> v) & 1
            assert gain.bit_count() > 0

    def test_ties_go_to_the_lowest_index(self):
        # star with centre 0 and member leaf 1: leaves 2 and 3 each add
        # themselves and the centre, so they tie, and 2 wins
        cover = seeded_cover(star_graph(3), mask_of([1]))
        assert largest_increase(cover) == (2, mask_of([0, 2]))
        assert largest_increase(cover) == scan_largest_increase(cover)


class TestLargestIncreasePair:
    def test_odd_cycle_picks_longest_interval(self):
        cover = seeded_cover(cycle_graph(5))
        i, j, gain = largest_increase_pair(
            cover, pair_bounds(Instance.of(cycle_graph(5)), cover.members))
        assert (i, j) == (0, 2)
        assert gain == mask_of([0, 1, 2])

    def test_too_few_candidates(self):
        cover = seeded_cover(Graph(2, [(0, 1)]), 0b11)
        stale = pair_bounds(Instance.of(Graph(2, [(0, 1)])), cover.members)
        assert largest_increase_pair(cover, stale) == (None, None, 0)

    def test_pair_gain_covers_both_endpoints(self):
        cover = seeded_cover(cycle_graph(7))
        i, j, gain = largest_increase_pair(
            cover, pair_bounds(Instance.of(cycle_graph(7)), cover.members))
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


def core_bound(inst: Instance) -> int:
    """|forced | U|: the forced core plus every vertex it leaves uncovered."""
    uncovered = full_mask(inst.n) & ~Cover(inst.table, inst.forced).coverage
    return (inst.forced | uncovered).bit_count()


class TestCoreBound:
    """Each pick covers at least one new vertex per member it adds."""

    def test_seeds_from_the_forced_core(self):
        # 1, 2 and 3 are simplicial, of degree 2, 2 and 3, and their closure
        # is the whole graph; no vertex has degree <= 1
        g = Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 4), (2, 4), (2, 5),
                      (3, 4), (3, 5), (4, 5)])
        inst = Instance.of(g)
        assert inst.forced == mask_of([1, 2, 3]) and core_bound(inst) == 3
        for add_one in (False, True):
            assert greedy_cover(inst, add_one) == inst.forced

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(min_n=1, max_n=12))
    def test_never_larger_than_core_plus_uncovered(self, g):
        inst = Instance.of(g)
        for add_one in (False, True):
            assert greedy_cover(inst, add_one).bit_count() <= core_bound(inst)


@st.composite
def graphs_with_and_without_leaves(draw) -> Graph:
    """A connected graph, or the same graph closed into a Hamiltonian cycle
    so that no vertex has degree one."""
    g = draw(connected_graphs(min_n=3, max_n=40))
    if draw(st.booleans()):
        return g
    ring = [(v, (v + 1) % g.n) for v in range(g.n)]
    return Graph(g.n, sorted(set(g.edges()) | {(min(e), max(e)) for e in ring}))


def oracle_cover(inst: Instance, add_one: bool = False) -> int:
    """greedy_cover with every pair step taken by the exhaustive scan."""
    with mock.patch("geodetic.greedy.largest_increase_pair",
                    lambda cover, stale, bar=0: exhaustive_pair(cover)):
        return greedy_cover(inst, add_one)


class TestPrunedPairScan:
    """The bound-pruned pair step against the exhaustive scan it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_and_without_leaves())
    def test_every_round_matches_the_exhaustive_scan(self, g):
        pruned = largest_increase_pair
        steps = []

        def checked(cover, stale, bar=0):
            want = exhaustive_pair(cover)
            fresh = pair_bounds(Instance.of(g), cover.members)
            assert pruned(cover, fresh) == want  # bounds built afresh
            assert pruned(cover, stale.copy()) == want  # bounds carried across rounds
            got = pruned(cover, stale, bar)  # carried, under greedy's bar
            assert got == (want if want[2].bit_count() >= bar else (None, None, 0))
            steps.append(got)
            return got

        with mock.patch("geodetic.greedy.largest_increase_pair", checked):
            members = greedy_cover(Instance.of(g))
        assert steps[-1] == (None, None, 0)
        assert is_geodetic(interval_table(all_pairs_distances(g)), members)

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(min_n=2, max_n=20), st.data())
    def test_a_bar_returns_the_exhaustive_pair_or_none(self, g, data):
        members = data.draw(st.integers(0, full_mask(g.n)), label="members")
        bar = data.draw(st.integers(0, g.n + 1), label="bar")
        batch = data.draw(st.sampled_from([1, 3, FIRST_BATCH]), label="first batch")
        cover = seeded_cover(g, members)
        want = exhaustive_pair(cover)
        with mock.patch("geodetic.greedy.FIRST_BATCH", batch):
            got = largest_increase_pair(cover, pair_bounds(Instance.of(g), cover.members), bar)
        assert got == (want if want[2].bit_count() >= bar else (None, None, 0))

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_and_without_leaves())
    def test_either_sizes_path_gives_the_oracle_sets(self, g):
        # the pair bounds start from Instance.sizes, counted from the table's
        # masks when it is built first and from the distances otherwise
        for add_one in (False, True):
            want = oracle_cover(Instance.of(g), add_one)
            table_first = Instance.of(g)
            table_first.table
            assert greedy_cover(table_first, add_one) == want
            distances_first = Instance.of(g)
            distances_first.sizes
            assert not distances_first.has_table
            assert greedy_cover(distances_first, add_one) == want

    @pytest.mark.parametrize("family", ["ER", "WS", "BA"])
    def test_whole_set_matches_the_exhaustive_loop_at_n200(self, family):
        inst = Instance.of(generate(GenSpec(family, 200, 800, seed=0)))
        assert greedy_cover(inst) == oracle_cover(inst)
        assert greedy_cover(inst, add_one=True) == oracle_cover(inst, add_one=True)

    def test_stale_bounds_start_at_the_pristine_intervals(self):
        cover = seeded_cover(path_graph(5), mask_of([0, 4]))
        stale = pair_bounds(Instance.of(path_graph(5)), cover.members)
        assert stale.dtype == np.int16
        assert stale[1, 3] == cover.table[1][3].bit_count() == 3
        assert stale[3, 1] == stale[2, 2] == NO_PAIR  # lower triangle, diagonal
        assert (stale[0] == NO_PAIR).all() and (stale[:, 4] == NO_PAIR).all()

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=12), st.integers(min_value=0))
    def test_counts_from_distances_match_the_table_masks(self, g, bits):
        inst = Instance.of(g)
        members = bits & full_mask(g.n)
        before = pair_bounds(inst, members)
        assert not inst.has_table  # counted from the distances
        inst.table
        assert (pair_bounds(inst, members) == before).all()

    def test_scan_tightens_the_pairs_it_scores(self):
        cover = seeded_cover(cycle_graph(7))
        stale = pair_bounds(Instance.of(cycle_graph(7)), cover.members)
        for v in (0, 3):  # covers 0..3, leaves 4, 5 and 6
            cover.add(v)
            exclude(stale, v)
        before = stale.copy()
        assert largest_increase_pair(cover, stale) == exhaustive_pair(cover)
        uncovered = ~cover.coverage
        changed = list(zip(*np.nonzero(stale != before)))
        assert changed
        for i, j in changed:
            assert stale[i, j] == (cover.table[i][j] & uncovered).bit_count()
        assert (stale <= before).all()


class TestInt16Headroom:
    def test_bounds_fit_int16_for_every_admitted_n(self):
        # pair_bounds runs on every n the distance cap admits, add-one's
        # included, which reads no table
        n = DISTANCE_MAX_N
        require_distances_fit(n)
        with pytest.raises(ValidationError, match="cap"):
            require_distances_fit(n + 1)
        limit = np.iinfo(np.int16)
        # a candidate's bound is a stale interval count plus two single
        # counts, each at most n; an excluded pair adds two counts to NO_PAIR
        assert 3 * n <= limit.max
        assert limit.min <= NO_PAIR and NO_PAIR + 2 * n < 0
        stale = np.array([NO_PAIR, n], dtype=np.int16)
        single = np.array([n, n], dtype=np.int16)
        bound = stale + single
        bound += single
        assert bound.dtype == np.int16
        assert bound.tolist() == [NO_PAIR + 2 * n, 3 * n]
