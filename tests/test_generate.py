import hashlib
import math
import sys
import tracemalloc
from bisect import bisect_right
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic.errors import ValidationError
from geodetic.generate import (
    BA_PREFIX_STEPS,
    FAMILIES,
    MAX_ATTEMPTS,
    MAX_ATTEMPTS_CAP,
    GenSpec,
    _draw_ba,
    _draw_er,
    _fenwick_add,
    _fenwick_search,
    attempt_budget,
    benchmark_grid,
    edge_count_for_density,
    generate,
)
from geodetic.graph import Graph, is_connected, write_edge_list
from geodetic.rng import SplitMix64, stream_seed
from helpers import ScalarSplitMix64, decoded, scalar_draw_er

generate_module = sys.modules["geodetic.generate"]  # geodetic.generate is the function

# sha256 of write_edge_list(generate(spec)), pinned so draws stay byte-identical
PINNED_EDGE_LIST_SHA256 = [
    (GenSpec("ER", 30, 90, 1), "95197d2ab5e97bdc47329cfc87dda4e7daed8f49686181b71b74b263c572c8ac"),
    (GenSpec("ER", 200, 9950, 4), "4cd96ab1ecb589e37653dd2df5e5cd00073580872a29d8d09a0815c32dbb1a4e"),
    (GenSpec("WS", 60, 240, 2), "9e7857a55ee9fc4d5c5f62a1d25df924f2aa735dc6023d968d987a7df225824b"),
    (GenSpec("WS", 45, 500, 7), "9e360f81bc775fc394dd93235fed688fe06012bcd6c82e5a5aecee2aa215cb62"),
    (GenSpec("BA", 80, 320, 3), "b0e0c54b454324bfbc46bd4f3af3f5a235f6840b2ef10cc667bbcb54527b746b"),
    (GenSpec("BA", 50, 900, 11), "6c7599ec8ef624cd4b7045f7578a82bc440cc31597a79a4dcd893df21ba64801"),
]


class TestEdgeCount:
    def test_known_values(self):
        assert edge_count_for_density(40, 0.2) == 156
        assert edge_count_for_density(115, 0.25) == 1638
        assert edge_count_for_density(135, 0.25) == 2261
        assert edge_count_for_density(150, 0.75) == 8381
        assert edge_count_for_density(10, 0.2) == 9

    def test_rounds_down(self):
        # 0.25 * C(15,2) = 26.25
        assert edge_count_for_density(15, 0.25) == 26

    def test_exact_at_density_one(self):
        assert edge_count_for_density(12, 1.0) == 66

    def test_decimal_density_is_exact(self):
        # 0.2 * 45 must be 9, not 8 from binary float error
        assert edge_count_for_density(10, 0.2) == 9
        assert edge_count_for_density(30, 0.2) == 87

    @pytest.mark.parametrize("density", [float("nan"), float("inf"),
                                         float("-inf"), 0.0, 2.0])
    def test_outside_unit_interval_rejected(self, density):
        with pytest.raises(ValidationError):
            edge_count_for_density(10, density)


class TestGenSpec:
    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            GenSpec("XX", 10, 20, 0)

    def test_too_few_vertices(self):
        with pytest.raises(ValidationError):
            GenSpec("ER", 1, 1, 0)

    def test_zero_edges(self):
        with pytest.raises(ValidationError):
            GenSpec("ER", 5, 0, 0)

    def test_too_many_edges(self):
        with pytest.raises(ValidationError):
            GenSpec("ER", 5, 11, 0)

    def test_cannot_connect(self):
        with pytest.raises(ValidationError):
            GenSpec("ER", 10, 8, 0)

    def test_bad_rewire_prob(self):
        with pytest.raises(ValidationError):
            GenSpec("WS", 10, 20, 0, ws_rewire_prob=1.5)


class TestGenerate:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic(self, family):
        spec = GenSpec(family, 20, 50, seed=11)
        assert generate(spec) == generate(spec)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_edge_count_and_connected(self, family):
        for n, m, seed in [(10, 9, 0), (15, 40, 1), (25, 120, 2), (30, 87, 3)]:
            g = generate(GenSpec(family, n, m, seed))
            assert g.n == n
            assert g.m == m
            assert is_connected(g)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tree_density_works(self, family):
        # m = n - 1 is the degenerate low end for every family
        g = generate(GenSpec(family, 12, 11, seed=4))
        assert g.m == 11
        assert is_connected(g)

    def test_seeds_change_the_graph(self):
        graphs = {generate(GenSpec("ER", 20, 60, seed=s)) for s in range(6)}
        assert len(graphs) > 1

    def test_dense_extreme(self):
        g = generate(GenSpec("ER", 10, 45, seed=0))
        assert g.m == 45  # complete graph

    def test_ws_rewire_prob_changes_result(self):
        a = generate(GenSpec("WS", 30, 120, 5, ws_rewire_prob=0.0))
        b = generate(GenSpec("WS", 30, 120, 5, ws_rewire_prob=1.0))
        assert a != b

    @pytest.mark.parametrize("spec,digest", PINNED_EDGE_LIST_SHA256,
                             ids=lambda x: f"{x.family}-{x.n}-{x.m_target}"
                             if isinstance(x, GenSpec) else "")
    def test_pinned_edge_lists(self, spec, digest):
        text = write_edge_list(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_ba_draw_across_the_sums_to_tree_switch(self):
        # d = 9: the rebuilt running sums pick for v < 6 * 9 * 11 = 594, the
        # Fenwick tree for the rest; the digest is that of `geodetic generate
        # --family ba --n 2000 --density 0.01 --seed 1` from before the switch
        spec = GenSpec("BA", 2000, 19990, 1)
        assert 10 < BA_PREFIX_STEPS * 9 * spec.n.bit_length() < spec.n
        text = write_edge_list(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "59a28fe057bdd6b8c97ebdbc2365158e33895b45e0a1f5f928cb381d7e081989")

    @pytest.mark.parametrize("n,m,seed", [(10, 9, 0), (40, 156, 1), (100, 3960, 2), (300, 1200, 3)])
    def test_ba_sums_and_tree_pick_the_same_targets(self, n, m, seed, monkeypatch):
        draws = []
        for steps in (0, 1, 10**9):  # tree from the start, switch early, sums only
            monkeypatch.setattr(generate_module, "BA_PREFIX_STEPS", steps)
            draws.append(sorted(_draw_ba(n, m, SplitMix64(seed)).tolist()))
        assert len(draws[0]) == m
        assert draws[0] == draws[1] == draws[2]

    def test_sparse_draw_does_not_list_every_pair(self):
        # 5000 edges among 1200 vertices; the 719,400 possible pairs must
        # not be materialized
        tracemalloc.start()
        try:
            generate(GenSpec("ER", 1200, 5000, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestAttemptBudget:
    def test_dense_specs_keep_the_floor(self):
        assert attempt_budget(30, 87) == attempt_budget(20000, 199990) == MAX_ATTEMPTS

    def test_grows_with_expected_isolated_vertices_up_to_the_cap(self):
        n, m = 2000, 5991  # mu = n e^(-2m/n) = 5.0
        assert attempt_budget(n, m) == math.ceil(10 * math.exp(n * math.exp(-2 * m / n)))
        assert 1400 < attempt_budget(n, m) < 1600
        assert attempt_budget(100000, 99999) == MAX_ATTEMPTS_CAP  # mu about 13,500

    def test_sparse_er_draw_past_the_old_fixed_budget(self):
        # mu = 5, so a draw is connected with probability about e^-5; seed 2
        # first draws a connected graph on attempt 119, past the fixed budget
        # of 100 draws that raised GenerationError here
        spec = GenSpec("ER", 2000, 5991, seed=2)
        g = generate(spec)
        assert g.m == 5991 and is_connected(g)
        assert g == Graph(2000, decoded(2000, _draw_er(2000, 5991, SplitMix64(stream_seed(2, 119)))))
        assert not any(
            is_connected(Graph(2000, edges))
            for edges in (decoded(2000, _draw_er(2000, 5991, SplitMix64(stream_seed(2, k))))
                          for k in range(119))
            if len(set(chain.from_iterable(edges))) == 2000)


class TestArrayDraws:
    """The array ER draw and the Fenwick BA search against their scalar forms."""

    @pytest.mark.parametrize("n,m,seed", [
        (2, 1, 0), (10, 45, 3), (30, 200, 1), (1200, 5000, 0),
        (100_000, 40, 2), (100_000, 3, 9)])  # at n = 100,000 the pair count passes 2^32
    def test_er_matches_the_scalar_draw(self, n, m, seed):
        fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        edges = decoded(n, _draw_er(n, m, fast))
        assert len(edges) == m
        assert set(edges) == scalar_draw_er(n, m, ref)
        assert fast.next_u64() == ref.next_u64()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.data())
    def test_er_matches_the_scalar_draw_on_random_sizes(self, n, data):
        m = data.draw(st.integers(1, n * (n - 1) // 2))
        seed = data.draw(st.integers(0, 2**64 - 1))
        assert set(decoded(n, _draw_er(n, m, SplitMix64(seed)))) == scalar_draw_er(
            n, m, ScalarSplitMix64(seed))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=70).filter(any), st.data())
    def test_fenwick_search_is_bisect_over_running_sums(self, degrees, data):
        tree = [0] * (1 << len(degrees).bit_length())
        for u, deg in enumerate(degrees):
            _fenwick_add(tree, u, deg)
        cum = list(accumulate(degrees))
        r = data.draw(st.integers(0, cum[-1] - 1))
        assert _fenwick_search(tree, r) == bisect_right(cum, r)

    def test_retried_spec_builds_no_graph_for_isolated_draws(self, monkeypatch):
        # attempts 0-8 of this spec each leave a vertex without an edge
        spec = GenSpec("ER", 20, 25, 6)
        built = []
        of_csr = Graph.of_csr

        def counted(n, start, nbrs):
            built.append(n)
            return of_csr(n, start, nbrs)

        monkeypatch.setattr(Graph, "of_csr", counted)
        g = generate(spec)
        assert len(built) == 1
        for attempt in range(10):  # the draw-everything loop, as a reference
            want = Graph(20, scalar_draw_er(20, 25, ScalarSplitMix64(stream_seed(6, attempt))))
            if is_connected(want):
                break
        assert attempt == 9
        assert g == want


class TestBenchmarkGrid:
    def test_standard_shape(self):
        specs = benchmark_grid("standard")
        assert len(specs) == 120  # 3 families x 10 sizes x 4 densities
        assert [s.seed for s in specs] == list(range(120))
        assert specs[0].family == "ER"
        assert specs[40].family == "WS"
        assert specs[80].family == "BA"

    def test_large_shape(self):
        specs = benchmark_grid("large")
        assert len(specs) == 27

    def test_large_er_edge_targets(self):
        specs = [s for s in benchmark_grid("large") if s.family == "ER"]
        assert [s.m_target for s in specs] == [
            1638, 3277, 4916, 2261, 4522, 6783, 2793, 5587, 8381]

    def test_family_filter_and_seed_base(self):
        specs = benchmark_grid("standard", families=("BA",), seed_base=100)
        assert len(specs) == 40
        assert all(s.family == "BA" for s in specs)
        assert specs[0].seed == 100
        assert specs[-1].seed == 139

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            benchmark_grid("huge")

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            benchmark_grid("standard", families=("ER", "XX"))

    def test_cells_are_reproducible(self):
        spec = benchmark_grid("standard")[17]
        assert generate(spec) == generate(spec)
