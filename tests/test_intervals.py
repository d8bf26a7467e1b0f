import gc
import itertools
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodetic.graph
from geodetic.bitset import full_mask, mask_of, vertices_of
from geodetic.errors import ValidationError
from geodetic.exact import brute_force_geodetic, exact_geodetic
from geodetic.generate import GenSpec, benchmark_grid, edge_count_for_density, generate
from geodetic.graph import Graph
from geodetic.greedy import greedy_geodetic
from geodetic.intervals import (
    DISTANCE_MAX_N,
    TABLE_MEMORY_CAP,
    Cover,
    Instance,
    all_pairs_distances,
    closure,
    interval_row,
    interval_sizes,
    interval_table,
    is_geodetic,
    pk_table,
    table_bytes,
)
from geodetic.local import locally_greedy_geodetic
from helpers import (
    bfs_distances,
    broom_graph,
    complete_bipartite_graph,
    complete_graph,
    count_builds,
    connected_graphs,
    cycle_graph,
    oracle_closure,
    oracle_interval,
    path_graph,
    petersen_graph,
    sssp_intervals,
    star_graph,
)


class TestDistances:
    def test_path(self):
        d = all_pairs_distances(path_graph(4))
        assert d[0][3] == 3
        assert d[1][2] == 1
        assert d[2][2] == 0

    def test_complete(self):
        d = all_pairs_distances(complete_graph(4))
        off = ~np.eye(4, dtype=bool)
        assert (d[off] == 1).all()

    def test_cycle(self):
        d = all_pairs_distances(cycle_graph(6))
        assert d[0][3] == 3
        assert d[0][4] == 2
        assert d.max() == 3

    def test_symmetry(self):
        d = all_pairs_distances(cycle_graph(7))
        assert (d == d.T).all()

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("n", [127, 128])
    def test_disconnected_rejected_at_dtype_boundary(self, n):
        # two paths; here two n + 1 sentinels overflow uint8, and the sum
        # wraps unless the dtype was sized for 2n + 2
        with pytest.raises(ValidationError):
            all_pairs_distances(Graph(n, [(i, i + 1) for i in range(n - 1) if i != n // 2]))

    @pytest.mark.parametrize("build", [path_graph, cycle_graph])
    @pytest.mark.parametrize("n", [126, 127, 128, 300])
    def test_matches_bfs_across_dtype_boundary(self, build, n):
        g = build(n)
        assert all_pairs_distances(g).tolist() == [bfs_distances(g, v) for v in range(n)]

    @pytest.mark.parametrize("g, dtype", [
        (broom_graph(200, 63), np.uint8),   # two sentinels of 2 * 63 + 1 fit a byte
        (broom_graph(200, 64), np.uint16),  # two of 2 * 64 + 1 do not
        (generate(GenSpec("ER", 400, 1600, seed=1)), np.uint8),
    ], ids=["broom-ecc63", "broom-ecc64", "ER-n400"])
    def test_dtype_follows_eccentricity_of_vertex_zero(self, g, dtype):
        d = all_pairs_distances(g)
        assert d.dtype == dtype
        assert d.tolist() == [bfs_distances(g, v) for v in range(g.n)]

    def test_narrowest_dtype_that_holds_two_sentinels(self):
        assert all_pairs_distances(path_graph(126)).dtype == np.uint8
        assert all_pairs_distances(path_graph(127)).dtype == np.uint16

    def test_matrix_read_only(self):
        d = all_pairs_distances(path_graph(3))
        with pytest.raises(ValueError):
            d[0][0] = 5

    @given(connected_graphs())
    def test_matches_bfs(self, g):
        d = all_pairs_distances(g)
        for v in range(g.n):
            assert list(d[v]) == bfs_distances(g, v)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        connected_graphs(min_n=1, max_n=60),
        st.integers(1, 60).map(path_graph),
        st.integers(3, 60).map(cycle_graph),
        st.integers(0, 59).map(star_graph),
        st.integers(1, 60).map(complete_graph)))
    def test_matches_bfs_up_to_n60_with_the_dtype_rule(self, g):
        d = all_pairs_distances(g)
        assert d.tolist() == [bfs_distances(g, v) for v in range(g.n)]
        ecc = max(bfs_distances(g, 0))
        assert d.dtype == np.min_scalar_type(2 * (min(g.n, 2 * ecc) + 1))

    def test_dense_graph_temporaries_stay_within_a_few_n_squared_bytes(self):
        # ER n=300 at density 0.9 has about 40,000 edges: gathering every
        # neighbour row at once would take 80,000 rows of 40 bytes, about
        # 36 n^2 bytes; the result alone is n^2 bytes
        n = 300
        g = generate(GenSpec("ER", n, edge_count_for_density(n, 0.9), seed=1))
        all_pairs_distances(g)  # warm every code path before measuring
        tracemalloc.start()
        try:
            all_pairs_distances(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


class TestIntervalTable:
    def test_diagonal_is_singleton(self):
        t = interval_table(all_pairs_distances(cycle_graph(5)))
        for i in range(5):
            assert t[i][i] == 1 << i

    def test_even_cycle_antipodal(self):
        t = interval_table(all_pairs_distances(cycle_graph(4)))
        assert t[0][2] == 0b1111

    def test_odd_cycle_one_side(self):
        t = interval_table(all_pairs_distances(cycle_graph(5)))
        assert t[0][2] == 0b00111

    def test_path_spans_everything(self):
        t = interval_table(all_pairs_distances(path_graph(4)))
        assert t[0][3] == 0b1111

    @settings(max_examples=40)
    @given(connected_graphs(max_n=8))
    def test_square_and_symmetric(self, g):
        t = interval_table(all_pairs_distances(g))
        assert len(t) == g.n and all(len(row) == g.n for row in t)
        for i in range(g.n):
            for j in range(g.n):
                assert t[i][j] is t[j][i]
                assert set(vertices_of(t[i][j])) == oracle_interval(g, i, j)
                assert set(vertices_of(t[j][i])) == oracle_interval(g, j, i)

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 64, 65])
    def test_matches_oracle_at_packed_widths(self, n):
        # each mask packs into ceil(n / 8) bytes; cover a partial, a full and
        # one spilled byte, and a multiple of the 8-byte word
        for g in (cycle_graph(n), generate(GenSpec("BA", n, 2 * n, seed=n))):
            d = all_pairs_distances(g)
            t = interval_table(d)
            for i in range(n):
                for j in range(n):
                    assert set(vertices_of(t[i][j])) == oracle_interval(g, i, j)
            assert all(interval_row(d, v) == t[v] for v in range(n))

    @settings(max_examples=60)
    @given(connected_graphs(max_n=8))
    def test_matches_path_enumeration(self, g):
        t = interval_table(all_pairs_distances(g))
        for i in range(g.n):
            for j in range(i, g.n):
                assert set(vertices_of(t[i][j])) == oracle_interval(g, i, j)


def rows_per_block(monkeypatch, d, rows: int) -> None:
    """Set BLOCK_BYTES so that interval_table and interval_sizes take `rows` rows a block."""
    n = len(d)
    monkeypatch.setattr(geodetic.intervals, "BLOCK_BYTES", rows * n * n * (d.itemsize + 1))


class TestBlockedTable:
    """The row-block build against a build of one row at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 14])
    def test_matches_the_per_row_build_around_block_boundaries(self, monkeypatch, n):
        # four rows a block: n = 3, 4, 5 sit at the first boundary and
        # n = 9 and 14 take several blocks, the last one partial
        graphs = [path_graph(n)]
        if n >= 3:
            graphs += [cycle_graph(n), generate(GenSpec("BA", n, 2 * n - 3, seed=n))]
        for g in graphs:
            d = all_pairs_distances(g)
            rows_per_block(monkeypatch, d, 4)
            sizes = np.empty((n, n), dtype=np.int16)
            t = interval_table(d, sizes)
            assert t == [interval_row(d, v) for v in range(n)]
            assert all(t[i][j] is t[j][i] for i in range(n) for j in range(n))
            assert sizes.tolist() == [[m.bit_count() for m in row] for row in t]
            assert interval_sizes(d).tolist() == sizes.tolist()

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=20), st.integers(1, 21))
    def test_any_block_height_builds_the_same_table(self, g, rows):
        d = all_pairs_distances(g)
        with pytest.MonkeyPatch.context() as monkeypatch:
            rows_per_block(monkeypatch, d, rows)
            t = interval_table(d)
            sizes = interval_sizes(d)
        assert t == [interval_row(d, v) for v in range(g.n)]
        assert all(t[i][j] is t[j][i] for i in range(g.n) for j in range(g.n))
        assert sizes.tolist() == [[m.bit_count() for m in row] for row in t]

    def test_default_blocks_of_a_large_table(self):
        g = generate(GenSpec("ER", 200, 800, seed=5))
        d = all_pairs_distances(g)
        assert 1 < geodetic.intervals.BLOCK_BYTES // (200 * 200 * (d.itemsize + 1)) < 200
        t = interval_table(d)
        for v in (0, 1, 2, 3, 4, 100, 198, 199):
            assert t[v] == interval_row(d, v)
            assert all(t[v][j] is t[j][v] for j in range(200))


class TestSizes:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=16))
    def test_sizes_are_the_mask_bit_counts_on_both_paths(self, g):
        from_distances = Instance.of(g)
        counted = from_distances.sizes
        assert not from_distances.has_table  # counted from the distances
        from_table = Instance.of(g)
        table = from_table.table
        want = [[m.bit_count() for m in row] for row in table]
        for sizes in (counted, from_table.sizes):
            assert sizes.dtype == np.int16 and not sizes.flags.writeable
            assert sizes.tolist() == want
        assert from_distances.table == table
        assert from_distances.sizes is counted  # the table build leaves it

    def test_counted_once_per_instance(self, monkeypatch):
        inst = Instance.of(generate(GenSpec("ER", 30, 90, seed=3)))
        calls = []
        counted = geodetic.intervals.interval_sizes
        monkeypatch.setattr(geodetic.intervals, "interval_sizes",
                            lambda d: calls.append(1) or counted(d))
        greedy_geodetic(inst, add_one=True)  # reads no table: counts from distances
        greedy_geodetic(inst)
        assert calls == [1] and inst.has_table


class TestClosure:
    def test_antipodal_pair_covers_even_cycle(self):
        t = interval_table(all_pairs_distances(cycle_graph(6)))
        assert closure(t, mask_of([0, 3])) == full_mask(6)

    def test_path_endpoints_cover(self):
        t = interval_table(all_pairs_distances(path_graph(5)))
        assert closure(t, mask_of([0, 4])) == full_mask(5)

    def test_complete_graph_pairs_stay_put(self):
        t = interval_table(all_pairs_distances(complete_graph(4)))
        assert closure(t, mask_of([0, 1])) == mask_of([0, 1])

    def test_empty_set(self):
        t = interval_table(all_pairs_distances(path_graph(3)))
        assert closure(t, 0) == 0

    def test_singleton(self):
        t = interval_table(all_pairs_distances(path_graph(3)))
        assert closure(t, 1 << 1) == 1 << 1

    def test_is_geodetic(self):
        t = interval_table(all_pairs_distances(path_graph(4)))
        assert is_geodetic(t, mask_of([0, 3]))
        assert not is_geodetic(t, mask_of([0, 2]))

    @settings(max_examples=60)
    @given(connected_graphs(max_n=8))
    def test_matches_oracle_and_monotone(self, g):
        t = interval_table(all_pairs_distances(g))
        members = set(range(0, g.n, 2))
        got = set(vertices_of(closure(t, mask_of(members))))
        assert got == oracle_closure(g, members)
        bigger = members | {g.n - 1}
        assert got <= set(vertices_of(closure(t, mask_of(bigger))))


class TestCover:
    def test_starts_empty(self):
        t = interval_table(all_pairs_distances(path_graph(3)))
        cover = Cover(t)
        assert (cover.members, cover.coverage, cover.gains) == (0, 0, [0, 0, 0])

    def test_path_endpoints(self):
        t = interval_table(all_pairs_distances(path_graph(4)))
        cover = Cover(t, mask_of([0, 3]))
        assert cover.coverage == full_mask(4)
        assert cover.gains == [t[0][j] | t[3][j] for j in range(4)]

    @settings(max_examples=60)
    @given(st.data())
    def test_invariants_in_any_add_order(self, data):
        g = data.draw(connected_graphs(max_n=8))
        t = interval_table(all_pairs_distances(g))
        order = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        cover = Cover(t)
        for v in order:
            cover.add(v)
        members = mask_of(order)
        assert cover.members == members
        assert cover.coverage == closure(t, members)
        assert set(vertices_of(cover.coverage)) == oracle_closure(g, set(order))
        for j in range(g.n):
            union = 0
            for s in order:
                union |= t[s][j]
            assert cover.gains[j] == union
        ascending = Cover(t, members)
        assert (ascending.coverage, ascending.gains) == (cover.coverage, cover.gains)
        assert cover.table is t


def decoded(pk: tuple[np.ndarray, ...], n: int) -> list[tuple[tuple[int, int], ...]]:
    """Each P(k) as (i, j) tuples, decoding pair indices by the lexicographic pair list."""
    pairs = list(itertools.combinations(range(n), 2))
    return [tuple(map(pairs.__getitem__, hits)) for hits in pk]


class TestPkTable:
    def test_path_middle_vertex(self):
        pk = pk_table(all_pairs_distances(path_graph(3)))
        assert decoded(pk, 3)[1] == ((0, 1), (0, 2), (1, 2))

    def test_ascending_read_only_int32_indices(self):
        for g in (path_graph(3), cycle_graph(7), petersen_graph()):
            pair_count = g.n * (g.n - 1) // 2
            for hits in pk_table(all_pairs_distances(g)):
                assert hits.dtype == np.int32
                assert not hits.flags.writeable
                assert (np.diff(hits) > 0).all()
                assert 0 <= hits.min() and hits.max() < pair_count

    def test_triangle_vertex_zero(self):
        pk = pk_table(all_pairs_distances(complete_graph(3)))
        assert decoded(pk, 3)[0] == ((0, 1), (0, 2))

    def test_endpoint_pairs_included(self):
        pk = decoded(pk_table(all_pairs_distances(cycle_graph(4))), 4)
        for k in range(4):
            endpoint_pairs = {(min(k, o), max(k, o)) for o in range(4) if o != k}
            assert endpoint_pairs <= set(pk[k])

    @settings(max_examples=40)
    @given(connected_graphs(max_n=7))
    def test_matches_oracle(self, g):
        pk = decoded(pk_table(all_pairs_distances(g)), g.n)
        for k in range(g.n):
            expect = tuple(
                (i, j) for i, j in itertools.combinations(range(g.n), 2)
                if k in oracle_interval(g, i, j))
            assert pk[k] == expect

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(min_n=1, max_n=12))
    def test_matches_interval_table(self, g):
        # the two builders of the same membership data must agree
        inst = Instance.of(g)
        pk = decoded(pk_table(inst.dist), g.n)
        for k in range(g.n):
            assert set(pk[k]) == {(i, j) for i, j in itertools.combinations(range(g.n), 2)
                                  if inst.table[i][j] >> k & 1}


def networkx_intervals(g: Graph) -> dict[tuple[int, int], set[int]]:
    """I(i, j) for every ordered pair: the vertices of networkx's shortest paths."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return {(i, j): set().union(*nx.all_shortest_paths(h, i, j))
            for i in range(g.n) for j in range(g.n)}


NETWORKX_ORACLE_GRAPHS = (
    [pytest.param(generate(spec), id=f"{spec.family}-m{spec.m_target}-s{spec.seed}")
     for spec in benchmark_grid("standard") if spec.n == 10]
    + [pytest.param(cycle_graph(7), id="C7"), pytest.param(path_graph(6), id="P6"),
       pytest.param(petersen_graph(), id="petersen")])


@pytest.mark.parametrize("g", NETWORKX_ORACLE_GRAPHS)
class TestNetworkxOracle:
    """P(k) and the interval table against networkx's shortest-path enumeration."""

    def test_pk_table(self, g):
        intervals = networkx_intervals(g)
        pk = decoded(pk_table(all_pairs_distances(g)), g.n)
        for k in range(g.n):
            assert pk[k] == tuple((i, j) for i, j in itertools.combinations(range(g.n), 2)
                                  if k in intervals[i, j])

    def test_interval_table(self, g):
        intervals = networkx_intervals(g)
        table = Instance.of(g).table
        for (i, j), interval in intervals.items():
            assert table[i][j] == mask_of(interval)


class TestSsspIntervals:
    def test_path_from_end(self):
        rows = sssp_intervals(path_graph(4), 0)
        assert rows[3] == 0b1111
        assert rows[1] == 0b0011
        assert rows[0] == 0b0001

    def test_even_cycle_antipodal(self):
        rows = sssp_intervals(cycle_graph(4), 0)
        assert rows[2] == 0b1111

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            sssp_intervals(Graph(3, [(0, 1)]), 0)

    @settings(max_examples=60)
    @given(connected_graphs(max_n=8))
    def test_rows_match_table(self, g):
        t = interval_table(all_pairs_distances(g))
        for v in range(g.n):
            rows = sssp_intervals(g, v)
            assert rows == t[v]


class TestInstance:
    def test_builds_distances_and_table(self):
        g = cycle_graph(6)
        inst = Instance.of(g)
        assert inst.graph is g
        assert inst.n == 6
        assert (inst.dist == all_pairs_distances(g)).all()
        assert inst.table == interval_table(all_pairs_distances(g))

    def test_rows_are_the_table_rows_once_it_exists(self):
        inst = Instance.of(generate(GenSpec("ER", 30, 90, seed=2)))
        early = inst[4]
        assert early == interval_row(inst.dist, 4)
        table = inst.table
        assert inst.table is table  # built at most once
        assert early == table[4]
        assert all(inst[v] is table[v] for v in range(inst.n))

    @pytest.mark.parametrize("solve, tables", [
        (locally_greedy_geodetic, 0),
        (lambda x: greedy_geodetic(x, add_one=True), 0),
        (greedy_geodetic, 1),
        (exact_geodetic, 1),
    ], ids=["local", "greedy-addone", "greedy", "exact"])
    def test_table_built_only_for_solvers_that_read_it(self, monkeypatch, solve, tables):
        g = generate(GenSpec("BA", 16, 40, seed=3))
        calls = count_builds(monkeypatch)
        solve(g)
        assert calls == {"all_pairs_distances": 1, "interval_table": tables}

    def test_no_solver_leaves_the_instance_in_a_cycle(self):
        # the rows hold the distances and the table, never the Instance: with
        # the cycle collector off, dropping the last reference must free it
        g = generate(GenSpec("WS", 14, 30, seed=3))
        gc.disable()
        try:
            for solve in (greedy_geodetic, lambda x: greedy_geodetic(x, add_one=True),
                          locally_greedy_geodetic, exact_geodetic, brute_force_geodetic):
                inst = Instance.of(g)
                solve(inst)
                ref = weakref.ref(inst)
                del inst
                assert ref() is None
        finally:
            gc.enable()

    def test_generated_graph_shares_one_bfs_and_one_csr(self, monkeypatch):
        # generate's connectivity check, the distances and the forced core
        # all read the graph's one BFS from vertex 0 and the one CSR that
        # generate built it from
        runs = {"_scan_depth": 0, "csr_of_codes": 0}
        for name in runs:
            original = getattr(geodetic.graph, name)

            def counted(*args, _original=original, _name=name):
                runs[_name] += 1
                return _original(*args)

            for module in (geodetic.graph, sys.modules["geodetic.generate"]):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        g = generate(GenSpec("ER", 40, 200, seed=1))
        assert runs == {"_scan_depth": 1, "csr_of_codes": 1}
        calls = count_builds(monkeypatch)
        Instance.of(g)
        assert runs == {"_scan_depth": 1, "csr_of_codes": 1}
        assert calls["all_pairs_distances"] == 1

    def test_instance_passes_through(self):
        inst = Instance.of(path_graph(4))
        assert Instance.of(inst) is inst

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            Instance.of(Graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=9))
    def test_forced_is_what_no_other_set_covers(self, g):
        # v is forced iff the closure of every other vertex misses it
        everything = frozenset(range(g.n))
        expect = mask_of(v for v in range(g.n)
                         if oracle_closure(g, everything - {v}) != everything)
        assert Instance.of(g).forced == expect

    def test_forced_core_of_small_and_bipartite_graphs(self):
        assert Instance.of(Graph(1, [])).forced == 1  # the lone vertex
        assert Instance.of(Graph(2, [(0, 1)])).forced == 0b11
        # K2,1 is the path 0 - 2 - 1; K2,b with b >= 2 has no forced vertex
        assert Instance.of(complete_bipartite_graph(2, 1)).forced == 0b011
        for b in (2, 3, 10, 70):
            assert Instance.of(complete_bipartite_graph(2, b)).forced == 0
        # the leaves of a star, and every vertex of a clique
        assert Instance.of(star_graph(70)).forced == full_mask(71) & ~1
        assert Instance.of(complete_graph(70)).forced == full_mask(70)

    def test_table_estimate_brackets_the_cap(self):
        # about 90 MB at n=1000; the 4 GiB cap falls between n=3500 and 4000
        assert 80e6 < table_bytes(1000) < 100e6
        assert table_bytes(3500) < TABLE_MEMORY_CAP < table_bytes(4000)

    def test_oversized_table_rejected_before_any_work(self, monkeypatch):
        calls = count_builds(monkeypatch)
        inst = Instance.of(complete_bipartite_graph(2, 4498))
        # the instance and its rows need no table, so only the table read raises
        assert is_geodetic(inst, 0b11)
        with pytest.raises(ValidationError, match="cap"):
            inst.table
        assert calls == {"all_pairs_distances": 1, "interval_table": 0}

    def test_oversized_distances_rejected_before_the_search(self):
        n = DISTANCE_MAX_N + 1
        # the size check comes first, even before the connectivity check
        for g in (cycle_graph(n), Graph(n, [])):
            with pytest.raises(ValidationError, match="cap"):
                Instance.of(g)

    @pytest.mark.parametrize("solve", [
        brute_force_geodetic, exact_geodetic, greedy_geodetic,
        lambda x: greedy_geodetic(x, add_one=True), locally_greedy_geodetic])
    def test_solvers_agree_on_graph_and_instance(self, solve):
        g = generate(GenSpec("BA", 14, 30, seed=5))
        assert solve(Instance.of(g)).vertices == solve(g).vertices

    def test_solvers_leave_shared_instance_intact(self):
        g = generate(GenSpec("WS", 14, 30, seed=3))
        inst = Instance.of(g)
        for solve in (greedy_geodetic, lambda x: greedy_geodetic(x, add_one=True),
                      locally_greedy_geodetic, exact_geodetic, brute_force_geodetic):
            solve(inst)
        fresh = Instance.of(g)
        assert (inst.dist == fresh.dist).all()
        assert inst.table == fresh.table
