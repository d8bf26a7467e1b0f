import hashlib
import subprocess
import sys

import pytest

from geodetic.bench import (
    CSV_HEADER,
    BenchConfig,
    format_csv,
    format_pretty,
    run_cell,
    run_grid,
)
from geodetic.exact import exact_geodetic
from geodetic.generate import GenSpec, benchmark_grid, generate
from geodetic.greedy import greedy_geodetic
from geodetic.intervals import Instance
from geodetic.local import locally_greedy_geodetic
from helpers import count_builds

# sha256 of the --no-timing CSV of each full scheme at seed base 0
PINNED_CSV_SHA256 = {
    "standard": "5af85169f355ec58b630d983ebbf443601b66396a0709e35e1df43384cb57205",
    "large": "980befe812200130931f0705b500e9253f846cd5754aedf3db23dd192fd8d357",
}

# sha256 of the greedy, add-one and local vertex sets, one line per result,
# on ER/WS/BA at n=150, m=600, seeds 0-2
PINNED_SETS_SHA256 = "8bd5ffc4684d4e9c447d43f1cb448af01ae5040b313783d369ccd4ad046a7790"

# sha256 of exact's vertex sets, one line per cell, on every standard-scheme
# cell with n <= 30 at seed base 0
PINNED_EXACT_SETS_SHA256 = "76727f5d333d47bdade02a717b6d63f00e7d28313a11b881842eef5a70b34e4e"


def small_specs():
    return [GenSpec("ER", 10, 18, seed=0), GenSpec("WS", 10, 20, seed=1),
            GenSpec("BA", 10, 16, seed=2), GenSpec("ER", 12, 26, seed=3)]


class TestRunCell:
    def test_exact_runs_on_small_graphs(self):
        rec = run_cell(GenSpec("ER", 10, 18, seed=0), BenchConfig())
        assert rec.exact_value is not None
        assert rec.exact_optimal is True
        assert rec.exact_value <= min(rec.greedy_value, rec.addone_value,
                                      rec.local_value)
        assert rec.n == 10
        assert rec.m == 18

    def test_exact_skipped_above_cap(self):
        rec = run_cell(GenSpec("ER", 35, 120, seed=0),
                       BenchConfig(exact_max_n=30))
        assert rec.exact_value is None
        assert rec.exact_optimal is None
        assert rec.exact_seconds is None

    def test_time_budget_opts_exact_in(self):
        rec = run_cell(GenSpec("ER", 35, 120, seed=0),
                       BenchConfig(exact_max_n=30, exact_time_budget=0.05))
        assert rec.exact_value is not None
        assert rec.exact_optimal is not None
        assert rec.exact_seconds is not None

    @pytest.mark.parametrize("spec", [GenSpec("ER", 10, 18, seed=0),
                                      GenSpec("WS", 35, 120, seed=1)])
    def test_one_build_per_cell(self, monkeypatch, spec):
        calls = count_builds(monkeypatch)
        run_cell(spec, BenchConfig(exact_max_n=30, exact_time_budget=0.05))
        assert calls == {"all_pairs_distances": 1, "interval_table": 1}


class TestRunGrid:
    def test_preserves_order(self):
        records = run_grid(small_specs(), BenchConfig())
        assert [(r.family, r.n, r.seed) for r in records] == [
            ("ER", 10, 0), ("WS", 10, 1), ("BA", 10, 2), ("ER", 12, 3)]

    def test_parallel_matches_serial(self):
        config = BenchConfig()
        serial = run_grid(small_specs(), config, jobs=1)
        parallel = run_grid(small_specs(), config, jobs=2)
        strip = lambda rs: [(r.family, r.n, r.m, r.seed, r.exact_value,
                             r.greedy_value, r.addone_value, r.local_value)
                            for r in rs]
        assert strip(serial) == strip(parallel)

    def test_workers_capped_at_cell_count(self, monkeypatch):
        asked = []

        class SerialPool:
            # stands in for the process pool: records the size, maps in-process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        records = run_grid(small_specs()[:2], BenchConfig(), jobs=64)
        assert asked == [2]
        assert [r.seed for r in records] == [0, 1]
        assert run_grid(small_specs()[:1], BenchConfig(), jobs=64)[0].seed == 0
        assert run_grid([], BenchConfig(), jobs=64) == []
        assert asked == [2]  # one cell or none runs without a pool

    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported by a parallel run_grid alone
        code = ("import sys, geodetic; "
                "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False"]


class TestFormatting:
    def test_header(self):
        text = format_csv([])
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER.split(",")[0] == "family"
        assert len(CSV_HEADER.split(",")) == 13

    def test_row_count(self):
        records = run_grid(small_specs(), BenchConfig())
        text = format_csv(records)
        assert len(text.splitlines()) == 5

    def test_timing_off_is_reproducible(self):
        config = BenchConfig()
        a = format_csv(run_grid(small_specs(), config), include_timing=False)
        b = format_csv(run_grid(small_specs(), config), include_timing=False)
        assert a == b

    def test_timing_off_blanks_time_fields(self):
        records = run_grid(small_specs(), BenchConfig())
        text = format_csv(records, include_timing=False)
        row = text.splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        for name in ("exact_time", "greedy_time", "addone_time", "local_time"):
            assert row[header.index(name)] == ""

    def test_timing_on_fills_time_fields(self):
        records = run_grid(small_specs()[:1], BenchConfig())
        row = format_csv(records).splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert float(row[header.index("greedy_time")]) >= 0.0

    def test_skipped_exact_renders_empty(self):
        rec = run_cell(GenSpec("ER", 35, 120, seed=0),
                       BenchConfig(exact_max_n=30))
        row = format_csv([rec]).splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("exact_value")] == ""
        assert row[header.index("exact_opt")] == ""

    def test_exact_opt_lowercase(self):
        rec = run_cell(GenSpec("ER", 10, 18, seed=0), BenchConfig())
        row = format_csv([rec]).splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("exact_opt")] == "true"

    def test_pretty_aligns_and_respects_timing_flag(self):
        records = run_grid(small_specs()[:2], BenchConfig())
        text = format_pretty(records, include_timing=False)
        lines = text.splitlines()
        assert lines[0].split()[0] == "family"
        assert len(lines) == 3
        assert "0.0" not in text


class TestPinnedValues:
    @pytest.mark.parametrize("scheme", sorted(PINNED_CSV_SHA256))
    def test_scheme_csv_digest(self, scheme):
        records = run_grid(benchmark_grid(scheme), BenchConfig())
        text = format_csv(records, include_timing=False)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CSV_SHA256[scheme]

    def test_heuristic_sets_digest(self):
        digest = hashlib.sha256()
        for family in ("ER", "WS", "BA"):
            for seed in range(3):
                inst = Instance.of(generate(GenSpec(family, 150, 600, seed)))
                for res in (greedy_geodetic(inst), greedy_geodetic(inst, add_one=True),
                            locally_greedy_geodetic(inst)):
                    vertices = " ".join(map(str, res.vertices))
                    digest.update(f"{family} {seed} {res.algorithm} {vertices}\n".encode())
        assert digest.hexdigest() == PINNED_SETS_SHA256

    def test_exact_sets_digest(self):
        digest = hashlib.sha256()
        for spec in benchmark_grid("standard"):
            if spec.n <= 30:
                res = exact_geodetic(generate(spec))
                assert res.optimal
                vertices = " ".join(map(str, res.vertices))
                digest.update(f"{spec.family} {spec.n} {spec.seed} {vertices}\n".encode())
        assert digest.hexdigest() == PINNED_EXACT_SETS_SHA256
