"""Acceptance suite: nine end-to-end checks with pinned tolerances.

Each test prints one "criterion N (...): PASS|FAIL" line; run with
`pytest tests/test_acceptance.py -v -s` to see them all.  Every seed below
is frozen so the suite is deterministic on any machine; only the two timing
checks depend on the host, with generous caps.
"""

import statistics
import time

from geodetic.bench import BenchConfig, format_csv, run_grid
from geodetic.bitset import mask_of
from geodetic.bounds import diameter_bound, trivial_bound
from geodetic.cli import main
from geodetic.exact import brute_force_geodetic, exact_geodetic
from geodetic.generate import GenSpec, benchmark_grid, edge_count_for_density, generate
from geodetic.graph import Graph
from geodetic.greedy import greedy_geodetic
from geodetic.ilp import build_model, export_ilp, render_lp
from geodetic.intervals import all_pairs_distances, interval_table, is_geodetic
from geodetic.local import locally_greedy_geodetic
from helpers import complete_graph, cycle_graph, path_graph, sssp_intervals, star_graph


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def seeded_graph(family: str, n: int, density: float, seed: int) -> Graph:
    m = max(n - 1, edge_count_for_density(n, density))
    return generate(GenSpec(family, n, m, seed))


DENSITIES = (0.2, 0.4, 0.6, 0.8)


def test_criterion_1_exact_matches_brute_force():
    start = time.perf_counter()
    fixtures = (
        [path_graph(n) for n in range(2, 9)]
        + [cycle_graph(n) for n in range(3, 10)]
        + [complete_graph(n) for n in range(2, 7)]
        + [star_graph(k) for k in range(2, 7)]
    )
    for i in range(200):
        n = 5 + i % 8
        fixtures.append(seeded_graph("ER", n, DENSITIES[i % 4], 3000 + i))
    mismatches = [
        g.n for g in fixtures
        if exact_geodetic(g).value != brute_force_geodetic(g).value
    ]
    elapsed = time.perf_counter() - start
    report(1, f"exact equals brute force on {len(fixtures)} graphs, under 60s",
           not mismatches and elapsed < 60.0,
           f"mismatches={len(mismatches)} elapsed={elapsed:.1f}s")


def test_criterion_2_closed_form_families():
    bad = []
    for n in range(2, 10):
        if exact_geodetic(path_graph(n)).value != 2:
            bad.append(f"path{n}")
    for n in range(2, 8):
        if exact_geodetic(complete_graph(n)).value != n:
            bad.append(f"complete{n}")
    for n in range(4, 11, 2):
        if exact_geodetic(cycle_graph(n)).value != 2:
            bad.append(f"cycle{n}")
    for n in range(5, 11, 2):
        if exact_geodetic(cycle_graph(n)).value != 3:
            bad.append(f"cycle{n}")
    for k in range(2, 8):
        if exact_geodetic(star_graph(k)).value != k:
            bad.append(f"star{k}")
    report(2, "paths, cycles, cliques, and stars hit their known values",
           not bad, ",".join(bad))


def test_criterion_3_heuristics_always_geodetic():
    bad = 0
    for f_idx, family in enumerate(("ER", "WS", "BA")):
        for i in range(100):
            n = 10 + (i * 50) // 99
            g = seeded_graph(family, n, DENSITIES[i % 4], 2000 + 100 * f_idx + i)
            table = interval_table(all_pairs_distances(g))
            for res in (greedy_geodetic(g), greedy_geodetic(g, add_one=True),
                        locally_greedy_geodetic(g)):
                if not (res.verified and is_geodetic(table, mask_of(res.vertices))):
                    bad += 1
    report(3, "all three heuristics return geodetic sets on 300 graphs",
           bad == 0, f"failures={bad}")


def test_criterion_4_exact_respects_bounds():
    bad = []
    for family in ("ER", "WS", "BA"):
        for n in (10, 15, 20):
            for density in (0.3, 0.6):
                for seed in (5000, 5001):
                    g = seeded_graph(family, n, density, seed)
                    exact = exact_geodetic(g)
                    if not exact.optimal:
                        bad.append(f"{family}{n} not optimal")
                        continue
                    heuristics = min(
                        greedy_geodetic(g).value,
                        greedy_geodetic(g, add_one=True).value,
                        locally_greedy_geodetic(g).value)
                    dist = all_pairs_distances(g)
                    if not (exact.value <= heuristics
                            and exact.value <= diameter_bound(dist)
                            <= trivial_bound(g)):
                        bad.append(f"{family} n={n} d={density} seed={seed}")
    report(4, "optimal values never exceed heuristics or the diameter bound",
           not bad, ",".join(bad))


def test_criterion_5_heuristic_gaps_on_er_grid():
    greedy_gaps = []
    local_gaps = []
    for n in (10, 20, 30):
        for density in DENSITIES:
            for seed in range(1000, 1005):
                g = seeded_graph("ER", n, density, seed)
                exact = exact_geodetic(g)
                assert exact.optimal
                greedy_gaps.append(greedy_geodetic(g).value - exact.value)
                local_gaps.append(locally_greedy_geodetic(g).value - exact.value)
    worst = max(greedy_gaps)
    greedy_mean = statistics.mean(greedy_gaps)
    local_mean = statistics.mean(local_gaps)
    report(5, "greedy gap <= 3 each and <= 1.0 mean, local mean <= 1.5 on 60 cells",
           worst <= 3 and greedy_mean <= 1.0 and local_mean <= 1.5,
           f"worst={worst} greedy_mean={greedy_mean:.3f} local_mean={local_mean:.3f}")


def test_criterion_6_large_instance_timing():
    big = generate(GenSpec("ER", 150, edge_count_for_density(150, 0.25), 42))
    small = generate(GenSpec("ER", 75, edge_count_for_density(75, 0.25), 42))
    big_times = []
    small_times = []
    local_times = []
    # each call takes milliseconds, so the ratio is a ratio of medians over
    # many repetitions, interleaved so that a slow spell hits both sizes
    for _ in range(25):
        big_times.append(greedy_geodetic(big).seconds)
        small_times.append(greedy_geodetic(small).seconds)
        local_times.append(locally_greedy_geodetic(big).seconds)
    greedy_s = statistics.median(big_times)
    local_s = statistics.median(local_times)
    ratio = greedy_s / statistics.median(small_times)
    report(6, "greedy n=150 under 10s, local under 2s, n-scaling ratio in [4,16]",
           greedy_s <= 10.0 and local_s <= 2.0 and 4.0 <= ratio <= 16.0,
           f"greedy={greedy_s:.3f}s local={local_s:.3f}s ratio={ratio:.2f}")


def test_criterion_7_single_source_rows_match_table():
    bad = 0
    for i in range(50):
        family = ("ER", "WS", "BA")[i % 3]
        n = 8 + i % 23
        g = seeded_graph(family, n, 0.3, 4000 + i)
        table = interval_table(all_pairs_distances(g))
        for v in range(g.n):
            if sssp_intervals(g, v) != table[v]:
                bad += 1
    report(7, "single-source interval rows match the all-pairs table, 50 graphs",
           bad == 0, f"bad_sources={bad}")


def test_criterion_8_ilp_shape_and_reexport():
    graphs = {2: complete_graph(2), 3: path_graph(3), 5: cycle_graph(5),
              8: generate(GenSpec("ER", 8, 16, 8))}
    bad = []
    for n, g in graphs.items():
        model = build_model(g)
        pairs = n * (n - 1) // 2
        if model.variable_count != n + pairs:
            bad.append(f"vars n={n}")
        if model.constraint_count != n + 3 * pairs:
            bad.append(f"rows n={n}")
        text = export_ilp(g)
        if text != render_lp(build_model(g)) or text != export_ilp(g):
            bad.append(f"bytes n={n}")
        body = text.splitlines()
        if len(body[body.index("Binary") + 1:body.index("End")]) != model.variable_count:
            bad.append(f"binary n={n}")
    report(8, "0-1 model has n+C(n,2) variables, n+3C(n,2) rows, stable bytes",
           not bad, ",".join(bad))


def test_criterion_9_benchmark_csv_reproducible(tmp_path):
    config = BenchConfig()
    specs = [s for s in benchmark_grid("standard") if s.n == 10]
    first = format_csv(run_grid(specs, config), include_timing=False)
    second = format_csv(run_grid(specs, config), include_timing=False)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--max-n", "10", "--no-timing"]
    cli_ok = (main(args + ["-o", str(a)]) == 0
              and main(args + ["-o", str(b)]) == 0
              and a.read_bytes() == b.read_bytes())
    report(9, "benchmark CSV is byte-identical across runs without timing",
           first == second and len(first.splitlines()) == 13 and cli_ok,
           f"rows={len(first.splitlines()) - 1}")
