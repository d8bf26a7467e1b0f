"""Benchmark harness: grids of generated graphs through the solver battery.

Every cell generates its graph, runs the two greedy variants and the locally
greedy solver, and runs the exact solver when the size allows it (or a time
budget is given).  Values are deterministic for a fixed grid and seed base;
the timing columns are wall-clock measurements and can be suppressed for
byte-reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import AlgorithmError
from .exact import SearchLimits, exact_geodetic
from .generate import GenSpec, generate
from .greedy import greedy_geodetic
from .intervals import Instance
from .local import locally_greedy_geodetic

CSV_HEADER = ("family,n,m,seed,exact_value,exact_opt,exact_time,"
              "greedy_value,greedy_time,addone_value,addone_time,"
              "local_value,local_time")


@dataclass(frozen=True)
class BenchConfig:
    exact_max_n: int = 30           # exact runs only at or below this size...
    exact_time_budget: float | None = None  # ...unless a budget opts it in everywhere


@dataclass(frozen=True)
class BenchRecord:
    family: str
    n: int
    m: int
    seed: int
    exact_value: int | None
    exact_optimal: bool | None
    exact_seconds: float | None
    greedy_value: int
    greedy_seconds: float
    addone_value: int
    addone_seconds: float
    local_value: int
    local_seconds: float


def run_cell(spec: GenSpec, config: BenchConfig) -> BenchRecord:
    """Solve one cell; the solvers share one instance, built off their clocks."""
    g = generate(spec)
    inst = Instance.of(g)
    inst.table  # greedy reads the whole table: build it off every clock too
    greedy = greedy_geodetic(inst)
    addone = greedy_geodetic(inst, add_one=True)
    local = locally_greedy_geodetic(inst)
    exact = None
    if spec.n <= config.exact_max_n:
        exact = exact_geodetic(inst)
    elif config.exact_time_budget is not None:
        exact = exact_geodetic(inst, SearchLimits(time_budget=config.exact_time_budget))
    if exact is not None and exact.optimal:
        if exact.value > min(greedy.value, addone.value, local.value):
            raise AlgorithmError(f"exact value above a heuristic in cell {spec}")
    return BenchRecord(
        family=spec.family, n=spec.n, m=g.m, seed=spec.seed,
        exact_value=exact.value if exact else None,
        exact_optimal=exact.optimal if exact else None,
        exact_seconds=exact.seconds if exact else None,
        greedy_value=greedy.value, greedy_seconds=greedy.seconds,
        addone_value=addone.value, addone_seconds=addone.seconds,
        local_value=local.value, local_seconds=local.seconds)


def run_grid(specs: list[GenSpec], config: BenchConfig,
             jobs: int = 1) -> list[BenchRecord]:
    """All cells in input order; with jobs > 1 the cells run in parallel but
    the returned order is unchanged.  No more workers than cells are started."""
    if jobs <= 1 or len(specs) <= 1:
        return [run_cell(spec, config) for spec in specs]
    # imported here: the pool pulls in multiprocessing, which a serial run
    # and `import geodetic` need not pay for
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        return list(pool.map(partial(run_cell, config=config), specs))


def _time_field(seconds: float | None, include_timing: bool) -> str:
    if seconds is None or not include_timing:
        return ""
    return f"{seconds:.6f}"


def format_csv(records: list[BenchRecord], include_timing: bool = True) -> str:
    lines = [CSV_HEADER]
    for r in records:
        exact_value = "" if r.exact_value is None else str(r.exact_value)
        exact_opt = "" if r.exact_optimal is None else str(r.exact_optimal).lower()
        lines.append(",".join([
            r.family, str(r.n), str(r.m), str(r.seed),
            exact_value, exact_opt, _time_field(r.exact_seconds, include_timing),
            str(r.greedy_value), _time_field(r.greedy_seconds, include_timing),
            str(r.addone_value), _time_field(r.addone_seconds, include_timing),
            str(r.local_value), _time_field(r.local_seconds, include_timing),
        ]))
    return "\n".join(lines) + "\n"


def format_pretty(records: list[BenchRecord], include_timing: bool = True) -> str:
    header = CSV_HEADER.split(",")
    rows = [line.split(",") for line in
            format_csv(records, include_timing).strip().splitlines()[1:]]
    widths = [max(len(header[c]), *(len(row[c]) for row in rows)) if rows
              else len(header[c]) for c in range(len(header))]
    def fmt(row: list[str]) -> str:
        return "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
    return "\n".join([fmt(header)] + [fmt(row) for row in rows]) + "\n"
