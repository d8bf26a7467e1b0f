"""Command-line interface.

Exit codes: 0 success (a budget-limited exact run still exits 0), 1 usage
errors, 2 unreadable or invalid input data, 3 internal invariant failures.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .bench import BenchConfig, format_csv, format_pretty, run_grid
from .bitset import full_mask, mask_of
from .bounds import diameter_bound
from .errors import AlgorithmError, GraphError, ValidationError
from .exact import BRUTE_FORCE_MAX_N, SearchLimits, brute_force_geodetic, exact_geodetic
from .generate import (FAMILIES, GenSpec, SCHEMES, benchmark_grid,
                       edge_count_for_density, generate)
from .graph import Graph, parse_edge_list, write_edge_list
from .greedy import greedy_geodetic
from .ilp import build_model, lp_rows
from .intervals import Instance, all_pairs_distances, closure, require_table_fits
from .local import locally_greedy_geodetic

SOLVERS = {
    "exact": exact_geodetic,
    "brute": lambda g, limits: brute_force_geodetic(g),
    "greedy": lambda g, limits: greedy_geodetic(g),
    "greedy-addone": lambda g, limits: greedy_geodetic(g, add_one=True),
    "locally-greedy": lambda g, limits: locally_greedy_geodetic(g),
}
ALGORITHMS = (*SOLVERS, "bounds", "all")
ALL_SOLVERS = tuple(name for name in SOLVERS if name != "brute")


class UsageError(click.UsageError):
    exit_code = 1


class DataError(click.ClickException):
    exit_code = 2


class InternalError(click.ClickException):
    exit_code = 3


@contextmanager
def _translated_errors():
    """Map package exceptions onto the documented exit codes."""
    try:
        yield
    except GraphError as exc:
        raise DataError(str(exc)) from exc
    except AlgorithmError as exc:
        raise InternalError(str(exc)) from exc


def _check_writable(path: str) -> None:
    """Exit 1 with one line unless path opens for writing; leave it as it was."""
    existed = Path(path).exists()
    try:
        open(path, "a").close()  # append mode never truncates
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror}") from exc
    if not existed:
        Path(path).unlink()


def _load_graph(path: str, one_based: bool) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with _translated_errors():
        return parse_edge_list(text, one_based=one_based, strict=True)


@click.group()
def cli():
    """Geodetic number solvers, graph generators, and benchmarks."""


@cli.command(name="generate")
@click.option("--family", type=click.Choice([f.lower() for f in FAMILIES]),
              required=True, help="Random graph family.")
@click.option("--n", "n", type=int, required=True, help="Vertex count.")
@click.option("--density", type=float, default=None,
              help="Edge density in (0, 1]; exclusive with --edges.")
@click.option("--edges", "edges", type=int, default=None,
              help="Exact edge count; exclusive with --density.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--ws-rewire-prob", type=float, default=0.05, show_default=True,
              help="Rewire probability for the WS family.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default="-",
              help="Output file; '-' writes to stdout.")
def generate_cmd(family, n, density, edges, seed, ws_rewire_prob, output):
    """Generate a seeded random connected graph as an edge list."""
    if (density is None) == (edges is None):
        raise UsageError("give exactly one of --density or --edges")
    if output != "-":
        _check_writable(output)
    with _translated_errors():
        if edges is None:
            edges = edge_count_for_density(n, density)
        spec = GenSpec(family=family.upper(), n=n, m_target=edges, seed=seed,
                       ws_rewire_prob=ws_rewire_prob)
        g = generate(spec)
    text = write_edge_list(g)
    if output == "-":
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text)
    click.echo(f"n={g.n} m={g.m} seed={seed}", err=True)


def _search_limits(time_budget: float | None,
                   node_budget: int | None = None) -> SearchLimits | None:
    """Budgets from command-line values; an invalid one is a usage error."""
    if time_budget is None and node_budget is None:
        return None
    try:
        return SearchLimits(time_budget=time_budget, node_budget=node_budget)
    except ValidationError as exc:
        raise UsageError(str(exc)) from exc


def _solve_lines(g: Graph | Instance, algorithm: str,
                 limits: SearchLimits | None) -> list[str]:
    if algorithm == "bounds":
        require_table_fits(g.n)
        return [f"{'diameter-bound':<16}{diameter_bound(all_pairs_distances(g)):>8}"]
    if algorithm == "all":
        require_table_fits(g.n)  # before the distances, as the table follows
        g = Instance.of(g)  # one shared build, outside every solver's clock;
        g.table             # exact and greedy read the whole table
    if algorithm == "brute" and g.n > BRUTE_FORCE_MAX_N:
        raise UsageError(
            f"brute force is capped at n={BRUTE_FORCE_MAX_N} (got n={g.n}); "
            "use the exact algorithm instead")
    lines = []
    for name in ALL_SOLVERS if algorithm == "all" else (algorithm,):
        res = SOLVERS[name](g, limits)
        value, note = str(res.value), "upper bound"
        if res.optimal:
            note = "optimal"
        elif name == "exact":
            value, note = f"<={res.value}", "budget exhausted, upper bound"
        lines.append(f"{res.algorithm:<16}{value:>8}  {res.seconds:10.6f}s  {note}")
    return lines


@cli.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-a", "--algorithm", type=click.Choice(ALGORITHMS), default="all",
              show_default=True)
@click.option("--time-budget", type=float, default=None,
              help="Wall-clock cap in seconds for the exact search.")
@click.option("--node-budget", type=int, default=None,
              help="Search node cap for the exact search.")
@click.option("--one-based", is_flag=True, help="Vertex ids in the file start at 1.")
def solve(graph_file, algorithm, time_budget, node_budget, one_based):
    """Run solvers on an edge-list graph and print their values."""
    g = _load_graph(graph_file, one_based)
    limits = _search_limits(time_budget, node_budget)
    with _translated_errors():
        for line in _solve_lines(g, algorithm, limits):
            click.echo(line)


@cli.command()
@click.option("--scheme", type=click.Choice(sorted(SCHEMES)), default="standard",
              show_default=True)
@click.option("--family", "families", type=click.Choice([f.lower() for f in FAMILIES]),
              multiple=True, help="Repeatable; default is all three families.")
@click.option("--seed-base", type=int, default=0, show_default=True)
@click.option("--max-n", type=int, default=None,
              help="Keep only grid cells with n at most this.")
@click.option("--exact-max-n", type=int, default=30, show_default=True,
              help="Run the exact solver only at or below this size.")
@click.option("--exact-time-budget", type=float, default=None,
              help="Opt the exact solver in on every cell with this budget.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes, at most one per cell; row order stays deterministic.")
@click.option("--timing/--no-timing", default=True, show_default=True,
              help="Write wall-clock columns; disable for byte-reproducible CSV.")
@click.option("--pretty", is_flag=True, help="Also print an aligned table.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="CSV output path.")
def bench(scheme, families, seed_base, max_n, exact_max_n, exact_time_budget,
          jobs, timing, pretty, output):
    """Run the benchmark grid and write one CSV row per cell."""
    family_tuple = tuple(f.upper() for f in families) if families else FAMILIES
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")
    _search_limits(exact_time_budget)  # reject a bad budget before any cell runs
    _check_writable(output)  # and an unwritable path
    with _translated_errors():
        specs = benchmark_grid(scheme, families=family_tuple, seed_base=seed_base)
        if max_n is not None:
            specs = [s for s in specs if s.n <= max_n]
        config = BenchConfig(exact_max_n=exact_max_n,
                             exact_time_budget=exact_time_budget)
        records = run_grid(specs, config, jobs=jobs)
    Path(output).write_text(format_csv(records, include_timing=timing))
    if pretty:
        click.echo(format_pretty(records, include_timing=timing), nl=False)
    click.echo(f"wrote {len(records)} rows to {output}", err=True)


@cli.command(name="export-ilp")
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Output path; defaults to the graph name with an .lp suffix.")
@click.option("--one-based", is_flag=True, help="Vertex ids in the file start at 1.")
def export_ilp_cmd(graph_file, output, one_based):
    """Write the 0-1 program for a graph in LP format."""
    g = _load_graph(graph_file, one_based)
    if output is None:
        output = str(Path(graph_file).with_suffix(".lp"))
    _check_writable(output)
    with _translated_errors():
        model = build_model(g)
    with open(output, "w") as out:
        out.writelines(lp_rows(model))
    click.echo(f"wrote {output}", err=True)


@cli.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("vertices", type=int, nargs=-1, required=True)
@click.option("--one-based", is_flag=True, help="Vertex ids start at 1, set included.")
def verify(graph_file, vertices, one_based):
    """Check whether a vertex set is geodetic for the given graph."""
    g = _load_graph(graph_file, one_based)
    base = 1 if one_based else 0
    for v in vertices:  # reported as typed, with the range in the same base
        if not base <= v < g.n + base:
            raise UsageError(
                f"vertex {v} out of range {base}..{g.n - 1 + base} for n={g.n}")
    vs = [v - base for v in vertices]
    with _translated_errors():
        covered = closure(Instance.of(g), mask_of(vs))
    verdict = "geodetic" if covered == full_mask(g.n) else "not geodetic"
    click.echo(f"{verdict}: closure covers {covered.bit_count()} of {g.n} vertices")


def main(argv: list[str] | None = None) -> int:
    """Console entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.Abort:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
