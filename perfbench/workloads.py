"""The three benchmark workloads: inputs from a seed, timed items, answer checks.

Every call into the package goes through a module attribute looked up at
call time (``_mod("geodetic.greedy").greedy_geodetic``), so the tracer's
wrappers see it.  Why each workload exists is in README.md.

An item is one timed call.  Its check runs once, on the untimed checking pass,
and returns a list of problems (empty when the answer holds).
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Any, Callable

import checks

FAMILIES = ("ER", "WS", "BA")

# Exact runs unbudgeted inside bench cells up to this size.  The scheme's
# default of 30 is not used: at n = 30 the unbudgeted search has a heavy tail
# (one BA cell in four seeds took 11 s where the rest of the grid takes 2.5 s),
# so no run time or spread could be promised.
GRID_EXACT_MAX_N = 20


def _mod(name: str) -> Any:
    return importlib.import_module(name)


def spec_seed(seed: int, index: int) -> int:
    """Generator seed of the index-th graph of a workload."""
    return seed * 1000 + index


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Outcome:
    key: str              # must repeat exactly on every pass
    value: int | None     # set sizes returned; None when the item returns no set
    exact_calls: int = 0
    proved: int = 0
    lp_bytes: int = 0


def _result_key(res) -> str:
    return f"{res.algorithm}:{res.value}:{res.optimal}:{','.join(map(str, res.vertices))}"


def _set_problems(res, d) -> list[str]:
    problems = []
    if not res.verified:
        problems.append(f"{res.algorithm} returned an unverified set")
    if res.value != len(res.vertices):
        problems.append(f"{res.algorithm} value {res.value} != set size")
    if not checks.is_geodetic(d, res.vertices):
        problems.append(f"{res.algorithm} set is not geodetic")
    return problems


def _heuristics(g) -> list:
    greedy, local = _mod("geodetic.greedy"), _mod("geodetic.local")
    return [greedy.greedy_geodetic(g), greedy.greedy_geodetic(g, add_one=True),
            local.locally_greedy_geodetic(g)]


def _exact_problems(exact, heuristics) -> list[str]:
    if exact.optimal and any(exact.value > h.value for h in heuristics):
        return [f"proven exact value {exact.value} above a heuristic "
                f"({', '.join(str(h.value) for h in heuristics)})"]
    return []


def _text_distances(text: str):
    n, edges = checks.edges_of_text(text)
    return checks.distance_matrix(n, edges)


class Workload:
    name: str
    fingerprint: str  # name of the pass digest in the report

    def digest_prefix(self) -> bytes:
        return b""


def _edge_texts(seed: int, sizes: tuple[int, ...], density: float, reps: int) -> list[tuple[str, str]]:
    generate = _mod("geodetic.generate")
    graph = _mod("geodetic.graph")
    out = []
    for family in FAMILIES:
        for n in sizes:
            for rep in range(reps):
                spec = generate.GenSpec(family, n, generate.edge_count_for_density(n, density),
                                        spec_seed(seed, len(out)))
                out.append((f"{family}-n{n}-r{rep}",
                            graph.write_edge_list(generate.generate(spec))))
    return out


class GridStandard(Workload):
    name = "grid-standard"
    fingerprint = "csv_sha256"
    max_n = {"full": 100, "tiny": 10}

    def build(self, seed: int, size: str) -> list:
        grid = _mod("geodetic.generate").benchmark_grid("standard", seed_base=seed)
        return [spec for spec in grid if spec.n <= self.max_n[size]]

    def digest_prefix(self) -> bytes:
        return (_mod("geodetic.bench").CSV_HEADER + "\n").encode()

    def items(self, specs: list) -> list[Item]:
        config = _mod("geodetic.bench").BenchConfig(exact_max_n=GRID_EXACT_MAX_N)

        def cell(spec):
            return lambda: _mod("geodetic.bench").run_grid([spec], config)[0]

        def check(spec):
            return lambda rec: self._check(spec, rec)
        return [Item(f"{s.family}-n{s.n}-m{s.m_target}-s{s.seed}", cell(s), check(s)) for s in specs]

    def summarize(self, rec) -> tuple[Outcome, bytes]:
        row = _mod("geodetic.bench").format_csv([rec], include_timing=False).splitlines()[1]
        values = [rec.greedy_value, rec.addone_value, rec.local_value]
        if rec.exact_value is not None:
            values.append(rec.exact_value)
        return (Outcome(row, sum(values), int(rec.exact_value is not None),
                        int(rec.exact_optimal is True)), (row + "\n").encode())

    @staticmethod
    def _check(spec, rec) -> list[str]:
        """A bench record carries values, not sets: solve the cell again,
        verify those sets independently and require the record's values."""
        g = _mod("geodetic.generate").generate(spec)
        d = checks.distance_matrix(g.n, g.edges())
        found = _heuristics(g)
        ex = _mod("geodetic.exact").exact_geodetic(g) if spec.n <= GRID_EXACT_MAX_N else None
        problems = [p for res in found + ([ex] if ex else []) for p in _set_problems(res, d)]
        if ex is not None:
            problems += _exact_problems(ex, found)
        got = (rec.m, rec.greedy_value, rec.addone_value, rec.local_value,
               rec.exact_value, rec.exact_optimal)
        want = (g.m, *(r.value for r in found), ex and ex.value, ex and ex.optimal)
        if got != want:
            problems.append(f"bench record {got} disagrees with the re-solve {want}")
        return problems


class HeuristicsLarge(Workload):
    name = "heuristics-large"
    fingerprint = "sets_sha256"
    # n = 400, m = 1600 keeps the ROADMAP cell's mean degree of 8 (n = 600,
    # m = 2400) at about a quarter of its pass time, so a run holds the
    # several timed passes that its medians need.
    shape = {"full": (400, 1600), "tiny": (60, 240)}

    def build(self, seed: int, size: str) -> list:
        generate = _mod("geodetic.generate")
        n, m = self.shape[size]
        return [(f"{family}-n{n}", generate.generate(generate.GenSpec(family, n, m, spec_seed(seed, i))))
                for i, family in enumerate(FAMILIES)]

    def items(self, graphs: list) -> list[Item]:
        def solver(g, which):
            if which == "local":
                return lambda: _mod("geodetic.local").locally_greedy_geodetic(g)
            return lambda: _mod("geodetic.greedy").greedy_geodetic(g, add_one=which == "greedy-addone")

        def check(g):
            return lambda res: _set_problems(res, checks.distance_matrix(g.n, g.edges()))
        return [Item(f"{label}-{which}", solver(g, which), check(g)) for label, g in graphs
                for which in ("greedy", "greedy-addone", "local")]

    def summarize(self, res) -> tuple[Outcome, bytes]:
        key = _result_key(res)
        return Outcome(key, res.value), (key + "\n").encode()


class IlpExport(Workload):
    name = "ilp-export"
    fingerprint = "lp_sha256"
    shape = {"full": (200, 0.25, 4), "tiny": (20, 0.25, 1)}

    def build(self, seed: int, size: str) -> list:
        n, density, reps = self.shape[size]
        return _edge_texts(seed, (n,), density, reps)

    def items(self, texts: list) -> list[Item]:
        def export(text):
            return lambda: _mod("geodetic.ilp").export_ilp(_mod("geodetic.graph").parse_edge_list(text))

        def check(text):
            return lambda lp: checks.cover_row_problems(lp, _text_distances(text))
        return [Item(label, export(text), check(text)) for label, text in texts]

    def summarize(self, lp: str) -> tuple[Outcome, bytes]:
        data = lp.encode()
        return Outcome(hashlib.sha256(data).hexdigest(), None, lp_bytes=len(data)), data


WORKLOADS = {w.name: w for w in (GridStandard(), HeuristicsLarge(), IlpExport())}
