"""Outside-in tracing: wrappers on the package's public names record spans.

Nothing inside the package is changed.  Each target below names a module and
an attribute that the package (or the benchmark) looks up at call time; while
a Tracer is installed, that attribute is replaced by a wrapper that records a
span (name, start, end, parent, item id, pass id) and then calls the
original.  Targets whose attribute no longer exists are skipped, so a later
change that stops calling a wrapped name shows up as zero calls, not as a
crash.  Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

SOLVERS = ("greedy", "greedy-addone", "local", "exact")

# span names whose time local's final check spends rebuilding the table
_LOCAL_VERIFY = ("intervals.distances", "intervals.table", "intervals.verify")


def _greedy_name(args: tuple, kwargs: dict) -> str:
    add_one = kwargs.get("add_one", args[1] if len(args) > 1 else False)
    return "greedy-addone" if add_one else "greedy"


def _table_bytes(args: tuple, result: Any) -> int:
    # packed bitmask bytes for every unordered pair, computed from n
    n = getattr(args[0], "n", 0) if args else 0
    return n * (n + 1) // 2 * ((n + 7) // 8)


def _exact_proved(args: tuple, result: Any) -> int:
    return int(bool(getattr(result, "optimal", False)))


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    name: str | Callable[[tuple, dict], str]
    note: Callable[[tuple, Any], int] | None = None


def _each(modules: tuple[str, ...], attr: str, name: str, note=None) -> tuple[Target, ...]:
    return tuple(Target(m, attr, name, note) for m in modules)


TARGETS: tuple[Target, ...] = (
    Target("geodetic.bench", "run_cell", "bench.cell"),
    *_each(("geodetic.bench", "geodetic.generate"), "generate", "generate"),
    Target("geodetic.graph", "parse_edge_list", "graph.parse"),
    *_each(("geodetic.bench", "geodetic.greedy"), "greedy_geodetic", _greedy_name),
    *_each(("geodetic.bench", "geodetic.local"), "locally_greedy_geodetic", "local"),
    *_each(("geodetic.bench", "geodetic.exact"), "exact_geodetic", "exact", _exact_proved),
    Target("geodetic.greedy", "largest_increase", "greedy.single"),
    Target("geodetic.greedy", "largest_increase_pair", "greedy.pair"),
    Target("geodetic.local", "largest_local_increase", "local.step"),
    Target("geodetic.local", "sssp_intervals", "intervals.sssp"),
    *_each(("geodetic.greedy", "geodetic.local", "geodetic.exact", "geodetic.ilp"),
           "all_pairs_distances", "intervals.distances"),
    *_each(("geodetic.greedy", "geodetic.local", "geodetic.exact"),
           "interval_table", "intervals.table", _table_bytes),
    *_each(("geodetic.greedy", "geodetic.local", "geodetic.exact"),
           "is_geodetic", "intervals.verify"),
    *_each(("geodetic.greedy", "geodetic.exact"), "closure", "intervals.verify"),
    Target("geodetic.ilp", "build_model", "ilp.model"),
    Target("geodetic.ilp", "pk_table", "ilp.pk_table"),
    Target("geodetic.ilp", "render_lp", "ilp.render"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    item: int
    pass_id: int
    note: int | None = None  # set from the result; None when the call raised


class Tracer:
    """Records spans from wrapped calls while entered as a context manager."""

    def __init__(self, targets: tuple[Target, ...]):
        self.targets = targets
        self.spans: list[Span] = []
        self.item = -1
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            name = target.name if isinstance(target.name, str) else target.name(args, kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.item, self.pass_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.note is not None:
                span.note = target.note(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if original is None:
                continue  # name removed from the package: the layer records zero calls
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                      "parent": s.parent, "item": s.item,
                                      "pass": s.pass_id, "note": s.note}) + "\n")


def layer_totals(spans: list[Span], keep: Callable[[Span], bool] = lambda s: True
                 ) -> dict[str, float]:
    """Per-layer counts and busy/self seconds over the kept spans.

    Solver children (greedy.single, greedy.pair, ...) are filed under the
    nearest solver ancestor, so add-one's rounds land under greedy-addone.
    Self time is a span's duration minus its direct children's, which is the
    time its children cover because calls on one thread do not overlap.
    """
    child_time = [0.0] * len(spans)
    solver_of: list[str | None] = [None] * len(spans)
    for k, s in enumerate(spans):  # appended in call order: parents come first
        if s.parent >= 0:
            parent = spans[s.parent]
            child_time[s.parent] += s.end - s.start
            solver_of[k] = parent.name if parent.name in SOLVERS else solver_of[s.parent]
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for k, s in enumerate(spans):
        if not keep(s):
            continue
        dur = s.end - s.start
        name, solver = s.name, solver_of[k]
        if name.startswith("greedy.") and solver in ("greedy", "greedy-addone"):
            name = solver + name[len("greedy"):]
        add(name + ".calls", 1)
        add(name + ".busy_s", dur)
        if name in SOLVERS:
            add(name + ".self_s", dur - child_time[k])
        if solver == "local" and name in _LOCAL_VERIFY:
            add("local.verify.busy_s", dur)
        if name == "intervals.table" and s.note is not None:
            add("intervals.table.bytes_computed", s.note)
        if name == "exact" and s.note is not None:
            add("exact.proved", s.note)
            add("exact.budget_hits", 1 - s.note)
    return totals
