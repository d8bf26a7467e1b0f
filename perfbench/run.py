"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-standard --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
One process runs one workload as a closed loop with a single caller.  It
measures set-up in fresh interpreters, then makes one untimed pass over the
workload's items that checks every answer, then runs as many timed passes as
best fill --seconds (at least three).  Every timed pass must repeat the
checked pass's answers exactly.  With --trace 1, timed passes alternate
between untraced and traced (at least two of each), and the per-layer metrics
are printed instead of the end-to-end ones.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Keep the workload process single-threaded: numpy reads these when it is
# imported and then starts no BLAS threads (BLAS is used only by the checks).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = {"full": 10, "tiny": 1}
MIN_PASSES = 3            # timed untraced passes, with --trace 0
MIN_TRACED_PASSES = 2     # of each kind, with --trace 1

# Times one set-up in a fresh interpreter: import the package, build inputs.
_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import geodetic, workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    traced: bool
    latencies: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)     # Outcome, or None when the item raised
    errors: dict[int, str] = field(default_factory=dict)
    problems: dict[int, list[str]] = field(default_factory=dict)  # checked pass only
    fingerprint: str = ""

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(workload, items, tracer=None, pass_id: int = 0, check: bool = False) -> Pass:
    """Time each item; with check set, also check each answer after timing it."""
    result = Pass(traced=tracer is not None)
    hasher = hashlib.sha256(workload.digest_prefix())
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item, tracer.pass_id = k, pass_id
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception:  # an item that raises is a failure; the pass goes on
            result.latencies.append(time.perf_counter() - t0)
            result.errors[k] = traceback.format_exc(limit=3)
            result.outcomes.append(None)
            continue
        result.latencies.append(time.perf_counter() - t0)
        outcome, digest = workload.summarize(out)
        hasher.update(digest)
        result.outcomes.append(outcome)
        if check:
            try:
                found = item.check(out)
            except Exception:  # a crashing check fails the item it could not clear
                found = ["check raised: " + traceback.format_exc(limit=3)]
            if found:
                result.problems[k] = [f"{item.label}: {p}" for p in found]
        del out
    result.fingerprint = hasher.hexdigest()
    return result


def setup_seconds(workload: str, seed: int, size: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES[size]):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR), workload, str(seed), size],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return None


def failures(checked: Pass, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Attempted and failed items over the checked pass and the timed passes.

    An item fails on a pass when it raised, when its answer differs from the
    checked pass's, or when the checked pass's answer failed its check.
    """
    first = checked
    attempted = failed = 0
    notes = []
    for p, run in enumerate([checked, *passes]):
        for k, outcome in enumerate(run.outcomes):
            attempted += 1
            why = None
            if outcome is None:
                why = run.errors[k].strip().splitlines()[-1]
            elif first.outcomes[k] is None or outcome.key != first.outcomes[k].key:
                why = "answer differs from the checked pass"
            elif k in first.problems:
                why = "; ".join(first.problems[k][:3])
            if why is not None:
                failed += 1
                notes.append(f"pass {p} item {k}: {why}")
    return attempted, failed, notes


def load_metric_names() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 101 is held out to confirm later claims")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "geodetic" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'geodetic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geodetic
    if Path(geodetic.__file__).resolve().parent != SRC / "geodetic":
        print(f"error: imported geodetic from {geodetic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    end_to_end, per_layer = load_metric_names()
    workload = WORKLOADS[args.workload]

    setups = setup_seconds(workload.name, args.seed, args.size)
    tracer = tracing.Tracer(tracing.TARGETS) if args.trace else None
    if tracer is not None:
        with tracer:
            inputs = workload.build(args.seed, args.size)
    else:
        inputs = workload.build(args.seed, args.size)
    items = workload.items(inputs)

    # One untimed pass checks every answer.  Then whole timed passes, as many
    # as best fill --seconds: another pass starts only when it is expected to
    # end nearer the mark than stopping now would, and not before the
    # minimum counts are reached.
    checked = run_pass(workload, items, check=True)
    passes: list[Pass] = []
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(passes) % 2 == 1:
            with tracer:
                run = run_pass(workload, items, tracer, len(passes))
        else:
            run = run_pass(workload, items)
        passes.append(run)
        durations.append(time.perf_counter() - t0)
        enough = len(passes) >= (2 * MIN_TRACED_PASSES if tracer else MIN_PASSES)
        if enough and sum(durations) + statistics.median(durations) / 2 > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, notes = failures(checked, passes)
    for note in notes[:20]:
        print("FAIL", note, file=sys.stderr)

    untraced = [p for p in passes if not p.traced]
    latencies = [t for p in untraced for t in p.latencies]
    wall = statistics.median(p.wall for p in untraced)
    reference = checked.outcomes
    values = [o.value for o in reference if o is not None and o.value is not None]
    exact_calls = sum(o.exact_calls for o in reference if o is not None)
    proved = sum(o.proved for o in reference if o is not None)

    e2e = {"setup_s": statistics.median(setups), "wall_s": wall,
           "solve_p50_s": statistics.median(latencies), "peak_rss_mb": peak_rss_mb}
    print(f"workload {workload.name}  seed {args.seed}  size {args.size}  "
          f"items/pass {len(items)}  passes {len(untraced)} untraced, {len(passes) - len(untraced)} traced")
    print(f"  setup_s      {e2e['setup_s']:.4f} s      median of {len(setups)} fresh-interpreter set-ups "
          f"[{', '.join(f'{t:.3f}' for t in setups)}]")
    print(f"  wall_s       {wall:.4f} s      median of {len(untraced)} untraced passes "
          f"[{', '.join(f'{p.wall:.3f}' for p in untraced)}]")
    print(f"  solve_p50_s  {e2e['solve_p50_s']:.6f} s  n={len(latencies)} items")
    solve_tail = tail(latencies)
    if solve_tail is None:
        print(f"  solve tail   not reported: n={len(latencies)} < 100 items")
    else:
        print(f"  solve_p{solve_tail[0]}_s  {solve_tail[1]:.6f} s  n={len(latencies)} items")
    print(f"  value_sum    {sum(values) if values else 'n/a'} count  over {len(values)} items per pass")
    print(f"  proved_frac  {proved / exact_calls:.4f} ratio  {proved}/{exact_calls} exact calls per pass"
          if exact_calls else "  proved_frac  n/a (no exact calls)")
    print(f"  fail_frac    {failed / attempted:.4f} ratio  {failed}/{attempted} operations")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  {workload.fingerprint}  {checked.fingerprint}")
    # the report-only figures again, for spread.py and baseline.json
    report = {"value_sum": sum(values) if values else None,
              "proved_frac": proved / exact_calls if exact_calls else None,
              "fail_frac": failed / attempted, workload.fingerprint: checked.fingerprint}
    if solve_tail is not None:
        report[f"solve_p{solve_tail[0]}_s"] = solve_tail[1]
    print("report", json.dumps(report))

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end.items()}
    else:
        traced_ids = [p for p, run in enumerate(passes) if run.traced]
        setup_totals = tracing.layer_totals(tracer.spans, lambda s: s.pass_id == -1)
        per_pass = [tracing.layer_totals(tracer.spans, lambda s, p=p: s.pass_id == p) for p in traced_ids]
        traced_wall = statistics.median(passes[p].wall for p in traced_ids)
        lp_bytes = sum(o.lp_bytes for o in reference if o is not None)
        derived = {"ilp.lp_bytes": lp_bytes, "trace.overhead_s": traced_wall - wall,
                   "trace.overhead_frac": (traced_wall - wall) / wall}
        layer = {}
        for name in per_layer:
            if name in derived:
                layer[name] = derived[name]
            else:
                layer[name] = setup_totals.get(name, 0) + statistics.median(t.get(name, 0) for t in per_pass)
        print(f"  per layer: set-up plus the median of {len(per_pass)} traced passes")
        for name, unit in per_layer.items():
            print(f"    {name:34s} {layer[name]:.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}-{args.size}.jsonl"
        tracer.write(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
