"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ilp-export --seeds 11-20 [--json out.json]
    python3 perfbench/spread.py --workload ilp-export --seeds 11,11,11,11,11

Runs perfbench/run.py --trace 0 once per seed, one run at a time.  A seed
listed again is run again, which shows run-to-run noise without input
variation.  For every metric of the last JSON line it prints the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median, with quartiles as statistics.quantiles(values, n=4) gives them.  The spread of an end-to-end
metric must stay under its bound in BENCHMARK.json.  The report-only figures
(value_sum, proved_frac, ...) follow, without a spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--json", type=Path, default=None, help="also write the runs here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report {"))
        runs.append({"seed": seed, "elapsed_s": elapsed, **result, "report": report})
        print(f"seed {seed:>4}  {elapsed:6.1f} s  correct={result['correct']}  "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:34s} median {med:.6g} {first['unit']:6s} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.3f}{bound}")
    for name, first in runs[0]["report"].items():
        values = [r["report"].get(name) for r in runs]
        if isinstance(first, str) or any(v is None for v in values):
            print(f"{name:34s} {sorted(set(map(str, values)))[:3]} (report only)")
            continue
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "report_only": True}
        print(f"{name:34s} median {med:.6g}        q1 {q1:.6g}  q3 {q3:.6g}  (report only)")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs,
                                         "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
