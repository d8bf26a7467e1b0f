"""Smoke tests for the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = ("setup_s", "wall_s", "solve_p50_s", "value_sum", "proved_frac", "fail_frac", "peak_rss_mb")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    [report_line] = [line for line in lines if line.startswith("report {")]
    assert json.loads(report_line.removeprefix("report "))["fail_frac"] == 0
    for name in REPORTED:
        assert f"  {name} " in report
    if trace:
        assert all(f"    {m['name']} " in report for m in SPEC["per_layer"])


def test_shape_counts_do_not_depend_on_the_seed():
    counts = ("intervals.table.calls", "generate.calls", "exact.calls")
    seen = []
    for seed in ("1", "2"):
        done = bench("--workload", "grid-standard", "--seed", seed, "--seconds", "0",
                     "--trace", "1", "--size", "tiny")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        seen.append({name: metrics[name]["value"] for name in counts})
    assert seen[0] == seen[1]


def test_traced_run_survives_a_removed_name(monkeypatch, capsys):
    """A later change may stop calling a wrapped name; its layer reads zero."""
    import geodetic.ilp
    import geodetic.intervals

    def build_model(g):
        return geodetic.ilp.IlpModel(g.n, geodetic.intervals.pk_table(
            geodetic.intervals.all_pairs_distances(g)))

    monkeypatch.setattr(geodetic.ilp, "build_model", build_model)
    monkeypatch.delattr(geodetic.ilp, "pk_table")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        tracer.Target("geodetic.greedy", "no_such_name", "gone"),))
    assert run.main(["--workload", "ilp-export", "--seconds", "0", "--trace", "1",
                     "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["ilp.pk_table.busy_s"]["value"] == 0
    assert result["metrics"]["ilp.model.busy_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = bench("--workload", "grid-standard", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
