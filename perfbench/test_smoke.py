"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

It checks the output contract (the last line is one JSON object with the
metrics BENCHMARK.json names, with their units), that the report prints all
twelve end-to-end metrics by name and unit with failed_ops_share at 0, that
the traced runs together reach every wrapped layer, and that the benchmark
refuses to run without the gaugekit sources next to it.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# The end-to-end metrics every report prints, applicable or not.
REPORTED = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ops_share": "share",
    "re_mean_pct": "%",
    "re_p95_pct": "%",
    "re_max_pct": "%",
    "silent_wrong_share": "share",
    "no_reading_share": "share",
    "decode_err_max_px": "px",
}
UNREACHED = "wrapped layers with no call on this workload:"


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", str(trace), "--quick",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = result_of(run(workload, 0))
    gated = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in result["metrics"].values())

    table = {}
    for line in report:
        fields = line.split()
        if len(fields) >= 3 and fields[0] in REPORTED:
            table[fields[0]] = fields[1:3]
    assert {name: unit for name, (_, unit) in table.items()} == REPORTED
    assert float(table["failed_ops_share"][0]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    _, result = result_of(run(workload, 1))
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert 0.0 < result["metrics"]["trace.overhead"]["value"] <= 1.5


def test_traced_runs_reach_every_wrapped_layer():
    unreached_everywhere = None
    for workload in WORKLOADS:
        report, _ = result_of(run(workload, 1))
        line = next(line for line in report if UNREACHED in line)
        names = {n.strip() for n in line.split(":", 1)[1].split(",")} - {"none"}
        unreached_everywhere = (
            names if unreached_everywhere is None else unreached_everywhere & names
        )
    assert unreached_everywhere == set()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run.__wrapped__(WORKLOADS[0], 0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
