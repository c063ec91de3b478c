"""Smoke test for the benchmark itself (not part of the tier-1 suite).

Runs a small pass of every workload, untraced and traced, and checks the
result line, the metric names and units against ``BENCHMARK.json``, the
traced report, and that the correctness checks ran.  About two minutes::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from report import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run(workload: str, trace: int, cwd: str = ROOT, seconds: str = "2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    checks = [line for line in done.stdout.splitlines()
              if line.startswith("checks: ")]
    assert checks and int(checks[0].split()[1]) > 0, "no checks ran"
    assert "error_rate" in done.stdout
    return result


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        PER_LAYER
    gated = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert gated <= set(WORKLOADS)
    with open(os.path.join(HERE, "workloads.json")) as handle:
        records = json.load(handle)
    assert set(records["workloads"]) == set(WORKLOADS)
    assert {name for name, record in records["workloads"].items()
            if record.get("gated", True)} == gated
    tabled = {name for row in records["layer_to_end_to_end"]
              for name in row["layer_metrics"]}
    assert tabled == set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    done = run(workload, 0)
    result = result_of(done)
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in done.stdout.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_per_layer_metric(workload):
    done = run(workload, 1)
    result = result_of(done)
    assert set(result["metrics"]) == set(PER_LAYER)
    report_path = os.path.join(ROOT, ".perfbench_out",
                               f"{workload}-seed7-trace.json")
    with open(report_path) as handle:
        report = json.load(handle)
    assert set(report["per_layer_metrics"]) == set(PER_LAYER)
    assert report["spans"] > 0 and report["layers_timed"]
    for row in report["layers_timed"].values():
        assert {"spans", "self_s", "share_of_request_time",
                "base_request_time_s"} <= set(row)
    overhead = report["tracing_overhead"]
    assert overhead["note"] and "latency_p50_ms" in overhead
    for ratio in report["ratios"].values():
        assert ratio["base"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("pool_open", 0, cwd=str(tmp_path), seconds="1")
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
