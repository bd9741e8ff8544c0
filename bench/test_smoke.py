"""Smoke test of the benchmark harness: every workload at tiny size.

    python -m pytest bench/test_smoke.py -q

Each workload runs for about a second per pass with all output checks on,
untraced and traced.  The traced runs together must record a span for
every listed function.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("deconv", "sensing-batch", "cli")

sys.path.insert(0, BENCH)
import tracing  # noqa: E402


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    return result["metrics"]


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = _run(workload, 0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_traced_runs_report_every_per_layer_metric(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    for metrics in traced.values():
        assert set(metrics) == names


def test_every_listed_function_records_a_span(traced):
    for name in tracing.SPAN_NAMES:
        calls = sum(m[f"{name}_calls"]["value"] for m in traced.values())
        assert calls > 0, f"no span recorded for {name}"
    for name in tracing.COUNTERS:
        assert sum(m[name]["value"] for m in traced.values()) > 0, name


def test_run_without_program_source_fails(tmp_path):
    """In a directory holding only the benchmark, the run must fail fast."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deconv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
