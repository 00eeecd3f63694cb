"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` (about two minutes).

Every workload runs at the smallest size (``--seconds 1``). Each must print
every metric named in ``BENCHMARK.json`` with its unit, pass its own output
checks, and repeat its per-layer counts exactly across two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, seed=1, cwd=ROOT):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(first) == expected and units(second) == expected
    counted = [
        name for name in expected
        if name.endswith((".calls", ".examples", ".iterations"))
        or name.startswith("learners.fit.failed.")
    ]
    assert {n: first["metrics"][n]["value"] for n in counted} == {
        n: second["metrics"][n]["value"] for n in counted
    }
    assert first["metrics"]["selection.select_iwal.calls"]["value"] > 0
    assert first["metrics"]["selection.online_linear_update.calls"]["value"] > 0


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = Tracer()
    tracer.spans = [
        (0, "a", 0.0, 10.0, None),
        (1, "b", 1.0, 4.0, 0),
        (2, "c", 3.0, 6.0, 0),
        (3, "d", 2.0, 3.0, 1),
    ]
    assert tracer.self_times() == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
