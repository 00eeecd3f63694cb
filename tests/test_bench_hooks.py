"""The benchmark's tracer still finds every name it wraps, and every
workload still sets up.

``perfbench/spans.py`` replaces functions by name in ``reuselab.experiments``,
``reuselab.selection`` and ``reuselab.cli``. A refactor that renames or
unbinds one of them breaks the benchmark, so this installs the tracer and
restores it without running a workload, and then checks on small runs that
every pool draw and split still passes through the wrapped names, and that
line-density's IWAL calls and selector updates are still counted. Each
workload of ``BENCHMARK.json`` then writes its inputs in a fresh process,
as the benchmark's timed set-up does.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from reuselab import cli, experiments
from reuselab.datasets import DatasetSpec
from reuselab.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# The files each workload's set-up writes.
INPUTS = {
    "line-density": set(),
    "circle-exact": {"config.json"},
    "mushroom-table": {"config.json", "mushroom_like.csv"},
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_restore():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_tracer_sees_the_size_probe_and_every_repetition():
    config = ExperimentConfig(DatasetSpec(kind="uniform-line", n=80), test_prop=0.25,
                              repetitions=3, strategies=("random",), n_grid=(10,))
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        cli.run_experiment(config)
    finally:
        tracer.restore()
    names = [span[1] for span in tracer.spans]
    # the size probe, then one pool draw and one split per repetition
    assert names.count("datasets.make_dataset") == 4
    assert names.count("datasets.split") == 4
    assert len(tracer.rep_latencies()) == 3


def test_tracer_counts_the_lanes_call_and_its_updates():
    # line-density's layer counts: a surrogate density_histogram runs its
    # passes as one lanes call of select_iwal, whose labels each update the
    # selector through the wrapped online_linear_update
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        experiments.density_histogram(DatasetSpec(kind="uniform-line", n=60),
                                      c0_list=(1.0, 3.0), runs=2, bins=4, base_seed=5)
    finally:
        tracer.restore()
    names = [span[1] for span in tracer.spans]
    assert names.count("experiments.density_histogram") == 1
    assert names.count("selection.select_iwal") == 1
    assert tracer.counts["selection.online_linear_update.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sets_up(tmp_path, workload):
    work = tmp_path / "work"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--setup-only", str(work)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert {p.name for p in work.iterdir()} == INPUTS[workload]
