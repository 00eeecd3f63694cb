"""Pinned sha256 of the files the lab writes.

These hashes catch any change in the bytes of the curve, the report and
one trace of each strategy, and the list of trace names catches a change
in which traces a run writes. The run covers all four strategies,
every consumer kind and exact-ERM ``g``, serially and in a process pool,
where repetition outcomes reach the parent process pickled. It writes no
``iwal-no-weights`` trace, since that cell trains on its ``iwal`` twin's
pass with unit weights, so that trace is pinned from the same config
without ``iwal``. The table
pins cover the two categorical stand-ins and ``reuselab gen`` of every
generated kind. Update a hash only in a change that means to alter that
file's format or content.
"""

import hashlib
import json

import pytest

from reuselab.cli import main
from reuselab.experiments import CONSUMER_KINDS
from reuselab.standins import write_car_like_csv, write_mushroom_like_csv

CONFIG = {
    "dataset": {"kind": "circle", "n": 240, "circle_prob": 0.05},
    "test_prop": 0.25,
    "repetitions": 2,
    "strategies": ["random", "uncertainty", "iwal", "iwal-no-weights"],
    "consumers": [{"kind": kind} for kind in CONSUMER_KINDS],
    "n_grid": [30, 90],
    "c0_grid": [0.05],
    "base_seed": 11,
    "iwal": {"gk_mode": "exact-erm", "erm_grid_resolution": 16},
    "save_traces": True,
}

EXPECTED = {
    "curve.csv":
        "f8466fc47bd5ce50b6d0e9cc187881f49c221183903d851ae10b51158eb409e9",
    "report.csv":
        "db847e3596eb1c0458a9de074c8dc20d0a9093a27f34a6fab8cff08e8ffab24d",
    "traces/trace_random_n_30_r0001.csv":
        "927f38db34c116f65bb9d4d024b471e41c17689d905c0d69062763fb9b4991fe",
    "traces/trace_uncertainty_n_90_r0000.csv":
        "f8b3293f1ab1dfc3c8fb4856b9cd55c0ba614e50ea2f9492c58e70ecf95826d3",
    "traces/trace_iwal_c0_0.05_r0001.csv":
        "428aaed3932114a3714def15df3f5019f1923297e40634000947bd43576cac6c",
}

TRACE_NAMES = [
    "trace_iwal_c0_0.05_r0000.csv", "trace_iwal_c0_0.05_r0001.csv",
    "trace_random_n_30_r0000.csv", "trace_random_n_30_r0001.csv",
    "trace_random_n_90_r0000.csv", "trace_random_n_90_r0001.csv",
    "trace_uncertainty_n_30_r0000.csv", "trace_uncertainty_n_30_r0001.csv",
    "trace_uncertainty_n_90_r0000.csv", "trace_uncertainty_n_90_r0001.csv",
]

NO_IWAL = {**CONFIG, "strategies": ["random", "uncertainty", "iwal-no-weights"]}

NO_IWAL_EXPECTED = {
    "traces/trace_iwal-no-weights_c0_0.05_r0000.csv":
        "dd80719e1930db236ecec0ca68b1bdb891657257e2f35a11ce7ea659799790cd",
}


def run_hashes(tmp_path, config, jobs, names):
    """Run ``config`` at ``--jobs`` ``jobs``: the sha256 of each of ``names``
    and the sorted names of the traces the run wrote."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--quiet",
                 "--jobs", jobs]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    return got, sorted(path.name for path in (out / "traces").iterdir())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_output_bytes_are_pinned(tmp_path, jobs):
    got, traces = run_hashes(tmp_path, CONFIG, jobs, EXPECTED)
    assert got == EXPECTED
    assert traces == TRACE_NAMES


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_iwal_no_weights_trace_bytes_are_pinned(tmp_path, jobs):
    got, _ = run_hashes(tmp_path, NO_IWAL, jobs, NO_IWAL_EXPECTED)
    assert got == NO_IWAL_EXPECTED


TABLES = {
    "car-like":
        "f72bf0421e033671ea3f47d6de8b144e482bf44acf4c6fc3f7acdee340c78179",
    "mushroom-like":
        "db19eeea08569693962f0a50ac707c8c291ba6099aa45fbe177ff1f1d9dfd983",
    "uniform-line":
        "e52bd65d1fdaf7600886913ddd5f38c6dfd15e98a80c07c937a189500a6196c1",
    "four-cluster-line":
        "3a328b97a5d358218f3f098c02c8fc522f8e209dd96785b6860d26d93536c61c",
    "circle":
        "0a80090943880e3671a76aa6b953a00f2a1657e5eb82f1ac75b15c6bab3b1f8e",
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_table_bytes_are_pinned(tmp_path, table):
    path = tmp_path / "table.csv"
    if table == "car-like":
        write_car_like_csv(path)
    elif table == "mushroom-like":
        write_mushroom_like_csv(path)
    else:
        assert main(["gen", table, "--n", "3000", "--seed", "5", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TABLES[table]
