"""Pinned sha256 of a run on CSV pools.

A CSV run reads its pool from a file, one-hot encodes the categorical
columns and, with ``scale_numeric``, min-max scales the numeric ones by the
train side. These hashes pin the bytes of the curve, the report and every
trace of such a run, serially and in a process pool, on two tables: a
mixed table written here (two numeric columns, one categorical column with
declared levels in non-sorted order and one without) and the car-like
stand-in. A run with iwal writes no iwal-no-weights trace, so those come
from the same run without iwal and are pinned together with the first
run's traces. Every IWAL trace of both runs must also replay. Update a
hash only in a change that means to alter the run's output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from reuselab.cli import main
from reuselab.datasets import csv_text, write_text
from reuselab.standins import car_schema, write_car_like_csv

COLORS = ("red", "green", "blue")
SHAPES = ("square", "circle", "star", "ring")


def write_mixed_csv(path, n=300):
    rng = np.random.default_rng(2024)
    age = np.round(rng.uniform(18.0, 80.0, n), 1)
    income = np.round(rng.lognormal(3.0, 0.5, n), 3)
    color = rng.integers(len(COLORS), size=n)
    shape = rng.integers(len(SHAPES), size=n)
    score = (age - 45.0) / 20.0 + (color == 2) - (shape == 1) + rng.normal(0.0, 0.7, n)
    rows = [[repr(float(a)), repr(float(i)), COLORS[c], SHAPES[s], "yes" if v > 0 else "no"]
            for a, i, c, s, v in zip(age, income, color, shape, score)]
    write_text(path, csv_text(["age", "income", "color", "shape", "label"], rows))


def mixed_dataset(path):
    return {"kind": "csv", "path": str(path), "label_column": "label",
            "positive_values": ["yes"], "scale_numeric": True,
            "schema": {"age": "numeric", "income": "numeric",
                       "color": {"kind": "categorical", "levels": list(COLORS)},
                       "shape": "categorical"}}


def car_dataset(path):
    return {"kind": "csv", "path": str(path), "label_column": "class",
            "positive_values": ["acc"], "schema": car_schema()}


TABLES = {"mixed": (write_mixed_csv, mixed_dataset), "car-like": (write_car_like_csv, car_dataset)}

RUN = {
    "test_prop": 0.5,
    "repetitions": 2,
    "strategies": ["random", "uncertainty", "iwal", "iwal-no-weights"],
    "consumers": [{"kind": "least-squares"}, {"kind": "online-linear"}, {"kind": "svm-rbf"}],
    "n_grid": [20, 80],
    "c0_grid": [0.05, 0.5],
    "base_seed": 17,
    "save_traces": True,
}

EXPECTED = {
    "mixed": {
        "curve.csv": "3c8584b42b376af0eb07af12cb7a5d66ddc0b06298ed551775f1c27e1e0e4b8e",
        "report.csv": "c9e42ae7a21fc30d977fab30d363134b1e368e3019aa9163ff5c68796aea1e6d",
        "traces": "4bf9f372ed3789d6628b398adf13a159e20fe7461dcb1bd6beaa02d7d3bd87da",
    },
    "car-like": {
        "curve.csv": "9a0b3e8b01f899432a53d8f730d60a7ffc22e31f0654709f3aa00743d154dc4e",
        "report.csv": "e1166319663973588d15fd893874b5da1e7ca32dc685f18ac0ee54551b451c46",
        "traces": "e2af71431e3e55f6612948da7730961ec98c39a0263ce245c3cd5814408d1695",
    },
}


# The digest of the traces above together with those of the same run
# without iwal: every trace of a run that wrote one per cell.
EVERY_CELL_TRACES = {
    "mixed": "e6b02a92f28e5dbff81ca7d5f7fb4d847ace505aa205178ba7b52a705ae0273f",
    "car-like": "9362f77571a598988e48f8d7906d4e25c5a51c27bc8bb9996ec5566a9fda05c7",
}


def traces_digest(paths):
    """One sha256 over every trace's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_csv_run_bytes_are_pinned(tmp_path, monkeypatch, capsys, table, jobs):
    # a relative path: trace headers name the file as the config does
    monkeypatch.chdir(tmp_path)
    write, dataset = TABLES[table]
    write("table.csv")
    out, no_iwal = tmp_path / "out", tmp_path / "out-no-iwal"
    # the iwal-no-weights cells share the iwal cells' passes, so their traces
    # come from the same run without iwal
    for folder, strategies in ((out, RUN["strategies"]), (no_iwal, ["iwal-no-weights"])):
        Path("config.json").write_text(json.dumps(
            {"dataset": dataset("table.csv"), **RUN, "strategies": strategies}))
        assert main(["run", "--config", "config.json", "--out-dir", str(folder), "--quiet",
                     "--jobs", jobs]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ("curve.csv", "report.csv")}
    got["traces"] = traces_digest((out / "traces").iterdir())
    assert got == EXPECTED[table]
    every_cell = [*(out / "traces").iterdir(), *(no_iwal / "traces").iterdir()]
    assert traces_digest(every_cell) == EVERY_CELL_TRACES[table]
    iwal = sorted(t for t in every_cell if t.name.startswith("trace_iwal"))
    assert len(iwal) == 2 * len(RUN["c0_grid"]) * RUN["repetitions"]
    capsys.readouterr()
    for trace in iwal:
        assert main(["replay", str(trace)]) == 0
        assert capsys.readouterr().out.strip() == "ok", trace.name
