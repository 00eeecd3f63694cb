"""Offline stand-ins for the categorical benchmark tables.

This package never downloads data. These builders write deterministic CSV
files whose shape matches two classic categorical benchmarks: a
car-evaluation-like table (1728 rows = one per attribute combination, 6
categorical columns, exactly 518 positive rows, 29.98% positive) and a
mushroom-like table (8124 rows, 20 categorical columns, a '?' level in one
column, exactly 4208 positive rows, 51.8% positive). Labels come from
fixed rules over the attributes, with a deterministic trim to land on the
exact positive counts.
"""

from __future__ import annotations

import itertools

import numpy as np

from .datasets import csv_text, write_text

CAR_COLUMNS = ("buying", "maint", "doors", "persons", "lug_boot", "safety")
CAR_LEVELS = {
    "buying": ("vhigh", "high", "med", "low"),
    "maint": ("vhigh", "high", "med", "low"),
    "doors": ("2", "3", "4", "5more"),
    "persons": ("2", "4", "more"),
    "lug_boot": ("small", "med", "big"),
    "safety": ("low", "med", "high"),
}
CAR_POSITIVE = "acc"
CAR_NEGATIVE = "unacc"
CAR_POSITIVE_COUNT = 518  # 518/1728 = 29.98%

_CAR_POINTS = {
    "buying": {"vhigh": 0, "high": 1, "med": 2, "low": 3},
    "maint": {"vhigh": 0, "high": 1, "med": 2, "low": 3},
    "doors": {"2": 0, "3": 1, "4": 2, "5more": 2},
    "persons": {"2": 0, "4": 2, "more": 2},
    "lug_boot": {"small": 0, "med": 1, "big": 2},
    "safety": {"low": 0, "med": 2, "high": 3},
}


def car_like_rows() -> list[list[str]]:
    """All 1728 attribute combinations with a two-class acceptability label."""
    rows = []
    scores = []
    for combo in itertools.product(*(CAR_LEVELS[c] for c in CAR_COLUMNS)):
        record = dict(zip(CAR_COLUMNS, combo))
        if record["safety"] == "low" or record["persons"] == "2":
            score = -1  # hard veto
        else:
            score = sum(_CAR_POINTS[c][record[c]] for c in CAR_COLUMNS)
        rows.append(list(combo))
        scores.append(score)
    order = np.argsort(np.asarray(scores), kind="stable")[::-1]
    labels = [CAR_NEGATIVE] * len(rows)
    for idx in order[:CAR_POSITIVE_COUNT]:
        labels[idx] = CAR_POSITIVE
    return [row + [label] for row, label in zip(rows, labels)]


MUSHROOM_POSITIVE_COUNT = 4208  # 4208/8124 = 51.8%
MUSHROOM_ROWS = 8124
MUSHROOM_COLUMN_COUNT = 20


def mushroom_like_rows() -> list[list[str]]:
    """8124 rows over 20 categorical columns, one with a '?' level.

    The label is driven mostly by an odor-like column (as in the original
    table) plus two interacting columns, then trimmed to exactly 4208
    positives.
    """
    rng = np.random.default_rng(20120705)  # one fixed table
    level_counts = [6, 4, 9, 2, 9, 4, 3, 5, 2, 12, 2, 5, 4, 9, 9, 4, 3, 5, 6, 7]
    columns = []
    for j, count in enumerate(level_counts):
        levels = [f"{chr(ord('a') + j)}{v}" for v in range(count)]
        if j == 10:  # stalk-root-like column with missing values
            levels[-1] = "?"
        columns.append(rng.choice(levels, size=MUSHROOM_ROWS))
    odor = columns[2]
    cap = columns[0]
    gill = columns[7]
    score = (
        np.isin(odor, ("c0", "c3", "c5", "c7")).astype(float) * 2.0
        + np.isin(cap, ("a1", "a4")).astype(float)
        + np.isin(gill, ("h0", "h2")).astype(float)
        + rng.normal(0.0, 0.25, size=MUSHROOM_ROWS)
    )
    order = np.argsort(score, kind="stable")[::-1]
    labels = np.full(MUSHROOM_ROWS, "p")
    labels[order[:MUSHROOM_POSITIVE_COUNT]] = "e"
    return np.column_stack([*columns, labels]).tolist()


def write_car_like_csv(path) -> None:
    write_text(path, csv_text([*CAR_COLUMNS, "class"], car_like_rows()))


def write_mushroom_like_csv(path) -> None:
    header = [f"attr{j}" for j in range(MUSHROOM_COLUMN_COUNT)] + ["class"]
    write_text(path, csv_text(header, mushroom_like_rows()))


def car_schema() -> dict:
    return {c: "categorical" for c in CAR_COLUMNS}


def mushroom_schema() -> dict:
    return {f"attr{j}": "categorical" for j in range(MUSHROOM_COLUMN_COUNT)}

