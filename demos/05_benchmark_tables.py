"""End-to-end run on the categorical benchmark stand-ins, via the library.

Writes the two offline benchmark tables (car-shaped: 1728 rows, 6
categorical columns; mushroom-shaped: 8124 rows, 20 columns including a
'?' level), then runs all four strategies with two consumers on the
car-shaped table and prints the learning-curve cells.

A couple of minutes; drop repetitions for a faster look.
"""

import os
import tempfile

from reuselab import DatasetSpec
from reuselab.experiments import ConsumerSpec, ExperimentConfig, run_experiment
from reuselab.standins import car_schema, write_car_like_csv, write_mushroom_like_csv

with tempfile.TemporaryDirectory(prefix="reuselab-bench-") as workdir:
    car_path = os.path.join(workdir, "car_like.csv")
    write_car_like_csv(car_path)
    write_mushroom_like_csv(os.path.join(workdir, "mushroom_like.csv"))
    print(f"benchmark tables written under {workdir}")

    config = ExperimentConfig(
        dataset=DatasetSpec(
            kind="csv", path=car_path, label_column="class",
            positive_values=("acc",), schema=car_schema(),
        ),
        test_prop=0.10,
        repetitions=20,
        strategies=("random", "uncertainty", "iwal", "iwal-no-weights"),
        consumers=(ConsumerSpec("least-squares"), ConsumerSpec("svm-linear")),
        n_grid=(25, 100, 400, 1555),
        c0_grid=(0.5, 5.0, 1e9),
        base_seed=31,
    )

    # the run parses the table once at its start, so it stays inside the block
    result = run_experiment(config, jobs=4)

print(f"\n{'strategy':<16} {'consumer':<14} {'cell':<16} {'labels':>7} {'error':>9} {'sem':>9}")
for p in result.curve:
    print(f"{p.strategy:<16} {p.consumer:<14} {p.cell:<16} {p.x_position:7.0f} "
          f"{p.mean_err:9.4f} {p.std_of_mean:9.4f}")

print("\nreusability verdicts (each active cell vs nearest random cell):")
for r in result.report:
    print(f"  {r.strategy:<16} {r.consumer:<14} {r.cell:<16} "
          f"delta={r.delta:+.4f} -> {r.verdict}")
