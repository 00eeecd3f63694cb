"""When a selection made for a simple learner fails a richer consumer.

The 1-D pool has four clusters in a +,-,+,- pattern; the two edge clusters
hold 1% of the mass each. A linear selector only needs the central boundary,
so the selection starves the edges. An RBF-kernel SVM could classify the
edge clusters correctly, but only the random selection shows it enough of
them: at small label budgets the active selection is NOT reusable. Once
c0 is large enough to label everything, the two arms converge.

About a minute at 60 repetitions.
"""

from reuselab import DatasetSpec
from reuselab.experiments import ConsumerSpec, ExperimentConfig, run_experiment

config = ExperimentConfig(
    dataset=DatasetSpec(kind="four-cluster-line", n=2000),
    test_prop=0.5,
    repetitions=60,
    strategies=("random", "iwal"),
    consumers=(ConsumerSpec("svm-rbf"),),
    n_grid=(67, 95, 1000),
    c0_grid=(0.01, 0.02, 1e6),
    gk_mode="exact-erm",
    erm_grid_resolution=64,
    base_seed=42,
)

result = run_experiment(config, jobs=4)

print(f"{'strategy':<8} {'cell':<14} {'labels':>7} {'test error':>11} {'sem':>9}")
for p in result.curve:
    print(f"{p.strategy:<8} {p.cell:<14} {p.x_position:7.0f} "
          f"{p.mean_err:11.4f} {p.std_of_mean:9.4f}")

print("\nactive vs matched random, small to large budgets:")
for r in result.report:
    print(f"  {r.cell:<14} matched n={r.matched_n:<5} delta={r.delta:+.4f} "
          f"t={r.welch_t:+.2f} -> {r.verdict}")
print("\nThe gap collapses at the full-pool cell: every curve ends in the same point.")
