"""A distribution where the importance weights themselves hurt a consumer.

The pool is two dense unit squares (49.9% each) ringed by a sparse circle
of opposite-label outliers at radius ~10 (0.1% per side). A linear selector
rarely wants the far ring points, so when the coin does pick one it carries
a huge weight, and a quadratic discriminant trained on the weighted
selection gets thrown around. A random selection of the same size is more
reliable: active learning here is worse, not better. Dropping the weights
("iwal-no-weights") changes the story again, and can even help LDA.

About ten seconds at 120 repetitions.
"""

from reuselab import DatasetSpec
from reuselab.experiments import ConsumerSpec, ExperimentConfig, run_experiment

config = ExperimentConfig(
    dataset=DatasetSpec(kind="circle", n=2000, circle_prob=0.001),
    test_prop=0.5,
    repetitions=120,
    strategies=("random", "iwal", "iwal-no-weights"),
    consumers=(ConsumerSpec("qda"), ConsumerSpec("lda")),
    n_grid=(113,),
    c0_grid=(0.01,),
    gk_mode="exact-erm",
    erm_grid_resolution=64,
    base_seed=20120705,
)

result = run_experiment(config, jobs=4)

print(f"{'strategy':<16} {'consumer':<6} {'labels':>7} {'test error':>12} {'sem':>9}")
for p in result.curve:
    print(f"{p.strategy:<16} {p.consumer:<6} {p.x_position:7.0f} "
          f"{p.mean_err:12.4f} {p.std_of_mean:9.4f}")

print("\nverdicts against the matched random cell:")
for r in result.report:
    print(f"  {r.strategy:<16} {r.consumer:<6} delta={r.delta:+.4f} "
          f"t={r.welch_t:+.2f} -> {r.verdict}")
