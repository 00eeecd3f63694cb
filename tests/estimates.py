"""The importance-weighted error estimate that the tests check IWAL
selections against; the lab itself never computes it."""

from reuselab.learners import as_arrays


def weighted_error(model, x, y, w) -> float:
    """Normalized weight of the misclassified rows."""
    x, y, w = as_arrays(x, y, w)
    wrong = model.predict(x) != y
    return float(w[wrong].sum() / w.sum())
