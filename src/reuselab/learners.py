"""Importance-weighted trainable models and error measures.

The online linear model is the selector used during active selection; the
batch learners (weighted least squares, LDA, QDA, kernel SVM) are the
consumers trained on a finished selection. Every model has a ``kind`` and
a ``score`` over the rows of an (n, d) float64 array; ``predict`` is its
sign, ties going to +1. Every batch learner satisfies two identities that
the tests rely on: training on ``(x, y, w=k)`` with integer ``k`` equals
training on ``k`` unit-weight copies, and scaling all weights by a
positive constant leaves predictions unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datasets import Dataset
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    MissingClassError,
    SingularDataError,
    is_int,
    is_number,
)

# Condition-number ceiling beyond which a normal/covariance matrix is
# treated as singular (exact one-hot collinearity lands far above this).
_COND_LIMIT = 1e12
# Entries per row block of an RBF kernel: one block stays in cache while
# its elementwise steps run.
_KERNEL_BLOCK = 1 << 15
# Test rows per block of SvmModel.score: a block's kernel holds 256 * m
# doubles, no more than the fit's m x m Gram once m >= 256. A multiple of 8,
# so OpenBLAS's GEMV gives each row the bits of one whole-matrix GEMV.
_SCORE_ROWS = 256


def as_arrays(x, y, w):
    """Check (n, d) finite features with one label of -1 or +1 and one
    positive finite weight per row.

    Returns all three as float64 arrays: the fits need float labels.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgumentError("need at least one sample as an (n, d) feature matrix")
    if y.shape != (len(x),) or w.shape != (len(x),):
        raise InvalidArgumentError("labels and weights must align with the feature rows")
    if not np.isfinite(x).all():
        raise InvalidArgumentError("features must be finite numbers")
    if not (np.abs(y) == 1.0).all():
        raise InvalidArgumentError("labels must be -1 or +1")
    if not (w.min() > 0 and w.max() < math.inf):  # a NaN fails both
        raise InvalidArgumentError("weights must be positive finite numbers")
    return x, y, w


def _require_both_classes(y):
    if not (np.any(y > 0) and np.any(y < 0)):
        raise MissingClassError("training set contains a single class")


class _ModelBase:
    """Labels from the sign of ``score``; subclasses have ``kind`` and ``score``."""

    def predict(self, x):
        return np.where(self.score(x) >= 0.0, 1, -1)


@dataclass(frozen=True)
class LinearModel(_ModelBase):
    """``x @ theta + bias``; ``updates`` counts the online selector's steps."""

    kind: str  # online-linear | least-squares
    theta: np.ndarray
    bias: float
    updates: int = 0

    def score(self, x):
        return x @ self.theta + self.bias


# ---------------------------------------------------------------------------
# Online linear selector (importance-aware squared-hinge updates)


def inv_sqrt_schedule(eta0: float = 0.3) -> Callable[[int], float]:
    """Step sizes eta0/sqrt(t) for t = 1, 2, ...; eta0 must stay below 0.5."""
    if not (is_number(eta0) and 0.0 < eta0 < 0.5):
        raise InvalidArgumentError(
            f"eta0 must be a number in (0, 0.5) for a stable update, not {eta0!r}")
    return lambda t: eta0 / math.sqrt(t)


def make_online_model(dim: int) -> LinearModel:
    if dim <= 0:
        raise InvalidArgumentError("dim must be positive")
    return LinearModel("online-linear", theta=np.zeros(dim), bias=0.0)


@dataclass(eq=False)
class OnlineLanes:
    """R one-feature online selectors held as (R,) arrays, one entry per lane.

    Lane r scores ``x * theta[r] + bias[r]`` after ``updates[r]`` steps of
    size ``eta0[r] / sqrt(t)``. The lanes form of ``online_linear_update``
    changes the arrays in place.
    """

    theta: np.ndarray
    bias: np.ndarray
    updates: np.ndarray
    eta0: np.ndarray


def make_online_lanes(eta0s) -> OnlineLanes:
    """Untrained lanes, one per step-size base in ``eta0s``."""
    if len(eta0s) == 0:
        raise InvalidArgumentError("the lanes form needs at least one lane")
    for eta0 in eta0s:
        inv_sqrt_schedule(eta0)  # raises on an eta0 it cannot take
    lanes = len(eta0s)
    return OnlineLanes(theta=np.zeros(lanes), bias=np.zeros(lanes),
                       updates=np.zeros(lanes, dtype=np.int64),
                       eta0=np.array(eta0s, dtype=np.float64))


def online_linear_update(
    model: LinearModel | OnlineLanes,
    features: np.ndarray,
    label: float,
    importance: float,
    schedule: Callable[[int], float] | None = None,
) -> LinearModel | OnlineLanes:
    """One importance-weighted squared-hinge gradient step.

    The step is scaled so that an importance of ``k`` reproduces exactly
    ``k`` consecutive unit-importance updates on the same example under a
    frozen step size: the margin gap decays geometrically per unit update,
    so the combined step has the closed form ``(1 - (1-q)^k) / q`` with
    ``q = 2 * eta``. The raw step is normalized by the squared example
    norm, which keeps ``q`` below 1 for any feature scale.

    The label must be -1 or +1 and the importance a non-negative number.

    Lanes form: ``online_linear_update(lanes, x, labels, importances)``
    takes an ``OnlineLanes`` and three (R,) arrays and makes, in place,
    every lane's step as the solo call with lane r's feature ``x[r]``,
    label, importance and ``inv_sqrt_schedule(lanes.eta0[r])`` would, bit
    for bit; it returns ``lanes``. A lane is left alone where the solo
    call returns early: importance 0, or a margin of at least 1. Only the
    labeling lanes, those of nonzero importance, need a label of -1 or +1.
    """
    if isinstance(model, OnlineLanes):
        return _update_lanes(model, features, label, importance, schedule)
    # refuses NaN too; inf, from 1/p on a p that underflows, makes the limit
    # step (1 - 0) / q. is_number's ABC check would add a quarter to a call.
    if not importance >= 0:
        raise InvalidArgumentError(f"importance must be a non-negative number, not {importance!r}")
    if not (label == 1 or label == -1):  # 0 would spend a step and move nothing
        raise InvalidArgumentError(f"label must be -1 or +1, not {label!r}")
    x = np.asarray(features, dtype=np.float64)
    if x.shape != model.theta.shape:
        raise InvalidArgumentError(
            f"dimension mismatch: model has {model.theta.shape[0]}, example has {x.shape[0]}"
        )
    margin = label * (float(x @ model.theta) + model.bias)
    if importance == 0.0 or margin >= 1.0:
        return model
    schedule = schedule or inv_sqrt_schedule()
    t = model.updates + 1
    eta = schedule(t)
    norm2 = float(x @ x) + 1.0  # bias acts as an always-on feature
    q = 2.0 * eta
    if not (0.0 < q < 1.0):
        raise InvalidArgumentError("schedule step must lie in (0, 0.5)")
    combined = (1.0 - (1.0 - q) ** importance) / q
    coef = 2.0 * (eta / norm2) * (1.0 - margin) * label * combined
    return LinearModel(
        "online-linear",
        theta=model.theta + coef * x,
        bias=model.bias + coef,
        updates=t,
    )


def _update_lanes(lanes: OnlineLanes, features, label, importance, schedule) -> OnlineLanes:
    """The lanes form of ``online_linear_update``: the solo step on Python
    floats, one labeling lane at a time, which costs less than numpy
    operations on the few lanes that label. A length-1 dot is one rounded
    multiply, so each lane has the solo call's bits."""
    if schedule is not None:
        raise InvalidArgumentError(
            "the lanes form of online_linear_update takes its steps from the lanes' eta0, "
            "not a schedule")
    x, y, k = (np.asarray(a, dtype=np.float64) for a in (features, label, importance))
    if not x.shape == y.shape == k.shape == lanes.theta.shape:
        raise InvalidArgumentError(
            f"the lanes form of online_linear_update needs one feature, label and importance "
            f"per lane ({lanes.theta.shape[0]}), not {x.shape}, {y.shape} and {k.shape}")
    theta, bias, updates, eta0 = lanes.theta, lanes.bias, lanes.updates, lanes.eta0
    steps = []  # written back once every labeling lane has passed its checks
    # the labeling lanes; a NaN or negative importance is nonzero too
    for r in k.nonzero()[0].tolist():
        xr, yr, kr = x.item(r), y.item(r), k.item(r)
        if not kr > 0.0:
            raise InvalidArgumentError(
                f"the lanes form of online_linear_update needs non-negative importances, "
                f"not {kr!r} in lane {r}")
        if not (yr == 1.0 or yr == -1.0):
            raise InvalidArgumentError(
                f"the lanes form of online_linear_update needs each labeling lane's label "
                f"to be -1 or +1, not {yr!r} in lane {r}")
        th, b = theta.item(r), bias.item(r)
        margin = yr * (xr * th + b)
        if margin >= 1.0:  # a NaN margin updates, as solo
            continue
        t = updates.item(r) + 1
        eta = eta0.item(r) / math.sqrt(t)
        norm2 = xr * xr + 1.0
        q = 2.0 * eta
        if not (0.0 < q < 1.0):
            raise InvalidArgumentError("schedule step must lie in (0, 0.5)")
        combined = (1.0 - (1.0 - q) ** kr) / q
        coef = 2.0 * (eta / norm2) * (1.0 - margin) * yr * combined
        steps.append((r, th + coef * xr, b + coef, t))
    for r, th, b, t in steps:
        theta[r], bias[r], updates[r] = th, b, t
    return lanes


def fit_online_linear(x, y, w, eta0: float = 0.3, passes: int = 1) -> LinearModel:
    """Train the online linear model by streaming over the rows in order."""
    if not (is_int(passes) and passes >= 1):
        raise InvalidArgumentError(f"passes must be an integer >= 1, not {passes!r}")
    x, y, w = as_arrays(x, y, w)
    schedule = inv_sqrt_schedule(eta0)
    model = make_online_model(x.shape[1])
    for _ in range(passes):
        for i in range(len(x)):
            model = online_linear_update(model, x[i], y[i], w[i], schedule)
    return model


# ---------------------------------------------------------------------------
# Weighted least squares


def fit_least_squares(x, y, w, ridge: float = 0.0) -> LinearModel:
    """Minimize sum_i w_i (theta.x_i + b - y_i)^2 + ridge * |theta|^2.

    Weights are normalized to sum to one internally, so duplicating a
    sample is identical to doubling its weight and a global weight rescale
    never changes the solution, with or without the ridge term.
    """
    if not (is_number(ridge) and ridge >= 0):
        raise InvalidArgumentError(f"ridge must be a number >= 0, not {ridge!r}")
    x, y, w = as_arrays(x, y, w)
    wn = w / w.sum()
    xa = np.column_stack((x, np.ones(len(x))))
    a = (xa * wn[:, None]).T @ xa
    a[np.diag_indices(x.shape[1])] += ridge
    rhs = xa.T @ (wn * y)
    if ridge == 0.0 and _cond_exceeds(a):
        raise SingularDataError("normal equations are singular; use ridge > 0")
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDataError("normal equations are singular; use ridge > 0") from exc
    return LinearModel("least-squares", theta=sol[:-1], bias=float(sol[-1]))


def _cond_exceeds(a, limit=_COND_LIMIT):
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[-1] <= 0 or sv[0] / sv[-1] > limit


# ---------------------------------------------------------------------------
# Gaussian discriminants (LDA / QDA)


@dataclass(frozen=True)
class GaussianModel(_ModelBase):
    """Two-class Gaussian discriminant; ``kind`` is "lda" or "qda".

    The fit keeps the terms ``score`` needs, so scoring calls no LAPACK.
    """

    kind: str
    means: np.ndarray        # (2, d), row 0 = class -1, row 1 = class +1
    covariances: np.ndarray  # (2, d, d); identical rows for LDA
    log_priors: np.ndarray   # (2,)
    precisions: np.ndarray   # (2, d, d) inverses of the covariances
    logdets: np.ndarray      # (2,) log-determinants of the covariances

    def score(self, x):
        out = np.zeros(x.shape[0])
        for c, sign in ((1, +1.0), (0, -1.0)):
            diff = x - self.means[c]
            quad = np.einsum("ij,jk,ik->i", diff, self.precisions[c], diff)
            out += sign * (-0.5 * quad - 0.5 * self.logdets[c] + self.log_priors[c])
        return out


def _weighted_moments(x, y, w):
    """Per-class weighted priors, means and scatter matrices."""
    total = w.sum()
    stats = []
    for cls in (-1.0, 1.0):
        mask = y == cls
        wc = w[mask]
        xc = x[mask]
        weight = wc.sum()
        mean = (wc[:, None] * xc).sum(axis=0) / weight
        centered = xc - mean
        scatter = (centered * wc[:, None]).T @ centered
        stats.append((weight / total, mean, scatter, weight))
    return stats


def _covariance_terms(cov):
    """The inverse and log-determinant of ``cov``; SingularDataError if it is singular."""
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet) or _cond_exceeds(cov):
        raise SingularDataError("covariance is singular")
    return np.linalg.inv(cov), logdet


def _gaussian_model(kind, stats, covs, terms) -> GaussianModel:
    precisions, logdets = zip(*terms)
    return GaussianModel(
        kind=kind,
        means=np.stack([stats[0][1], stats[1][1]]),
        covariances=np.stack(covs),
        log_priors=np.log(np.asarray([stats[0][0], stats[1][0]])),
        precisions=np.stack(precisions),
        logdets=np.asarray(logdets),
    )


def fit_lda(x, y, w) -> GaussianModel:
    """Weighted linear discriminant: shared pooled covariance."""
    x, y, w = as_arrays(x, y, w)
    _require_both_classes(y)
    stats = _weighted_moments(x, y, w)
    pooled = (stats[0][2] + stats[1][2]) / w.sum()
    return _gaussian_model("lda", stats, [pooled] * 2, [_covariance_terms(pooled)] * 2)


def fit_qda(x, y, w) -> GaussianModel:
    """Weighted quadratic discriminant: one covariance per class."""
    x, y, w = as_arrays(x, y, w)
    _require_both_classes(y)
    stats = _weighted_moments(x, y, w)
    covs = [scatter / weight for _, _, scatter, weight in stats]
    return _gaussian_model("qda", stats, covs, [_covariance_terms(c) for c in covs])


# ---------------------------------------------------------------------------
# Kernel SVM (pairwise SMO on the soft-margin dual)


@dataclass(frozen=True)
class Kernel:
    """Kernel spec: linear, poly3 (degree 3, coef0 1), or rbf."""

    kind: str
    gamma: float | None = None  # rbf only; None means 1/dim

    def __post_init__(self):
        if self.kind not in ("linear", "poly3", "rbf"):
            raise InvalidArgumentError(f"unknown kernel {self.kind!r}")
        if self.gamma is not None and not (is_number(self.gamma) and self.gamma > 0):
            raise InvalidArgumentError(f"gamma must be a positive number, not {self.gamma!r}")

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gram matrix of the float64 rows of ``a`` against those of ``b``.

        poly3 and rbf finish in the GEMM's own (n, m) output. rbf does so
        one row block of about ``_KERNEL_BLOCK`` entries at a time, with one
        reused buffer of a block's size for ``|a_i|^2 + |b_j|^2``; when n * m
        is below ``_KERNEL_BLOCK`` that buffer is a second (n, m) array.
        Each element goes through the same operations in the same order as
        the plain expressions, so the bits are those of
        ``exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0))``.
        """
        out = a @ b.T
        if self.kind == "poly3":
            out += 1.0
            np.power(out, 3, out=out)
        elif self.kind == "rbf":
            gamma = self.gamma if self.gamma is not None else 1.0 / a.shape[1]
            aa = (a * a).sum(axis=1)
            bb = (b * b).sum(axis=1)
            rows = max(1, _KERNEL_BLOCK // max(out.shape[1], 1))
            tmp = np.empty((min(rows, len(out)), out.shape[1]))
            for lo in range(0, len(out), rows):
                blk = out[lo:lo + rows]
                sq = tmp[:len(blk)]
                blk *= 2.0
                np.add(aa[lo:lo + rows, None], bb, out=sq)
                np.subtract(sq, blk, out=blk)
                np.maximum(blk, 0.0, out=blk)
                blk *= -gamma
                np.exp(blk, out=blk)
        return out


linear_kernel = Kernel("linear")
poly3_kernel = Kernel("poly3")


def rbf_kernel(gamma: float | None = None) -> Kernel:
    return Kernel("rbf", gamma=gamma)


@dataclass(frozen=True)
class SvmModel(_ModelBase):
    kind: str                 # svm-linear | svm-poly3 | svm-rbf
    kernel: Kernel
    support_x: np.ndarray     # (m, d) support vectors
    dual_coef: np.ndarray     # (m,) alpha_i * y_i
    bias: float
    dual_objective: float
    iterations: int

    def score(self, x):
        """``K(x, support_x) @ dual_coef + bias``, K built for _SCORE_ROWS rows at a time.

        The last block also takes a lone final row, which NumPy would score
        with a dot product instead of the GEMV's row kernel.
        """
        out = np.empty(len(x))
        lo = 0
        for hi in [*range(_SCORE_ROWS, len(x) - 1, _SCORE_ROWS), len(x)]:
            out[lo:hi] = self.kernel.matrix(x[lo:hi], self.support_x) @ self.dual_coef
            lo = hi
        out += self.bias
        return out


def fit_svm(
    x,
    y,
    w,
    kernel: Kernel = linear_kernel,
    cost: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 10_000,
) -> SvmModel:
    """Soft-margin kernel SVM with per-sample box 0 <= alpha_i <= cost * w_i.

    Solved by maximal-violating-pair SMO on the dual with a cached kernel
    matrix; a "pass" is n pairwise updates. Raises ConvergenceError (with
    the remaining duality gap) when the cap is hit before the KKT
    violation drops below ``tol``.

    K is the only n x n array the fit keeps: ``Kernel.matrix`` builds it
    in the GEMM's own buffer, and Q = K * y y' is never formed. Because y
    is +-1 and K is symmetric, the pair update of -y * grad is exactly
    ``step * (K[i] - K[j])`` over two contiguous rows. -y * grad and the
    up and low working-set candidates (two copies of it masked with
    -inf / +inf) are the three rows of one (3, n) array, so a step is one
    ``state -= delta``; it can change the mask of entries i and j only.
    """
    if not (is_number(cost) and cost > 0):
        raise InvalidArgumentError(f"cost must be a positive number, not {cost!r}")
    if not (is_number(tol) and tol >= 0):
        raise InvalidArgumentError(f"tol must be a number >= 0, not {tol!r}")
    if not (is_int(max_passes) and max_passes >= 0):
        raise InvalidArgumentError(f"max_passes must be an integer >= 0, not {max_passes!r}")
    x, y, w = as_arrays(x, y, w)
    _require_both_classes(y)
    n = len(y)
    box = cost * w
    k = kernel.matrix(x, x)

    state = np.empty((3, n))
    neg_yg, up_vals, low_vals = state
    neg_yg[:] = y  # grad = Q alpha - 1 = -1 at alpha = 0
    # at alpha = 0 an index can only move away from 0: up if y > 0, down if y < 0
    has_room = 0.0 < box - 1e-12
    up_vals[:] = np.where((y > 0) & has_room, neg_yg, -np.inf)
    low_vals[:] = np.where((y < 0) & has_room, neg_yg, np.inf)
    delta = np.empty(n)
    # the pair bookkeeping reads and writes single entries: Python floats
    alpha = [0.0] * n
    box_f, y_f, diag = box.tolist(), y.tolist(), k.diagonal().tolist()
    max_iter = max_passes * n
    iterations = 0
    while True:
        i = up_vals.argmax()
        j = low_vals.argmin()
        violation = up_vals.item(i) - low_vals.item(j)  # -inf when either side is empty
        if violation <= tol:
            break
        if iterations >= max_iter:
            raise ConvergenceError(
                f"SMO did not reach tol={tol} within {max_passes} passes",
                duality_gap=_duality_gap(np.array(alpha), -y * neg_yg, y, box),
            )
        # curvature along the feasible pair direction: |phi(x_i) - phi(x_j)|^2
        curvature = diag[i] + diag[j] - 2.0 * k.item(i, j)
        step = violation / curvature if curvature > 1e-15 else math.inf
        room_i = (box_f[i] - alpha[i]) if y_f[i] > 0 else alpha[i]
        room_j = alpha[j] if y_f[j] > 0 else (box_f[j] - alpha[j])
        step = min(step, room_i, room_j)
        alpha[i] += y_f[i] * step
        alpha[j] -= y_f[j] * step
        np.subtract(k[i], k[j], out=delta)
        delta *= step
        state -= delta
        for t in (i, j):
            below, above = alpha[t] < box_f[t] - 1e-12, alpha[t] > 1e-12
            value = neg_yg.item(t)
            up_vals[t] = value if (below if y_f[t] > 0 else above) else -math.inf
            low_vals[t] = value if (above if y_f[t] > 0 else below) else math.inf
        iterations += 1

    alpha = np.array(alpha)
    hi, lo = up_vals.max(), low_vals.min()
    bias = float(((hi if np.isfinite(hi) else 0.0) + (lo if np.isfinite(lo) else 0.0)) / 2.0)
    ay = alpha * y
    objective = float(alpha.sum() - 0.5 * ay @ (k @ ay))

    support = alpha > 1e-12
    return SvmModel(
        kind=f"svm-{kernel.kind}",
        kernel=kernel,
        support_x=x[support],
        dual_coef=alpha[support] * y[support],
        bias=bias,
        dual_objective=objective,
        iterations=iterations,
    )


def _duality_gap(alpha, grad, y, box):
    # primal(f) - dual(alpha) with the decision function implied by alpha;
    # (Q alpha)_i = grad_i + 1 equals y_i * f(x_i) before the bias term
    dual = alpha.sum() - 0.5 * alpha @ (grad + 1.0)
    hinge = np.maximum(0.0, 1.0 - (grad + 1.0))
    primal = 0.5 * alpha @ (grad + 1.0) + box @ hinge
    return float(primal - dual)


# ---------------------------------------------------------------------------
# Error measures


def zero_one_error(model, dataset: Dataset) -> float:
    """Fraction of dataset instances the model misclassifies."""
    if len(dataset) == 0:
        raise InvalidArgumentError("dataset is empty")
    return float(np.mean(model.predict(dataset.x) != dataset.y))
