import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reuselab as rl
from reuselab.errors import (
    ConvergenceError,
    InvalidArgumentError,
    MissingClassError,
    SingularDataError,
)
from reuselab.learners import (
    Kernel,
    LinearModel,
    inv_sqrt_schedule,
    make_online_model,
)
from reuselab.standins import car_schema, mushroom_schema

from dual_oracle import svm_dual_optimum
from estimates import weighted_error


def constant_schedule(eta: float):
    """A frozen step size, so k unit updates can be compared with one update of importance k."""
    return lambda t: eta


def qp_dual_oracle(x, y, w, kernel, cost):
    """Reference soft-margin dual optimum by exact face enumeration."""
    q = np.outer(y, y) * kernel.matrix(x, x)
    return svm_dual_optimum(q, cost * w, y)


def columns(rows):
    """(x, y, w) arrays from (features, label, weight) rows."""
    x, y, w = zip(*rows)
    return np.array(x, dtype=np.float64), np.array(y), np.array(w, dtype=np.float64)


def random_two_class(rng, n, d, weight_range=(1.0, 4.0)):
    x = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, -1, 1)
    y[0], y[1] = 1, -1
    w = rng.uniform(*weight_range, size=n)
    return x, y, w


def with_weight(samples, i, weight):
    """The same rows with row i's weight replaced."""
    x, y, w = samples
    w = w.copy()
    w[i] = weight
    return x, y, w


def take_rows(samples, rows):
    x, y, w = samples
    return x[rows], y[rows], w[rows]


PROBE_1D = np.linspace(-3, 3, 41)[:, None]


class TestOnlineLinear:
    def test_zero_importance_is_noop(self):
        model = make_online_model(2)
        after = rl.online_linear_update(model, np.array([1.0, -1.0]), 1, 0.0)
        assert after is model

    def test_confident_example_is_noop(self):
        model = rl.online_linear_update(make_online_model(1), np.array([1.0]), 1, 1.0)
        assert model.score(np.array([[5.0]]))[0] * 1 >= 1.0
        again = rl.online_linear_update(model, np.array([5.0]), 1, 1.0)
        assert again is model

    def test_importance_two_equals_two_unit_steps(self):
        # the oracle: apply the unit update twice with a frozen step
        sched = constant_schedule(0.2)
        x = np.array([0.7, -0.3])
        start = make_online_model(2)
        twice = rl.online_linear_update(
            rl.online_linear_update(start, x, 1, 1.0, sched), x, 1, 1.0, sched
        )
        fused = rl.online_linear_update(start, x, 1, 2.0, sched)
        np.testing.assert_allclose(fused.theta, twice.theta, rtol=0, atol=1e-15)
        assert fused.bias == pytest.approx(twice.bias, abs=1e-15)

    def test_integer_importance_matches_k_steps(self):
        sched = constant_schedule(0.1)
        x = np.array([0.4])
        for k in (3, 7):
            stepped = make_online_model(1)
            for _ in range(k):
                stepped = rl.online_linear_update(stepped, x, -1, 1.0, sched)
            fused = rl.online_linear_update(make_online_model(1), x, -1, float(k), sched)
            np.testing.assert_allclose(fused.theta, stepped.theta, atol=1e-14)

    def test_huge_importance_saturates_margin(self):
        x = np.array([0.5, 0.5])
        model = rl.online_linear_update(make_online_model(2), x, 1, 1e9, constant_schedule(0.2))
        assert model.score(x[None, :])[0] == pytest.approx(1.0, abs=1e-9)

    def test_kind(self):
        fitted = rl.fit_online_linear(np.array([[1.0], [-1.0]]), np.array([1, -1]), np.ones(2))
        assert make_online_model(1).kind == fitted.kind == "online-linear"

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            rl.online_linear_update(make_online_model(2), np.array([1.0]), 1, 1.0)


# eta0, and the start state (theta, bias, updates) of a one-feature selector
FLOAT_STARTS = (
    (0.3, 0.0, 0.0, 0),
    (0.05, 0.0, 0.0, 0),
    (0.49, 0.0, 0.0, 0),
    (0.05, -0.4, 0.2, 10**6),
    (0.3, 1.5, -0.1, 10**9),
    (0.49, 0.7, 0.3, 10**12),
)


def step_both(start, x, y, k):
    """One step of the float form and of the ``LinearModel`` form at d = 1
    from ``start``; both results as (theta, bias, updates)."""
    eta0, theta, bias, t = start
    schedule = inv_sqrt_schedule(eta0)
    model = LinearModel("online-linear", theta=np.array([theta]), bias=bias, updates=t)
    model = rl.online_linear_update(model, np.array([x]), y, k, schedule)
    got = rl.online_linear_update((theta, bias, t), x, y, k, schedule)
    assert all(type(v) in (float, int) for v in got)
    return got, (model.theta.item(), model.bias, model.updates)


def assert_same_state(got, want):
    assert np.array_equal(got, want, equal_nan=True), (got, want)


class TestOnlineFloatForm:
    """The float form of ``online_linear_update`` steps as the ``LinearModel``
    form does at d = 1, bit for bit."""

    def test_random_steps_equal_linear_model_steps(self):
        rng = np.random.default_rng(90)
        states = list(FLOAT_STARTS)
        for _ in range(400):
            for r, start in enumerate(states):
                x = float(rng.normal(scale=10.0 ** rng.integers(-3, 4)))
                y = -1.0 if rng.random() < 0.5 else 1.0
                k = 1.0 / rng.uniform(1e-6, 1.0) if rng.random() < 0.6 else 0.0
                got, want = step_both(start, x, y, k)
                assert_same_state(got, want)
                states[r] = (start[0], *got)
        assert all(s[3] > f[3] for s, f in zip(states, FLOAT_STARTS))

    def test_confident_steps_count_no_update(self):
        # margins 2 and exactly 1 skip; 0.5 and a NaN margin update
        starts = [(0.3, 2.0, 0.0, 5), (0.3, 1.0, 0.0, 5), (0.3, 0.5, 0.0, 5), (0.3, 0.5, 0.0, 5)]
        results = []
        for start, x in zip(starts, (1.0, 1.0, 1.0, math.nan)):
            got, want = step_both(start, x, 1.0, 3.0)
            assert_same_state(got, want)
            results.append(got)
        assert [t for _, _, t in results] == [5, 5, 6, 6]
        assert math.isnan(results[3][0]) and not any(math.isnan(r[0]) for r in results[:3])

    @pytest.mark.parametrize("eta0", [0.05, 0.3, 0.49])
    def test_huge_importance_at_large_t(self, eta0):
        for t in (0, 1, 10**6, 10**12, 10**15):
            state = (eta0, 0.1, -0.2, t)
            for x in (0.8, -3.0, 1e-4):
                got, want = step_both(state, x, -1.0, 1e9)
                assert_same_state(got, want)
                state = (eta0, *got)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan])
    def test_bad_importance_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="importance must be a non-negative"):
            rl.online_linear_update((0.0, 0.0, 0), 1.0, 1.0, bad)

    @pytest.mark.parametrize("bad", [0.0, 2.0, np.nan])
    def test_bad_label_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="label must be -1 or \\+1"):
            rl.online_linear_update((0.0, 0.0, 0), 1.0, bad, 1.0)

    def test_no_schedule_steps_as_the_default_schedule(self):
        state = (0.0, 0.0, 0)
        for x, y in ((0.5, 1.0), (-2.0, 1.0), (0.1, -1.0)):
            got = rl.online_linear_update(state, x, y, 3.0)
            assert got == rl.online_linear_update(state, x, y, 3.0, inv_sqrt_schedule())
            state = got
        assert state[2] == 3

    @pytest.mark.parametrize("eta", [0.5, 0.0, np.nan])
    def test_step_outside_the_stable_range_rejected(self, eta):
        with pytest.raises(InvalidArgumentError, match="schedule step must lie in"):
            rl.online_linear_update((0.0, 0.0, 0), 1.0, 1.0, 1.0, constant_schedule(eta))

    @pytest.mark.parametrize("eta0", [0.0, 0.5, -0.1, np.nan])
    def test_bad_eta0_rejected(self, eta0):
        with pytest.raises(InvalidArgumentError, match="eta0 must be a number in"):
            inv_sqrt_schedule(eta0)
        with pytest.raises(InvalidArgumentError, match="eta0 must be a number in"):
            rl.IwalConfig(c0=1.0, selector_eta0=eta0)


class TestLearnerArguments:
    """Each learner refuses a bad argument with an error that names it."""

    X, Y, W = np.array([[-1.0], [-0.5], [0.5], [1.0]]), np.array([-1, -1, 1, 1]), np.ones(4)

    def test_nan_ridge(self):
        with pytest.raises(InvalidArgumentError, match="ridge"):
            rl.fit_least_squares(self.X, self.Y, self.W, ridge=np.nan)

    def test_nan_cost(self):
        with pytest.raises(InvalidArgumentError, match="cost"):
            rl.fit_svm(self.X, self.Y, self.W, cost=np.nan)

    def test_online_model_without_features(self):
        with pytest.raises(InvalidArgumentError, match="dim must be positive"):
            make_online_model(0)

    def test_unknown_kernel(self):
        with pytest.raises(InvalidArgumentError, match="unknown kernel 'sigmoid'"):
            Kernel("sigmoid")

    @pytest.mark.parametrize("passes", [0, -2, 1.0, True])
    def test_bad_passes(self, passes):
        with pytest.raises(InvalidArgumentError, match="passes"):
            rl.fit_online_linear(self.X, self.Y, self.W, passes=passes)

    @pytest.mark.parametrize("importance", [np.nan, -1.0, -np.inf])
    def test_bad_importance(self, importance):
        with pytest.raises(InvalidArgumentError, match="importance"):
            rl.online_linear_update(make_online_model(1), np.array([0.5]), 1, importance)

    @pytest.mark.parametrize("label", [0, 2.0, np.nan])
    def test_bad_label(self, label):
        model = make_online_model(1)
        with pytest.raises(InvalidArgumentError, match="label"):
            rl.online_linear_update(model, np.array([0.5]), label, 1.0)
        assert model.updates == 0 and not model.theta.any() and model.bias == 0.0

    @pytest.mark.parametrize("tol", [np.nan, -1.0, "x"])
    def test_bad_svm_tol(self, tol):
        with pytest.raises(InvalidArgumentError, match="tol"):
            rl.fit_svm(self.X, self.Y, self.W, tol=tol)

    @pytest.mark.parametrize("max_passes", [-3, 2.5, True])
    def test_bad_svm_max_passes(self, max_passes):
        with pytest.raises(InvalidArgumentError, match="max_passes"):
            rl.fit_svm(self.X, self.Y, self.W, max_passes=max_passes)

    def test_infinite_importance_is_the_limit_step(self):
        # 1/p overflows to inf for a subnormal p; (1 - q) ** inf is 0
        model = rl.online_linear_update(make_online_model(1), np.array([0.5]), 1, math.inf)
        assert model.updates == 1 and np.isfinite(model.theta).all()

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_rbf_gamma(self, gamma):
        with pytest.raises(InvalidArgumentError, match="gamma"):
            rl.rbf_kernel(gamma)

    @pytest.mark.parametrize("fit", [rl.fit_lda, rl.fit_least_squares])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight(self, fit, bad):
        with pytest.raises(InvalidArgumentError, match="weights"):
            fit(self.X, self.Y, np.array([1.0, bad, 1.0, 1.0]))

    @pytest.mark.parametrize("fit", [rl.fit_lda, rl.fit_least_squares, rl.fit_svm])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature(self, fit, bad):
        x = self.X.copy()
        x[2, 0] = bad
        with pytest.raises(InvalidArgumentError, match="features"):
            fit(x, self.Y, self.W)

    @pytest.mark.parametrize("fit", [rl.fit_lda, rl.fit_least_squares, rl.fit_qda])
    def test_zero_one_labels(self, fit):
        with pytest.raises(InvalidArgumentError, match="labels"):
            fit(self.X, np.array([0, 0, 1, 1]), self.W)


class TestLeastSquares:
    def test_exact_interpolation(self):
        model = rl.fit_least_squares(np.array([[-1.0], [1.0]]), np.array([-1, 1]), np.ones(2))
        assert model.theta[0] == pytest.approx(1.0, abs=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_equals_double_weight(self):
        rng = np.random.default_rng(0)
        base = random_two_class(rng, 6, 1, weight_range=(1.0, 1.0))
        dup = take_rows(base, [0, 1, 2, 3, 4, 5, 2])
        doubled = with_weight(base, 2, 2.0)
        a = rl.fit_least_squares(*dup, ridge=0.01)
        b = rl.fit_least_squares(*doubled, ridge=0.01)
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)
        assert a.bias == pytest.approx(b.bias, abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(1)
        x, y, w = random_two_class(rng, 5, 2)
        model = rl.fit_least_squares(x, y, w, ridge=0.0)
        # oracle: solve via lstsq on sqrt-weight scaled rows (different path)
        xa = np.column_stack([x, np.ones(5)])
        sw = np.sqrt(w / w.sum())
        sol = np.linalg.lstsq(xa * sw[:, None], y * sw, rcond=None)[0]
        np.testing.assert_allclose(np.append(model.theta, model.bias), sol, atol=1e-8)

    def test_singular_without_ridge(self):
        # two perfectly collinear columns
        samples = columns([([v, 2 * v], 1 if v > 0 else -1, 1.0) for v in (-2.0, -1.0, 1.0, 2.0)])
        with pytest.raises(SingularDataError):
            rl.fit_least_squares(*samples, ridge=0.0)
        rl.fit_least_squares(*samples, ridge=1e-6)  # regularized fit goes through


def hand_weighted_moments(x, y, w):
    """Plain-loop weighted moment oracle."""
    by_class = {-1: [], 1: []}
    for i in range(len(y)):
        by_class[int(y[i])].append(i)
    out = {}
    total = sum(w)
    for cls, group in by_class.items():
        wsum = sum(w[i] for i in group)
        d = len(x[group[0]])
        mean = [
            sum(w[i] * x[i][j] for i in group) / wsum for j in range(d)
        ]
        cov = [[0.0] * d for _ in range(d)]
        for i in group:
            diff = [x[i][j] - mean[j] for j in range(d)]
            for a in range(d):
                for b in range(d):
                    cov[a][b] += w[i] * diff[a] * diff[b]
        cov = [[v / wsum for v in row] for row in cov]
        out[cls] = (wsum / total, np.array(mean), np.array(cov))
    return out


class TestGaussianDiscriminants:
    def test_symmetric_clusters_threshold_at_midpoint(self):
        left = [([-2.0 + d], -1, 1.0) for d in (-0.1, 0.0, 0.1)]
        right = [([2.0 + d], 1, 1.0) for d in (-0.1, 0.0, 0.1)]
        for fit in (rl.fit_lda, rl.fit_qda):
            model = fit(*columns(left + right))
            assert model.score(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-9)
            assert np.array_equal(model.predict(np.array([[1.0], [-1.0]])), [1, -1])

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(2)
        x, y, w = random_two_class(rng, 30, 2)
        probe = rng.normal(size=(50, 2))
        for fit in (rl.fit_lda, rl.fit_qda):
            assert np.array_equal(fit(x, y, w).predict(probe), fit(x, y, w * 10).predict(probe))

    def test_moments_match_hand_oracle(self):
        x, y, w = columns([
            ([0.0, 1.0], -1, 1.0),
            ([1.0, 2.0], -1, 2.0),
            ([-1.0, 0.5], -1, 0.5),
            ([3.0, -1.0], 1, 1.5),
            ([4.0, 0.0], 1, 2.5),
            ([2.5, 1.0], 1, 1.0),
        ])
        oracle = hand_weighted_moments(x, y, w)
        qda = rl.fit_qda(x, y, w)
        for idx, cls in ((0, -1), (1, 1)):
            prior, mean, cov = oracle[cls]
            np.testing.assert_allclose(qda.means[idx], mean, atol=1e-10)
            np.testing.assert_allclose(qda.covariances[idx], cov, atol=1e-10)
            assert math.exp(qda.log_priors[idx]) == pytest.approx(prior, abs=1e-10)
        lda = rl.fit_lda(x, y, w)
        total = sum(w)
        pooled = sum(
            oracle[cls][2] * sum(w[i] for i in range(len(y)) if y[i] == cls)
            for cls in (-1, 1)
        ) / total
        np.testing.assert_allclose(lda.covariances[0], pooled, atol=1e-10)

    def test_single_class_raises(self):
        with pytest.raises(MissingClassError):
            rl.fit_lda(np.array([[1.0], [2.0]]), np.array([1, 1]), np.ones(2))

    def test_singular_covariance_raises(self):
        # both classes live on the same line in 2-D
        samples = columns([([v, 2 * v], -1 if v < 0 else 1, 1.0) for v in (-2.0, -1.0, 1.0, 2.0)])
        with pytest.raises(SingularDataError):
            rl.fit_qda(*samples)
        with pytest.raises(SingularDataError):
            rl.fit_lda(*samples)

    def test_equal_covariances_make_lda_and_qda_agree(self):
        # same point cloud translated: class covariances identical by construction
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(20, 2))
        left = [(p + np.array([-2.0, 0.0]), -1, 1.3) for p in cloud]
        right = [(p + np.array([2.0, 1.0]), 1, 1.3) for p in cloud]
        probe = rng.normal(scale=2.0, size=(100, 2))
        lda, qda = rl.fit_lda(*columns(left + right)), rl.fit_qda(*columns(left + right))
        assert np.array_equal(lda.predict(probe), qda.predict(probe))


class TestSvm:
    def test_separable_two_points(self):
        x, y = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1])
        model = rl.fit_svm(x, y, np.ones(2), rl.linear_kernel)
        for features, label in zip(x, y):
            margin = label * model.score(features[None, :])[0]
            assert margin >= 1 - 1e-6

    def test_duplicate_equals_double_weight_on_decision_values(self):
        rng = np.random.default_rng(4)
        base = random_two_class(rng, 8, 2, weight_range=(1.0, 1.0))
        dup = take_rows(base, [0, 1, 2, 3, 4, 5, 6, 7, 3])
        doubled = with_weight(base, 3, 2.0)
        probe = rng.normal(size=(30, 2))
        a = rl.fit_svm(*dup, rl.linear_kernel, tol=1e-8)
        b = rl.fit_svm(*doubled, rl.linear_kernel, tol=1e-8)
        np.testing.assert_allclose(a.score(probe), b.score(probe), atol=1e-6)

    @pytest.mark.parametrize("kernel", [rl.linear_kernel, rl.poly3_kernel, rl.rbf_kernel()])
    def test_dual_objective_matches_qp_oracle(self, kernel):
        rng = np.random.default_rng(5)
        x, y, w = random_two_class(rng, 8, 2)
        model = rl.fit_svm(x, y, w, kernel, cost=1.0, tol=1e-6)
        oracle = qp_dual_oracle(x, y, w, model.kernel, cost=1.0)
        assert model.dual_objective == pytest.approx(oracle, abs=1e-4)

    def test_kkt_conditions_at_tolerance(self):
        rng = np.random.default_rng(6)
        x, y, w = random_two_class(rng, 40, 2)
        tol = 1e-3
        model = rl.fit_svm(x, y, w, rl.rbf_kernel(), cost=1.0, tol=tol)
        # recover every alpha (support decisions) by re-deriving margins
        decision = y * np.asarray(model.score(x))
        # reconstruct alpha per sample from the stored support set
        support_map = {tuple(sx): c for sx, c in zip(model.support_x, model.dual_coef)}
        slack = tol + 1e-9
        for i in range(len(x)):
            alpha = abs(support_map.get(tuple(x[i]), 0.0))
            box = 1.0 * w[i]
            if alpha <= 1e-12:
                assert decision[i] >= 1 - slack
            elif alpha >= box - 1e-9:
                assert decision[i] <= 1 + slack
            else:
                assert decision[i] == pytest.approx(1.0, abs=slack)

    def test_single_class_raises(self):
        with pytest.raises(MissingClassError):
            rl.fit_svm(np.array([[1.0], [2.0]]), np.array([1, 1]), np.ones(2))

    def test_iteration_cap_raises_with_gap(self):
        rng = np.random.default_rng(7)
        samples = random_two_class(rng, 30, 2)
        with pytest.raises(ConvergenceError) as err:
            rl.fit_svm(*samples, rl.rbf_kernel(), tol=1e-12, max_passes=0)
        assert err.value.duality_gap is not None


def reference_smo(x, y, w, kernel, cost=1.0, tol=1e-3, max_passes=10_000):
    """The original SMO loop over columns of Q = K * y y', kept as a reference.

    Returns (iterations, bias, dual_coef, support_x, dual_objective, alpha,
    box), or raises ConvergenceError like ``fit_svm``.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    box = cost * w
    k = kernel.matrix(x, x)
    q = k * np.outer(y, y)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    iterations = 0
    while True:
        neg_yg = -y * grad
        up = np.where(y > 0, alpha < box - 1e-12, alpha > 1e-12)
        low = np.where(y > 0, alpha > 1e-12, alpha < box - 1e-12)
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        j = int(np.argmin(np.where(low, neg_yg, np.inf)))
        violation = neg_yg[i] - neg_yg[j]
        if violation <= tol:
            break
        if iterations >= max_passes * n:
            raise ConvergenceError(
                "reference SMO hit its cap",
                duality_gap=rl.learners._duality_gap(alpha, grad, y, box),
            )
        curvature = k[i, i] + k[j, j] - 2.0 * k[i, j]
        step = violation / curvature if curvature > 1e-15 else np.inf
        room_i = (box[i] - alpha[i]) if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else (box[j] - alpha[j])
        step = min(step, room_i, room_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (y[i] * q[:, i] - y[j] * q[:, j])
        iterations += 1
    neg_yg = -y * grad
    up = np.where(y > 0, alpha < box - 1e-12, alpha > 1e-12)
    low = np.where(y > 0, alpha > 1e-12, alpha < box - 1e-12)
    hi = np.max(np.where(up, neg_yg, -np.inf)) if up.any() else 0.0
    lo = np.min(np.where(low, neg_yg, np.inf)) if low.any() else 0.0
    support = alpha > 1e-12
    return (
        iterations,
        float((hi + lo) / 2.0),
        alpha[support] * y[support],
        x[support],
        float(alpha.sum() - 0.5 * alpha @ (q @ alpha)),
        alpha,
        box,
    )


def overlapping_two_class(seed, n, d):
    """Two heavily overlapping Gaussian classes with non-unit weights."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1, -1)
    x = rng.normal(size=(n, d)) + 0.5 * y[:, None]
    w = rng.choice([0.5, 1.0, 2.5, 4.0], size=n)
    return x, y, w


KERNELS = [rl.linear_kernel, rl.poly3_kernel, rl.rbf_kernel(0.5)]


class TestSvmBitIdentity:
    """fit_svm makes the same pair choices and steps as the Q-column loop."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("seed,n,d", [(11, 30, 2), (12, 120, 5)])
    def test_same_model_as_reference(self, kernel, seed, n, d):
        samples = overlapping_two_class(seed, n, d)
        model = rl.fit_svm(*samples, kernel, cost=1.0, tol=1e-6)
        iterations, bias, dual_coef, support_x, objective, alpha, box = reference_smo(
            *samples, kernel, cost=1.0, tol=1e-6
        )
        assert np.any(alpha >= box - 1e-12)  # some alphas reach the box
        assert model.iterations == iterations
        assert model.bias == bias
        assert np.array_equal(model.dual_coef, dual_coef)
        assert np.array_equal(model.support_x, support_x)
        assert model.dual_objective == objective

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("n", [40, 160])
    def test_same_model_on_one_hot_rows(self, mushroom_like_path, kernel, n):
        dataset = rl.load_csv(mushroom_like_path, "class", ("e",), mushroom_schema())
        train = rl.split(dataset, 0.5, seed=n).train.take(np.arange(n))
        w = np.random.default_rng(n).choice([0.5, 1.0, 2.5, 4.0], size=n)
        model = rl.fit_svm(train.x, train.y, w, kernel, cost=0.5, tol=1e-6)
        iterations, bias, dual_coef, support_x, objective, _, _ = reference_smo(
            train.x, train.y, w, kernel, cost=0.5, tol=1e-6
        )
        assert model.iterations == iterations
        assert model.bias == bias
        assert np.array_equal(model.dual_coef, dual_coef)
        assert np.array_equal(model.support_x, support_x)
        assert model.dual_objective == objective

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("max_passes", [0, 1])
    def test_same_duality_gap_at_iteration_cap(self, kernel, max_passes):
        samples = overlapping_two_class(13, 30, 2)
        with pytest.raises(ConvergenceError) as got:
            rl.fit_svm(*samples, kernel, tol=1e-12, max_passes=max_passes)
        with pytest.raises(ConvergenceError) as want:
            reference_smo(*samples, kernel, tol=1e-12, max_passes=max_passes)
        assert got.value.duality_gap == want.value.duality_gap

    @pytest.mark.parametrize("kernel", KERNELS + [rl.rbf_kernel()], ids=["linear", "poly3", "rbf", "rbf-default"])
    @pytest.mark.parametrize("n,d", [(1, 1), (7, 3), (64, 20), (257, 110)])
    def test_kernel_matrix_is_exactly_symmetric(self, kernel, n, d):
        # fit_svm reads rows K[i] in place of columns K[:, i]
        x = np.random.default_rng(n * d).normal(size=(n, d))
        k = kernel.matrix(x, x)
        assert np.array_equal(k, k.T)


def plain_kernel_matrix(kernel, a, b):
    """The kernel as one expression per kind, each step a fresh array."""
    if kernel.kind == "linear":
        return a @ b.T
    if kernel.kind == "poly3":
        return (a @ b.T + 1.0) ** 3
    gamma = kernel.gamma if kernel.gamma is not None else 1.0 / a.shape[1]
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


BLOCK = rl.learners._KERNEL_BLOCK


class TestKernelMatrixBits:
    """Kernel.matrix, built in place and in row blocks, equals the plain expressions."""

    @pytest.mark.parametrize(
        "kernel", KERNELS + [rl.rbf_kernel()], ids=["linear", "poly3", "rbf", "rbf-default"]
    )
    @pytest.mark.parametrize("one_hot", [False, True], ids=["continuous", "one-hot"])
    @pytest.mark.parametrize("n,m,d,same", [
        (300, 300, 20, True),       # a is b; 300 rows are not a multiple of the block rows
        (1000, 211, 110, False),    # several blocks, the last one short
        (3, BLOCK + 7, 4, False),   # m larger than one block: one row per block
        (50, 1, 6, False),
        (1, 200, 6, False),
        (1, 1, 3, True),
    ])
    def test_equals_plain_expression(self, kernel, one_hot, n, m, d, same):
        rng = np.random.default_rng(n + m + d)

        def draw(k):
            return (rng.random((k, d)) < 0.3).astype(float) if one_hot else rng.normal(size=(k, d))

        a = draw(n)
        b = a if same else draw(m)
        assert np.array_equal(kernel.matrix(a, b), plain_kernel_matrix(kernel, a, b))


class TestSvmDefaultGamma:
    """rbf_kernel() scores with gamma 1/d, resolved by Kernel.matrix at fit and score time."""

    @pytest.mark.parametrize("seed,n,d", [(14, 30, 1), (15, 60, 2), (16, 120, 5)])
    def test_same_model_as_explicit_gamma(self, seed, n, d):
        samples = overlapping_two_class(seed, n, d)
        probe = np.random.default_rng(seed).normal(size=(50, d))
        a = rl.fit_svm(*samples, rl.rbf_kernel(), tol=1e-6)
        b = rl.fit_svm(*samples, rl.rbf_kernel(1.0 / d), tol=1e-6)
        assert a.kind == b.kind == "svm-rbf"
        assert a.bias == b.bias
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert np.array_equal(a.score(probe), b.score(probe))


def mushroom_halves(path):
    """The one-hot train and test halves of the mushroom-like table (4,062 rows each)."""
    return rl.split(rl.load_csv(path, "class", ("e",), mushroom_schema()), 0.5, seed=3)


def blocked_score_mismatches(mushroom_path):
    """Cases where SvmModel.score differs from one whole-matrix kernel and GEMV.

    Every kernel is fitted on 200 one-hot rows and scored on the 4,062 test
    rows, and fitted on 1-D rows and scored on 1 to 1,025 rows (up to four
    full blocks and a lone last row). Returns (case, differing scores) pairs.
    """
    pair = mushroom_halves(mushroom_path)
    one_hot = (pair.train.x[:200], pair.train.y[:200], np.ones(200))
    rng = np.random.default_rng(31)
    probes = [("one-hot", one_hot, pair.test.x)] + [
        (f"1-D, {n} rows", overlapping_two_class(32, 120, 1), rng.normal(scale=2.0, size=(n, 1)))
        for n in (1, 257, 1000, 1025)
    ]
    mismatches = []
    for kernel in KERNELS + [rl.rbf_kernel()]:
        for name, samples, x in probes:
            model = rl.fit_svm(*samples, kernel, cost=0.5)
            whole = kernel.matrix(x, model.support_x) @ model.dual_coef + model.bias
            differing = int((model.score(x) != whole).sum())
            if differing:
                mismatches.append((f"{kernel.kind} {kernel.gamma}, {name}", differing))
    return mismatches


class TestSvmBlockedScore:
    """SvmModel.score builds the test x support kernel in blocks of test rows."""

    def test_equals_one_whole_gemv_bit_for_bit(self, mushroom_like_path):
        # at one BLAS thread, as the benchmark runs: with more, OpenBLAS may
        # split the whole-matrix GEMV at a row that is not a multiple of 8,
        # and the reference itself moves in the last bits
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONPATH": path}
        code = ("import json, test_learners; print(json.dumps("
                f"test_learners.blocked_score_mismatches({mushroom_like_path!r})))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        assert json.loads(done.stdout) == []

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_continuous_2d_predictions_equal_whole_kernel(self, kernel):
        # on continuous d >= 2 rows a block's GEMM may round a kernel entry
        # differently, so only the labels are pinned
        model = rl.fit_svm(*overlapping_two_class(33, 150, 2), kernel, cost=0.5)
        x = np.random.default_rng(34).normal(scale=2.0, size=(1100, 2))
        whole = kernel.matrix(x, model.support_x) @ model.dual_coef + model.bias
        assert np.array_equal(model.predict(x), np.where(whole >= 0.0, 1, -1))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_zero_rows_give_an_empty_score(self, kernel):
        model = rl.fit_svm(*overlapping_two_class(35, 30, 3), kernel)
        score = model.score(np.empty((0, 3)))
        assert score.shape == (0,) and score.dtype == np.float64

    def test_mushroom_shaped_score_stays_within_its_memory_budget(self, mushroom_like_path):
        # 4,062 one-hot test rows against 1,300 support vectors: built whole,
        # the kernel is 40 MiB and the score peaked at 44 MiB; in 256-row
        # blocks it peaks at 3.7 MiB
        pair = mushroom_halves(mushroom_like_path)
        rng = np.random.default_rng(36)
        support = pair.train.x[rng.choice(len(pair.train), 1300, replace=False)]
        model = rl.learners.SvmModel("svm-rbf", rl.rbf_kernel(), support,
                                     rng.normal(size=1300), 0.1, 0.0, 0)
        model.score(pair.test.x[:300])  # warm-up
        tracemalloc.start()
        try:
            model.score(pair.test.x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def reference_gaussian_score(model, x):
    """The score that inverted both covariances on every call, kept as a reference."""
    out = np.zeros(x.shape[0])
    for c, sign in ((1, +1.0), (0, -1.0)):
        diff = x - model.means[c]
        inv = np.linalg.inv(model.covariances[c])
        quad = np.einsum("ij,jk,ik->i", diff, inv, diff)
        _, logdet = np.linalg.slogdet(model.covariances[c])
        out += sign * (-0.5 * quad - 0.5 * logdet + model.log_priors[c])
    return out


class TestGaussianScoreBits:
    """GaussianModel.score, with the terms kept from the fit, equals the per-call score."""

    @pytest.mark.parametrize("fit", [rl.fit_lda, rl.fit_qda], ids=["lda", "qda"])
    @pytest.mark.parametrize("seed,n,d", [(21, 40, 1), (22, 200, 2), (23, 500, 5)])
    def test_equals_per_call_inverse(self, fit, seed, n, d):
        samples = overlapping_two_class(seed, n, d)
        probe = np.random.default_rng(seed).normal(scale=2.0, size=(300, d))
        model = fit(*samples)
        assert np.array_equal(model.score(probe), reference_gaussian_score(model, probe))


def batch_fits():
    # named like the fits they wrap, so the test ids stay lda-fit_lda and qda-fit_qda
    def fit_lda(s):
        return rl.fit_lda(*s)

    def fit_qda(s):
        return rl.fit_qda(*s)

    return [
        ("least-squares", lambda s: rl.fit_least_squares(*s, ridge=1e-8)),
        ("lda", fit_lda),
        ("qda", fit_qda),
        ("svm-linear", lambda s: rl.fit_svm(*s, rl.linear_kernel, tol=1e-8)),
        ("svm-rbf", lambda s: rl.fit_svm(*s, rl.rbf_kernel(), tol=1e-8)),
    ]


class TestBatchLearnerIdentities:
    @pytest.mark.parametrize("name,fit", batch_fits())
    def test_weight_replication_identity(self, name, fit):
        rng = np.random.default_rng(8)
        base = random_two_class(rng, 12, 2, weight_range=(1.0, 1.0))
        k = 3
        replicated = take_rows(base, list(range(12)) + [5] * (k - 1))
        reweighted = with_weight(base, 5, float(k))
        probe = rng.normal(size=(40, 2))
        a, b = fit(replicated), fit(reweighted)
        np.testing.assert_allclose(
            np.asarray(a.score(probe)), np.asarray(b.score(probe)),
            atol=1e-6, rtol=1e-6,
        )
        assert np.array_equal(a.predict(probe), b.predict(probe))

    @pytest.mark.parametrize("name,fit", batch_fits())
    def test_kind_names_the_consumer(self, name, fit):
        assert fit(random_two_class(np.random.default_rng(10), 12, 2)).kind == name

    @pytest.mark.parametrize("name,fit", [f for f in batch_fits() if not f[0].startswith("svm")])
    def test_global_weight_scaling_invariance(self, name, fit):
        rng = np.random.default_rng(9)
        x, y, w = random_two_class(rng, 14, 2)
        probe = rng.normal(size=(40, 2))
        assert np.array_equal(fit((x, y, w)).predict(probe), fit((x, y, w * 7.5)).predict(probe))

    def test_svm_weight_scaling_equals_cost_scaling(self):
        # the box is cost * w, so scaling every weight is the same fit as
        # scaling the cost; scale *invariance* cannot hold here without
        # breaking the replication identity
        rng = np.random.default_rng(9)
        x, y, w = random_two_class(rng, 14, 2)
        probe = rng.normal(size=(40, 2))
        a = rl.fit_svm(x, y, w * 7.5, rl.rbf_kernel(), cost=1.0, tol=1e-8)
        b = rl.fit_svm(x, y, w, rl.rbf_kernel(), cost=7.5, tol=1e-8)
        np.testing.assert_allclose(a.score(probe), b.score(probe), atol=1e-6)


class TestErrorMeasures:
    def test_perfect_model_zero_error(self):
        ds = rl.gen_uniform_line(100, seed=21)
        model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.0)
        assert rl.zero_one_error(model, ds) == 0.0

    def test_counting_oracle(self):
        ds = rl.gen_uniform_line(257, seed=22)
        model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.3)
        wrong = sum(
            1 for i in range(len(ds))
            if (1 if ds.x[i, 0] + 0.3 >= 0 else -1) != ds.y[i]
        )
        assert rl.zero_one_error(model, ds) == wrong / len(ds)

    def test_constant_model_error_is_negative_fraction(self, car_like_path):
        ds = rl.load_csv(car_like_path, "class", ("acc",), car_schema())
        pair = rl.split(ds, 0.10, seed=23)
        always_positive = LinearModel("least-squares", theta=np.zeros(ds.dim), bias=1.0)
        err = rl.zero_one_error(always_positive, pair.test)
        assert err == pytest.approx(1 - pair.test.positive_fraction(), abs=1e-12)
        assert 0.65 <= err <= 0.75  # about 70% of rows are negative

    def test_weighted_error_arithmetic(self):
        model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.0)
        samples = columns([
            ([1.0], 1, 4.0),   # correct
            ([-1.0], -1, 3.0),  # correct
            ([1.0], -1, 3.0),   # wrong, weight 3 of 10
        ])
        assert weighted_error(model, *samples) == pytest.approx(0.3, abs=1e-15)

    def test_uniform_weights_match_zero_one(self):
        ds = rl.gen_uniform_line(100, seed=24)
        model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.2)
        weights = np.full(len(ds), 2.5)
        assert weighted_error(model, ds.x, ds.y, weights) == rl.zero_one_error(model, ds)

    def test_empty_inputs_rejected(self):
        model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.0)
        with pytest.raises(InvalidArgumentError):
            weighted_error(model, np.empty((0, 1)), np.empty(0), np.empty(0))

    @pytest.mark.parametrize("fit", [rl.fit_least_squares, rl.fit_svm, rl.fit_online_linear])
    def test_bad_weights_and_shapes_rejected(self, fit):
        x, y = np.array([[-1.0], [1.0]]), np.array([-1, 1])
        for w in (np.array([1.0, 0.0]), np.array([1.0, -2.0]), np.ones(3)):
            with pytest.raises(InvalidArgumentError):
                fit(x, y, w)
        with pytest.raises(InvalidArgumentError):
            fit(x, y[:1], np.ones(2))

    def test_tie_goes_to_positive(self):
        model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.0)
        assert np.array_equal(model.predict(np.array([[0.0]])), [1])

