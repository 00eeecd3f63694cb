"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they complete. Every tolerance is pinned here; the configurations (c0
values, matched cell sizes, seeds) were calibrated once and frozen, and the
whole suite is deterministic.
"""

import json
import math

import numpy as np
import pytest

import reuselab as rl
from reuselab.cli import main
from reuselab.experiments import ConsumerSpec, ExperimentConfig, run_experiment
from reuselab.learners import LinearModel
from reuselab.seeding import derive_seed
from reuselab.selection import trace_columns
from reuselab.standins import car_schema

from dual_oracle import svm_dual_optimum
from estimates import weighted_error

JOBS = 4


def verdict(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def combined_sem(a, b):
    return math.hypot(a, b)


def columns(rows):
    """(x, y, w) arrays from (features, label, weight) rows."""
    x, y, w = zip(*rows)
    return np.array(x, dtype=np.float64), np.array(y), np.array(w, dtype=np.float64)


# ---------------------------------------------------------------------------
# 1 + 2: circle dataset, QDA consumer, linear-hypothesis IWAL selector


def circle_config(total, test_prop, n_match, reps=120):
    return ExperimentConfig(
        dataset=rl.DatasetSpec(kind="circle", n=total, circle_prob=0.001),
        test_prop=test_prop,
        repetitions=reps,
        strategies=("random", "iwal"),
        consumers=(ConsumerSpec("qda"),),
        n_grid=(n_match,),
        c0_grid=(0.01,),
        gk_mode="exact-erm",
        erm_grid_resolution=64,
        base_seed=20120705,
    )


@pytest.fixture(scope="module")
def circle_1000():
    # 1000 unlabelled training examples, 1000 held out
    return run_experiment(circle_config(2000, 0.5, n_match=113), jobs=JOBS)


def test_criterion_1_circle_direction(circle_1000):
    points = {p.strategy: p for p in circle_1000.curve}
    iwal, random = points["iwal"], points["random"]
    sem = combined_sem(iwal.std_of_mean, random.std_of_mean)
    matched = abs(iwal.x_position - random.x_position) <= 0.10 * random.x_position
    separated = iwal.mean_err - random.mean_err >= 2 * sem
    in_band = 0.01 <= random.mean_err <= 0.08 and 0.01 <= iwal.mean_err <= 0.08
    verdict(
        1, matched and separated and in_band,
        f"iwal {iwal.mean_err:.4f}+-{iwal.std_of_mean:.4f} > "
        f"random {random.mean_err:.4f}+-{random.std_of_mean:.4f} at "
        f"median {iwal.x_position:.0f} vs n={random.x_position:.0f} "
        f"(gap/sem={(iwal.mean_err - random.mean_err) / sem:.1f})",
    )


def test_criterion_2_circle_small_pool_null():
    # 50 unlabelled training examples, 1000 held out, same c0 and protocol
    res = run_experiment(circle_config(1050, 1000 / 1050, n_match=21), jobs=JOBS)
    points = {p.strategy: p for p in res.curve}
    iwal, random = points["iwal"], points["random"]
    sem = combined_sem(iwal.std_of_mean, random.std_of_mean)
    not_separated = abs(iwal.mean_err - random.mean_err) < 2 * sem
    verdict(
        2, not_separated,
        f"iwal {iwal.mean_err:.4f}+-{iwal.std_of_mean:.4f} vs "
        f"random {random.mean_err:.4f}+-{random.std_of_mean:.4f} "
        f"(|gap|/sem={abs(iwal.mean_err - random.mean_err) / sem:.1f} < 2)",
    )


# ---------------------------------------------------------------------------
# 3: four-cluster line, RBF-SVM consumer, linear IWAL selector


def test_criterion_3_reusability_failure():
    config = ExperimentConfig(
        dataset=rl.DatasetSpec(kind="four-cluster-line", n=2000),
        test_prop=0.5,
        repetitions=100,
        strategies=("random", "iwal"),
        consumers=(ConsumerSpec("svm-rbf"),),
        n_grid=(67, 95, 1000),
        c0_grid=(0.01, 0.02, 1e6),
        gk_mode="exact-erm",
        erm_grid_resolution=64,
        base_seed=42,
    )
    res = run_experiment(config, jobs=JOBS)
    rows = {r.cell: r for r in res.report}
    small, mid, largest = rows["c0=0.01"], rows["c0=0.02"], rows["c0=1000000.0"]
    separated = small.welch_t >= 2 and small.delta > 0 and mid.welch_t >= 2 and mid.delta > 0
    shrinks = largest.delta < min(small.delta, mid.delta)
    verdict(
        3, separated and shrinks,
        f"small gap {small.delta:+.4f} (t={small.welch_t:.1f}), "
        f"mid {mid.delta:+.4f} (t={mid.welch_t:.1f}), "
        f"largest {largest.delta:+.4f} at n={largest.matched_n}",
    )


# ---------------------------------------------------------------------------
# 4: density of the selected examples on the uniform line


def test_criterion_4_density():
    c0_sweep = (1.0, 3.0, 10.0)
    rows = rl.density_histogram(
        rl.DatasetSpec(kind="uniform-line", n=1000),
        c0_list=c0_sweep, runs=1000, bins=10, base_seed=7,
    )
    by_c0 = {c0: [r for r in rows if r.c0 == c0] for c0 in c0_sweep}
    smallest = by_c0[min(c0_sweep)]
    unw = [r.unweighted_mass for r in smallest]
    central, edge = unw[4] + unw[5], unw[0] + unw[9]
    peaked = central > 2 * edge
    max_rel_dev = max(
        abs(r.weighted_mass - 0.1) / 0.1 for c0 in c0_sweep for r in by_c0[c0]
    )
    corrected = max_rel_dev < 0.10
    verdict(
        4, peaked and corrected,
        f"central/edge={central / edge:.1f} (>2) at c0={min(c0_sweep)}, "
        f"max weighted decile deviation {max_rel_dev * 100:.1f}% (<10%)",
    )


# ---------------------------------------------------------------------------
# 5: the importance-weighted error is an unbiased estimate


def test_criterion_5_unbiasedness():
    pool = rl.gen_uniform_line(4000, seed=404)
    model = LinearModel("least-squares", theta=np.array([1.0]), bias=0.15)
    truth = rl.zero_one_error(model, pool)
    configs = [rl.IwalConfig(c0=3.0, seed=derive_seed(505, r)) for r in range(1000)]
    # 50 passes at a time as lanes, each equal to its solo pass bit for bit
    selections = (
        sel for start in range(0, len(configs), 50)
        for sel in rl.select_iwal([pool] * 50, configs[start:start + 50])
    )
    vals = np.array([
        weighted_error(model, pool.x[sel.indices], pool.y[sel.indices], sel.weights)
        for sel in selections
    ])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    ok = abs(vals.mean() - truth) <= 4 * se
    verdict(
        5, ok,
        f"pool error {truth:.5f}, mc mean {vals.mean():.5f} "
        f"(|bias|/se={abs(vals.mean() - truth) / se:.2f} <= 4 over 1000 passes)",
    )


# ---------------------------------------------------------------------------
# 6: the probability formula and trace bookkeeping


def test_criterion_6_formula_and_trace_invariants():
    triples = [
        (0.5, 2, 0.1), (0.5, 10, 0.1), (1.0, 2, 1.0), (1.0, 101, 0.01),
        (2.0, 5, 0.5), (0.1, 3, 0.001), (3.0, 1000, 2.0), (0.25, 50, 0.05),
        (4.0, 7, 10.0), (1.5, 20, 0.2), (0.75, 200, 0.9), (5.0, 12, 0.3),
        (0.01, 2, 1e-6), (10.0, 10**6, 100.0), (0.33, 33, 0.033),
        (2.5, 4, 0.25), (0.9, 9, 0.09), (7.0, 70, 7.0), (0.6, 600, 0.006),
        (1.2, 12000, 1.2),
    ]
    formula_ok = all(
        abs(
            rl.selection_probability(g, k, c0)
            - min(1.0, (1.0 / g**2 + 1.0 / g) * c0 * math.log(k) / (k - 1))
        ) <= 1e-12
        for g, k, c0 in triples
    )

    trace_ok = True
    for seed in range(5):
        train = rl.gen_uniform_line(400, seed=derive_seed(606, seed))
        res = rl.select_iwal(train, rl.IwalConfig(c0=0.7, seed=derive_seed(607, seed)))
        cols = trace_columns(res)
        for p, selected, w in zip(cols["probability"], cols["selected"], cols["weight"]):
            trace_ok &= 0.0 < p <= 1.0
            if selected:
                trace_ok &= w == 1.0 / p
                trace_ok &= abs(w * p - 1.0) <= 1e-12

    lo, hi = [], []
    for s in range(200):
        train = rl.gen_uniform_line(1000, seed=derive_seed(608, s))
        lo.append(rl.select_iwal(train, rl.IwalConfig(c0=1e-5, seed=derive_seed(609, s))).selected_count)
        hi.append(rl.select_iwal(train, rl.IwalConfig(c0=1e-3, seed=derive_seed(609, s))).selected_count)
    monotone = np.mean(hi) >= np.mean(lo)

    verdict(
        6, formula_ok and trace_ok and monotone,
        f"20 triples at 1e-12, trace rows exact, mean count "
        f"{np.mean(hi):.2f} (c0=1e-3) >= {np.mean(lo):.2f} (c0=1e-5) over 200 seeds",
    )


# ---------------------------------------------------------------------------
# 7: learner oracles


def test_criterion_7_learner_oracles():
    rng = np.random.default_rng(777)

    # weighted least squares vs a normal-equation oracle (1e-8)
    x, y, w = columns([
        (rng.normal(size=2), 1 if rng.random() < 0.5 else -1, rng.uniform(1, 4))
        for _ in range(5)
    ])
    model = rl.fit_least_squares(x, y, w)
    xa = np.column_stack([x, np.ones(len(x))])
    sw = np.sqrt(w / w.sum())
    oracle = np.linalg.lstsq(xa * sw[:, None], y * sw, rcond=None)[0]
    ls_ok = np.allclose(np.append(model.theta, model.bias), oracle, atol=1e-8)

    # weighted class moments vs a plain-loop oracle (1e-10)
    x, y, w = columns([
        (rng.normal(size=2) + (2 if i % 2 else -2), 1 if i % 2 else -1, rng.uniform(0.5, 3))
        for i in range(12)
    ])
    qda = rl.fit_qda(x, y, w)
    moments_ok = True
    total = sum(w)
    for idx, cls in ((0, -1), (1, 1)):
        group = [i for i in range(len(y)) if y[i] == cls]
        wsum = sum(w[i] for i in group)
        mean = sum(w[i] * x[i] for i in group) / wsum
        cov = sum(w[i] * np.outer(x[i] - mean, x[i] - mean) for i in group) / wsum
        moments_ok &= np.allclose(qda.means[idx], mean, atol=1e-10)
        moments_ok &= np.allclose(qda.covariances[idx], cov, atol=1e-10)
        moments_ok &= abs(math.exp(qda.log_priors[idx]) - wsum / total) <= 1e-10

    # SVM dual objective vs an exact face-enumeration oracle (1e-4)
    x, y, w = columns([
        (rng.normal(size=2), 1 if i % 2 else -1, rng.uniform(1, 3))
        for i in range(8)
    ])
    svm = rl.fit_svm(x, y, w, rl.linear_kernel, cost=1.0, tol=1e-6)
    qp_obj = svm_dual_optimum(np.outer(y, y) * rl.linear_kernel.matrix(x, x), w, y)
    svm_ok = abs(svm.dual_objective - qp_obj) <= 1e-4

    # weight replication on a probe grid (1e-6) for every batch learner
    x, y, w = columns([
        (rng.normal(size=2), 1 if i % 2 else -1, 1.0)
        for i in range(12)
    ])
    k_rep = 3
    rep = list(range(12)) + [4] * (k_rep - 1)
    reweighted = w.copy()
    reweighted[4] = float(k_rep)
    probe = rng.normal(size=(40, 2))
    fits = [
        lambda *s: rl.fit_least_squares(*s, ridge=1e-8),
        rl.fit_lda,
        rl.fit_qda,
        lambda *s: rl.fit_svm(*s, rl.linear_kernel, tol=1e-8),
        lambda *s: rl.fit_svm(*s, rl.rbf_kernel(), tol=1e-8),
    ]
    replication_ok = all(
        np.allclose(
            np.asarray(fit(x[rep], y[rep], w[rep]).score(probe)),
            np.asarray(fit(x, y, reweighted).score(probe)),
            atol=1e-6, rtol=1e-6,
        )
        for fit in fits
    )

    verdict(
        7, ls_ok and moments_ok and svm_ok and replication_ok,
        "least-squares 1e-8, moments 1e-10, svm dual vs exact "
        f"{abs(svm.dual_objective - qp_obj):.2e} (<=1e-4), replication 1e-6",
    )


# ---------------------------------------------------------------------------
# 8: every strategy converges to the same endpoint on the car-shaped data


def test_criterion_8_endpoint_convergence(car_like_path):
    config = ExperimentConfig(
        dataset=rl.DatasetSpec(
            kind="csv", path=car_like_path, label_column="class",
            positive_values=("acc",), schema=car_schema(),
        ),
        test_prop=0.10,
        repetitions=15,
        strategies=("random", "uncertainty", "iwal", "iwal-no-weights"),
        consumers=(ConsumerSpec("least-squares"), ConsumerSpec("svm-linear")),
        n_grid=(1555,),
        c0_grid=(1e9,),
        base_seed=8,
    )
    res = run_experiment(config, jobs=JOBS)
    ok = True
    details = []
    for consumer in ("least-squares", "svm-linear"):
        points = [p for p in res.curve if p.consumer == consumer]
        assert all(p.x_position == 1555.0 for p in points)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                gap = abs(points[i].mean_err - points[j].mean_err)
                sem = combined_sem(points[i].std_of_mean, points[j].std_of_mean)
                ok &= gap <= 2 * sem
        spread = max(p.mean_err for p in points) - min(p.mean_err for p in points)
        details.append(f"{consumer} spread {spread:.2e}")
    verdict(8, ok, "all strategies at n=1555 agree (" + ", ".join(details) + ")")


# ---------------------------------------------------------------------------
# 9: byte-identical reruns and verified traces through the CLI


def test_criterion_9_cli_determinism(tmp_path, capsys):
    config = {
        "dataset": {"kind": "uniform-line", "n": 300},
        "test_prop": 0.3,
        "repetitions": 3,
        "strategies": ["random", "uncertainty", "iwal", "iwal-no-weights"],
        "consumers": [{"kind": "least-squares"}],
        "n_grid": [20, 100],
        "c0_grid": [1.0],
        "base_seed": 5,
        "save_traces": True,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out1), "--jobs", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(out8), "--jobs", "8"]) == 0
    capsys.readouterr()

    identical = (
        (out1 / "curve.csv").read_bytes() == (out8 / "curve.csv").read_bytes()
        and (out1 / "report.csv").read_bytes() == (out8 / "report.csv").read_bytes()
    )
    traces1 = sorted(p.name for p in (out1 / "traces").iterdir())
    traces8 = sorted(p.name for p in (out8 / "traces").iterdir())
    identical &= traces1 == traces8
    identical &= all(
        (out1 / "traces" / name).read_bytes() == (out8 / "traces" / name).read_bytes()
        for name in traces1
    )

    replays_ok = True
    for name in traces1:
        code = main(["replay", str(out1 / "traces" / name)])
        replays_ok &= code == 0
    capsys.readouterr()
    verdict(
        9, identical and replays_ok,
        f"jobs 1 vs 8 byte-identical, {len(traces1)} traces replayed ok",
    )
