import hashlib
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
from reuselab import experiments
from reuselab.datasets import resolve_spec
from reuselab.errors import DegenerateGridError, InvalidArgumentError
from reuselab.experiments import (
    EMPTY_CELL,
    ConsumerSpec,
    CurvePoint,
    ExperimentConfig,
    _run_repetition,
    aggregate,
    build_report,
    default_n_grid,
    density_histogram,
    replay_trace,
    run_experiment,
)
from reuselab.seeding import ROLE_POOL, ROLE_SELECTION, derive_seed
from reuselab.selection import load_trace


def line_config(**overrides):
    base = dict(
        dataset=rl.DatasetSpec(kind="uniform-line", n=200),
        test_prop=0.25,
        repetitions=4,
        strategies=("random", "iwal"),
        consumers=(ConsumerSpec("least-squares"),),
        n_grid=(10, 50),
        c0_grid=(1.0,),
        base_seed=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def report_t(mean_al, sem_al, mean_rd, sem_rd, reps=100):
    """The Welch t of an IWAL cell against its random match in ``build_report``."""
    points = [
        CurvePoint("random", "lda", "n=10", 10.0, mean_rd, sem_rd, reps, 0),
        CurvePoint("iwal", "lda", "c0=1.0", 10.0, mean_al, sem_al, reps, 0),
    ]
    (row,) = build_report(points)
    return row.welch_t


class TestWelchT:
    def test_equal_means_give_zero(self):
        assert report_t(0.5, 0.01, 0.5, 0.02) == 0.0

    def test_antisymmetric(self):
        t1 = report_t(0.6, 0.01, 0.5, 0.02)
        t2 = report_t(0.5, 0.02, 0.6, 0.01)
        assert t1 == -t2

    def test_circle_benchmark_summaries_are_strongly_separated(self):
        # plug-in arithmetic on a reference pair of mean/sem summaries
        # (0.03725 +- 0.00131 vs 0.02339 +- 0.00049 at 100 repetitions)
        t = report_t(0.03725, 0.00131, 0.02339, 0.00049)
        assert abs(t) > 9

    @pytest.mark.parametrize("mean_al,want", [(0.3, math.inf), (0.1, -math.inf), (0.2, 0.0)])
    def test_report_maps_zero_combined_sem_to_zero_or_inf(self, mean_al, want):
        points = [
            CurvePoint("random", "lda", "n=10", 10.0, 0.2, 0.0, 30, 0),
            CurvePoint("iwal", "lda", "c0=1.0", 10.0, mean_al, 0.0, 30, 0),
        ]
        (row,) = build_report(points)
        assert row.welch_t == want
        assert row.verdict == ("inconclusive" if want == 0.0 else
                               "reusable" if want < 0 else "not-reusable")

    def test_report_t_matches_welch_t(self):
        t = report_t(0.03725, 0.00131, 0.02339, 0.00049)
        assert t == (0.03725 - 0.02339) / math.hypot(0.00131, 0.00049)


class TestRunExperiment:
    def test_degenerate_single_cell(self):
        config = line_config(strategies=("random",), n_grid=(150,), c0_grid=())
        res = run_experiment(config)
        assert len(res.curve) == 1
        p = res.curve[0]
        assert p.reps_used == 4 and p.x_position == 150.0
        assert res.n_train == 150

    def test_row_count_is_cells_times_consumers(self):
        config = line_config(consumers=(ConsumerSpec("least-squares"), ConsumerSpec("lda")))
        res = run_experiment(config)
        # cells: two random n's + one iwal c0
        assert len(res.curve) == 3 * 2

    def test_deterministic_across_reruns_and_jobs(self):
        config = line_config()
        a = run_experiment(config, jobs=1)
        b = run_experiment(config, jobs=1)
        c = run_experiment(config, jobs=2)
        assert a.curve == b.curve == c.curve
        assert a.report == c.report

    @pytest.mark.parametrize("jobs, repetitions, pools", [(8, 3, [3]), (2, 4, [2]), (8, 1, [])])
    def test_pool_has_at_most_one_worker_per_repetition(self, monkeypatch, jobs, repetitions,
                                                        pools):
        import concurrent.futures

        built = []

        class RecordingExecutor:  # runs the repetitions in this process
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        config = line_config(repetitions=repetitions)
        got, want = run_experiment(config, jobs=jobs), run_experiment(config)
        assert built == pools
        assert (got.curve, got.report) == (want.curve, want.report)

    def test_matched_seed_pairing_via_trace_headers(self, tmp_path):
        config = line_config(save_traces=True, repetitions=2)
        res = run_experiment(config)
        by_rep = {}
        for fname, text in res.traces:
            (tmp_path / fname).write_text(text)
            header, _ = load_trace(tmp_path / fname)
            rep = fname.rsplit("_r", 1)[1].split(".")[0]
            by_rep.setdefault(rep, []).append(header)
        for rep, headers in by_rep.items():
            splits = {json.dumps(h["split"], sort_keys=True) for h in headers}
            pools = {json.dumps(h["dataset"], sort_keys=True) for h in headers}
            assert len(splits) == 1  # every strategy consumed the same split
            assert len(pools) == 1

    def test_traces_replayable_from_headers(self, tmp_path):
        config = line_config(save_traces=True, repetitions=1)
        res = run_experiment(config)
        assert res.traces
        for fname, text in res.traces:
            (tmp_path / fname).write_text(text)
            assert replay_trace(tmp_path / fname).ok

    def test_aggregation_permutation_invariant(self):
        config = line_config(repetitions=5)
        outcomes = [_run_repetition(config, r) for r in range(5)]
        forward = aggregate(config, outcomes, n_train=150)
        backward = aggregate(config, list(reversed(outcomes)), n_train=150)
        assert forward.curve == backward.curve

    def test_empty_cells_reported_not_crashed(self, tmp_path):
        # a duplicated numeric column keeps LDA permanently singular
        path = tmp_path / "flat.csv"
        rows = ["a,b,label"] + [f"{v},{2*v},{'y' if v % 2 else 'n'}" for v in range(40)]
        path.write_text("\n".join(rows) + "\n")
        config = ExperimentConfig(
            dataset=rl.DatasetSpec(
                kind="csv", path=str(path), label_column="label",
                positive_values=("y",), schema={"a": "numeric", "b": "numeric"},
            ),
            test_prop=0.25, repetitions=3,
            strategies=("random", "iwal"),
            consumers=(ConsumerSpec("lda"),),
            n_grid=(20,), c0_grid=(1.0,), base_seed=7,
        )
        res = run_experiment(config)
        assert all(p.reps_used == 0 and p.reps_dropped == 3 for p in res.curve)
        assert all(row.verdict == EMPTY_CELL for row in res.report)

    @staticmethod
    def degenerate_at(monkeypatch, reps):
        """Make the IWAL pass of each repetition in ``reps`` raise DegenerateGridError."""
        real = experiments.select_iwal
        seeds = {derive_seed(100, r, ROLE_SELECTION, 0) for r in reps}

        def select_iwal(train, cfg, *args, **kwargs):
            if cfg.seed in seeds:
                raise DegenerateGridError("no grid hypothesis disagrees on the candidate")
            return real(train, cfg, *args, **kwargs)

        monkeypatch.setattr(experiments, "select_iwal", select_iwal)

    def test_degenerate_iwal_pass_drops_only_its_cells(self, monkeypatch):
        config = line_config(
            strategies=("random", "uncertainty", "iwal", "iwal-no-weights"),
            consumers=(ConsumerSpec("least-squares"), ConsumerSpec("lda")),
            save_traces=True,
        )
        clean = run_experiment(config)
        self.degenerate_at(monkeypatch, {1})
        iwal_seeds, ranker_fits = [], []
        select_iwal, fit_online_linear = experiments.select_iwal, experiments.fit_online_linear

        def counted_select_iwal(train, cfg):
            iwal_seeds.append(cfg.seed)
            return select_iwal(train, cfg)

        def counted_fit_online_linear(*args, **kwargs):
            ranker_fits.append(1)
            return fit_online_linear(*args, **kwargs)

        monkeypatch.setattr(experiments, "select_iwal", counted_select_iwal)
        monkeypatch.setattr(experiments, "fit_online_linear", counted_fit_online_linear)
        res = run_experiment(config)
        # one pass per (repetition, c0) serves both IWAL strategies, also when it raises
        assert sorted(iwal_seeds) == sorted(
            derive_seed(100, r, ROLE_SELECTION, 0) for r in range(config.repetitions))
        assert len(ranker_fits) == config.repetitions
        assert len(res.curve) == len(clean.curve)
        for got, want in zip(res.curve, clean.curve):
            assert got.reps_used + got.reps_dropped == config.repetitions
            if got.strategy in ("random", "uncertainty"):
                assert got == want
            else:
                assert got.reps_dropped == want.reps_dropped + 1
        names = {fname for fname, _ in res.traces}
        assert names == {fname for fname, _ in clean.traces} - {
            "trace_iwal_c0_1.0_r0001.csv", "trace_iwal-no-weights_c0_1.0_r0001.csv",
        }

    def test_all_degenerate_iwal_passes_leave_an_empty_cell(self, monkeypatch):
        config = line_config(strategies=("random", "iwal", "iwal-no-weights"))
        self.degenerate_at(monkeypatch, range(config.repetitions))
        res = run_experiment(config)
        dropped = [p for p in res.curve if p.strategy != "random"]
        assert [(p.strategy, p.cell) for p in dropped] == [
            ("iwal", "c0=1.0"), ("iwal-no-weights", "c0=1.0"),
        ]
        assert all(p.reps_used == 0 and p.reps_dropped == 4 for p in dropped)
        assert all(math.isnan(p.x_position) for p in dropped)
        assert [row.verdict for row in res.report] == [EMPTY_CELL, EMPTY_CELL]

    def test_default_n_grid_is_log_spaced(self):
        grid = default_n_grid(1000)
        assert grid[0] == 10 and grid[-1] == 1000 and len(grid) == 10
        assert list(grid) == sorted(grid)

    def test_n_grid_must_fit_pool(self):
        config = line_config(n_grid=(151,))
        with pytest.raises(InvalidArgumentError):
            run_experiment(config)

    def test_self_selection_is_not_worse_than_random(self):
        config = ExperimentConfig(
            dataset=rl.DatasetSpec(kind="uniform-line", n=2000),
            test_prop=0.5, repetitions=60,
            strategies=("random", "iwal"),
            consumers=(ConsumerSpec("online-linear"),),
            n_grid=(124,), c0_grid=(1.0,), base_seed=17,
        )
        res = run_experiment(config, jobs=4)
        row = res.report[0]
        combined = math.hypot(
            *[p.std_of_mean for p in res.curve]
        )
        assert row.mean_err_al <= row.mean_err_rd + 2 * combined

    def test_verdict_requires_enough_surviving_reps(self):
        config = line_config(repetitions=5)
        res = run_experiment(config)
        assert all(r.verdict in ("inconclusive", EMPTY_CELL) for r in res.report)

    def test_runs_end_to_end_on_benchmark_tables(self, car_like_path, mushroom_like_path):
        from reuselab.standins import car_schema, mushroom_schema

        for path, label, positive, schema, prop in (
            (car_like_path, "class", ("acc",), car_schema(), 0.10),
            (mushroom_like_path, "class", ("e",), mushroom_schema(), 0.20),
        ):
            config = ExperimentConfig(
                dataset=rl.DatasetSpec(
                    kind="csv", path=path, label_column=label,
                    positive_values=positive, schema=schema,
                ),
                test_prop=prop, repetitions=2,
                strategies=("random", "uncertainty", "iwal", "iwal-no-weights"),
                consumers=(ConsumerSpec("least-squares"),),
                n_grid=(50, 400), c0_grid=(1.0,), base_seed=23,
            )
            res = run_experiment(config, jobs=2)
            assert all(np.isfinite(p.mean_err) for p in res.curve)
            assert len(res.report) == 4  # 2 uncertainty cells + iwal + no-weights


    def test_csv_pool_lives_for_one_run(self, tmp_path):
        def write(path, n):
            rows = [f"{v * 0.37 % 5!r},{'ab'[v % 2]},{'y' if v % 3 else 'n'}" for v in range(n)]
            path.write_text("\n".join(["x,c,label", *rows]) + "\n")

        def run(path):
            spec = rl.DatasetSpec(kind="csv", path=str(path), label_column="label",
                                  positive_values=("y",), schema={"x": "numeric", "c": "categorical"})
            return run_experiment(line_config(dataset=spec, repetitions=2))

        path, fresh = tmp_path / "pool.csv", tmp_path / "fresh.csv"
        write(path, 120)
        first = run(path)
        write(path, 160)
        write(fresh, 160)
        second, expected = run(path), run(fresh)
        assert (first.n_train, second.n_train) == (90, 120)
        assert repr((second.curve, second.report)) == repr((expected.curve, expected.report))


ROOT = Path(__file__).resolve().parents[1]
# sha256 of the stdout of demos/02_density_of_selection.py: 150 surrogate runs
# at two c0 values, so every pass goes through the lanes form of select_iwal
DENSITY_DEMO_SHA256 = "a88a53ebfe36b4543754346e1348de8d4cb69e7b72fa0fac56fb650ae890f486"
DENSITY_C0S = (0.5, 2.0, 8.0)
# density_histogram's arguments in the first seed-1 batch of perfbench's
# line-density workload
LINE_DENSITY_BATCH = (rl.DatasetSpec(kind="uniform-line", n=1000), (1.0, 3.0, 10.0), 40, 10,
                      1000)
# the most runs density_histogram gives one lanes call at three c0 values
GROUP_RUNS = experiments._DENSITY_LANES // len(DENSITY_C0S)


def solo_density_rows(spec, c0_list, runs, bins, base_seed, **knobs):
    """``density_histogram``'s rows from one solo pass per run and c0, in that order."""
    edges = np.linspace(*experiments._SUPPORT[spec.kind], bins + 1)
    raw, weighted = np.zeros((len(c0_list), bins)), np.zeros((len(c0_list), bins))
    for r in range(runs):
        pool = rl.make_dataset(resolve_spec(spec, derive_seed(base_seed, r, ROLE_POOL)))
        for ci, c0 in enumerate(c0_list):
            config = rl.IwalConfig(c0=c0, seed=derive_seed(base_seed, r, ROLE_SELECTION, ci),
                                   **knobs)
            sel = rl.select_iwal(pool, config)
            xs = pool.x[sel.indices, 0]
            raw[ci] += np.histogram(xs, bins=edges)[0]
            weighted[ci] += np.histogram(xs, bins=edges, weights=sel.weights)[0]
    return [
        experiments.DensityRow(float(c0), b, float(edges[b]), float(edges[b + 1]),
                               float(raw[ci, b] / raw[ci].sum()),
                               float(weighted[ci, b] / weighted[ci].sum()))
        for ci, c0 in enumerate(c0_list) for b in range(bins)
    ]


class TestDensityHistogram:
    def test_always_select_regime_is_uniform(self):
        runs, n, bins = 60, 400, 10
        rows = density_histogram(
            rl.DatasetSpec(kind="uniform-line", n=n),
            c0_list=(1e9,), runs=runs, bins=bins, base_seed=9,
        )
        total = runs * n
        for row in rows:
            assert row.unweighted_mass == pytest.approx(row.weighted_mass, abs=1e-12)
            # binomial band: each draw lands in a decile with p = 1/bins
            sigma = math.sqrt((1 / bins) * (1 - 1 / bins) / total)
            assert abs(row.unweighted_mass - 1 / bins) < 5 * sigma

    def test_small_c0_prefers_the_boundary(self):
        rows = density_histogram(
            rl.DatasetSpec(kind="uniform-line", n=500),
            c0_list=(0.5,), runs=120, bins=10, base_seed=10,
        )
        unw = [r.unweighted_mass for r in rows]
        assert unw[4] + unw[5] > unw[0] + unw[9]

    def test_degenerate_pass_skips_only_its_run_and_c0(self, monkeypatch):
        spec = rl.DatasetSpec(kind="uniform-line", n=200)
        c0s = (0.5, 2.0)
        # only an exact-ERM pass can be degenerate; it runs solo
        clean = density_histogram(spec, c0_list=c0s, runs=6, bins=5, base_seed=12,
                                  gk_mode="exact-erm")
        real = experiments.select_iwal
        bad_seed = derive_seed(12, 3, ROLE_SELECTION, 0)

        def select_iwal(train, cfg):
            if cfg.seed == bad_seed:
                raise DegenerateGridError("no grid hypothesis disagrees on the candidate")
            return real(train, cfg)

        monkeypatch.setattr(experiments, "select_iwal", select_iwal)
        rows = density_histogram(spec, c0_list=c0s, runs=6, bins=5, base_seed=12,
                                 gk_mode="exact-erm")
        by_c0 = {c0: [r for r in rows if r.c0 == c0] for c0 in c0s}
        clean_by_c0 = {c0: [r for r in clean if r.c0 == c0] for c0 in c0s}
        assert by_c0[2.0] == clean_by_c0[2.0]
        assert by_c0[0.5] != clean_by_c0[0.5]
        for c0 in c0s:
            assert sum(r.unweighted_mass for r in by_c0[c0]) == pytest.approx(1.0)
            assert sum(r.weighted_mass for r in by_c0[c0]) == pytest.approx(1.0)

    def test_grid_beyond_the_budget_is_refused(self):
        with pytest.raises(InvalidArgumentError,
                           match="erm_grid_resolution 10000000 needs more than 64 MiB"):
            density_histogram(rl.DatasetSpec(kind="uniform-line", n=200), c0_list=(1.0,),
                              runs=1, bins=5, gk_mode="exact-erm", erm_grid_resolution=10**7)

    @pytest.mark.parametrize("kind, knobs", [
        ("uniform-line", {}),
        ("four-cluster-line", {"log_base": 2, "selector_eta0": 0.1}),
    ])
    @pytest.mark.parametrize("runs", [1, GROUP_RUNS, GROUP_RUNS + 1])
    def test_rows_equal_rows_from_solo_passes(self, kind, knobs, runs):
        spec = rl.DatasetSpec(kind=kind, n=150)
        rows = density_histogram(spec, c0_list=DENSITY_C0S, runs=runs, bins=6, base_seed=13,
                                 **knobs)
        assert rows == solo_density_rows(spec, DENSITY_C0S, runs, 6, 13, **knobs)

    def test_density_demo_prints_its_pinned_text(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, str(ROOT / "demos" / "02_density_of_selection.py")],
                              capture_output=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        assert hashlib.sha256(done.stdout).hexdigest() == DENSITY_DEMO_SHA256

    def test_line_density_bench_batch_keeps_its_pinned_hash(self):
        # the first seed-1 batch of perfbench's line-density workload, its rows
        # formatted as that workload formats them
        rows = density_histogram(*LINE_DENSITY_BATCH)
        text = "".join(f"{r.c0!r},{r.bin},{r.lo!r},{r.hi!r},{r.unweighted_mass!r},"
                       f"{r.weighted_mass!r}\n" for r in rows)
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["line-density"]
        assert hashlib.sha256(text.encode()).hexdigest() == expected["density_rows"]

    def test_line_density_batch_stays_within_its_memory_budget(self):
        # traced peaks of this batch: 1.25 MiB in lanes groups of 40, 1.78 MiB
        # in groups of 60 and 3.53 MiB in one group of 120, so doubling the
        # group size or the per-lane state breaks the budget
        density_histogram(*LINE_DENSITY_BATCH)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            density_histogram(*LINE_DENSITY_BATCH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("arguments, match", [
        ({"c0_list": 1.0}, "c0_list must be a list or tuple"),
        ({"c0_list": (1.0, 2.0, 1.0)}, "c0_list entries must be distinct"),
        ({"c0_list": (1, 1.0)}, "c0_list entries must be distinct"),
        ({"c0_list": (1.0, 0.0)}, "c0_list entries must be positive numbers"),
        ({"c0": 2.0}, "sets c0 per pass"),
        ({"seed": 3}, "sets seed per pass"),
        ({"bogus": 1}, "unknown IWAL knob 'bogus'"),
    ])
    def test_names_the_bad_argument(self, monkeypatch, arguments, match):
        def no_pool(spec):
            raise AssertionError("a pool was drawn for a call with a bad argument")

        monkeypatch.setattr(experiments, "make_dataset", no_pool)
        with pytest.raises(InvalidArgumentError, match=match):
            density_histogram(rl.DatasetSpec(kind="uniform-line", n=50),
                              **{"c0_list": (1.0,), "runs": 2, "bins": 4, **arguments})

    @pytest.mark.parametrize("runs, bins", [
        (2.5, 4), (2, 2.5), (True, 4), (2, True), (0, 4), (2, 0), ("2", 4),
    ])
    def test_rejects_non_integer_runs_and_bins(self, runs, bins):
        with pytest.raises(InvalidArgumentError, match="runs >= 1 and bins >= 1"):
            density_histogram(
                rl.DatasetSpec(kind="uniform-line", n=50), c0_list=(1.0,), runs=runs, bins=bins
            )

    def test_draws_one_pool_per_run(self, monkeypatch):
        real, specs = experiments.make_dataset, []

        def make_dataset(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(experiments, "make_dataset", make_dataset)
        density_histogram(rl.DatasetSpec(kind="uniform-line", n=50), c0_list=(1.0,), runs=3,
                          bins=4, base_seed=7)
        assert [s.seed for s in specs] == [derive_seed(7, r, ROLE_POOL) for r in range(3)]

    def test_rejects_non_1d_specs(self, monkeypatch):
        def no_pool(spec):
            raise AssertionError("a pool was drawn for a kind without a density support")

        monkeypatch.setattr(experiments, "make_dataset", no_pool)
        with pytest.raises(InvalidArgumentError):
            density_histogram(
                rl.DatasetSpec(kind="circle", n=100), c0_list=(1.0,), runs=2, bins=4
            )
        with pytest.raises(InvalidArgumentError):
            density_histogram(
                rl.DatasetSpec(kind="csv", path="x.csv"), c0_list=(1.0,), runs=2, bins=4
            )


def edited_traces(text, rng):
    """The trace ``text`` and 15 edits of it, by name."""
    header_line, columns, *rows = text.splitlines()
    tag, _, header = header_line.partition("{")
    header = json.loads("{" + header)
    labeled = [i for i, row in enumerate(rows) if ",1,1," in row]
    unlabeled = [i for i, row in enumerate(rows) if ",0,0," in row]
    assert len(labeled) > 2 and len(unlabeled) > 2

    def pick(among):
        return among[int(rng.integers(1 if among[0] == 0 else 0, len(among)))]

    def text_of(new_rows, new_header=header):
        head = tag + json.dumps(new_header, sort_keys=True)
        return "\n".join([head, columns, *new_rows]) + "\n"

    def with_cells(row, edits):
        """``rows`` with cell j of ``row`` rewritten as ``edits[j]`` of it."""
        parts = rows[row].split(",")
        for j, edit in edits.items():
            parts[j] = edit(parts[j])
        return [*rows[:row], ",".join(parts), *rows[row + 1:]]

    def flip(cell):
        return "1" if cell == "0" else "0"

    def ulp(cell):
        return repr(math.nextafter(float(cell), math.inf))

    both = {3: flip, 4: flip}  # coin and selected
    a, b = pick(labeled), pick(unlabeled)
    swapped = list(rows)
    swapped[a], swapped[b] = rows[b], rows[a]
    twice = with_cells(a, both)
    twice[b] = with_cells(b, both)[b]
    return {
        "original": text,
        "coin": text_of(with_cells(pick(unlabeled), {3: flip})),
        "coin-and-selected": text_of(with_cells(pick(unlabeled), both)),
        "dropped-row": text_of(rows[:a] + rows[a + 1:]),
        "truncated": text_of(rows[:int(rng.integers(1, len(rows)))]),
        "appended-label": text_of([*rows, f"{len(rows)},0.0,1.0,1,1,1.0"]),
        "g-ulp": text_of(with_cells(pick(unlabeled), {1: ulp})),
        "p-ulp": text_of(with_cells(pick(labeled), {2: ulp})),
        "c0": text_of(rows, {**header, "c0": header["c0"] * 3}),
        "seed": text_of(rows, {**header, "seed": header["seed"] + 1}),
        "resolution": text_of(rows, {**header, "erm_grid_resolution": 17}),
        "use-weights": text_of(rows, {**header, "use_weights": not header["use_weights"]}),
        "blank-line": text_of([*rows[:a], "", *rows[a:]]),
        "row-0-unlabeled": text_of(with_cells(0, {**both, 5: lambda cell: "0.0"})),
        "swapped-rows": text_of(swapped),
        "two-flips": text_of(twice),
    }


class TestExactReplayDifferential:
    """Replay of an exact-ERM trace, edited or not, reads as it would if the
    trace were compared with the sequential pass."""

    def test_every_outcome_is_the_sequential_reruns(self, tmp_path, monkeypatch):
        config = ExperimentConfig(
            dataset=rl.DatasetSpec(kind="circle", n=240, circle_prob=0.05), test_prop=0.25,
            repetitions=1, strategies=("iwal", "iwal-no-weights"), c0_grid=(0.01, 0.1, 1.0),
            base_seed=90, gk_mode="exact-erm", erm_grid_resolution=16, save_traces=True,
        )
        rng = np.random.default_rng(91)
        paths = []
        for fname, text in run_experiment(config).traces:
            for name, edited in edited_traces(text, rng).items():
                paths.append(tmp_path / f"{name}-{fname}")
                paths[-1].write_text(edited)
        assert len(paths) == 6 * 16

        def no_pass(*args, **kwargs):
            raise AssertionError("replay ran the sequential pass")

        monkeypatch.setattr(experiments, "select_iwal", no_pass)
        rebuilt = [replay_trace(path).describe() for path in paths]
        monkeypatch.undo()
        monkeypatch.setattr(experiments, "_exact_pass_from_labels",
                            lambda train, cfg, labeled: experiments.select_iwal(train, cfg))
        sequential = [replay_trace(path).describe() for path in paths]
        for path, got, want in zip(paths, rebuilt, sequential):
            assert got == want, path.name
        assert rebuilt.count("ok") == 6
