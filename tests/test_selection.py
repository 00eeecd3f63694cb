import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reuselab as rl
from reuselab import selection
from reuselab.errors import DegenerateGridError, InvalidArgumentError, TraceFormatError
from reuselab.experiments import _DENSITY_LANES
from reuselab.learners import inv_sqrt_schedule, make_online_model, online_linear_update
from reuselab.seeding import derive_seed, pass_uniforms
from reuselab.selection import (
    EXACT_ERM,
    IWAL,
    IWAL_NO_WEIGHTS,
    SelectionResult,
    _LANE_BLOCK,
    _exact_pass_from_labels,
    _linear_grid,
    _pool_split_offsets,
    _probabilities,
    _probability,
    selection_probability,
    surrogate_error_difference,
    load_trace,
    trace_columns,
    trace_to_text,
)

from estimates import weighted_error


class TestSelectionProbability:
    def test_twenty_hand_evaluated_triples(self):
        # oracle written out longhand, natural log
        triples = [
            (0.5, 2, 0.1), (0.5, 10, 0.1), (1.0, 2, 1.0), (1.0, 101, 0.01),
            (2.0, 5, 0.5), (0.1, 3, 0.001), (3.0, 1000, 2.0), (0.25, 50, 0.05),
            (4.0, 7, 10.0), (1.5, 20, 0.2), (0.75, 200, 0.9), (5.0, 12, 0.3),
            (0.01, 2, 1e-6), (10.0, 10**6, 100.0), (0.33, 33, 0.033),
            (2.5, 4, 0.25), (0.9, 9, 0.09), (7.0, 70, 7.0), (0.6, 600, 0.006),
            (1.2, 12000, 1.2),
        ]
        assert len(triples) == 20
        for g, k, c0 in triples:
            expected = min(1.0, (1.0 / g**2 + 1.0 / g) * c0 * math.log(k) / (k - 1))
            assert rl.selection_probability(g, k, c0) == pytest.approx(expected, abs=1e-12)

    def test_worked_example(self):
        # g=1, k=101, c0=0.01: bracket is 2, so p = 2*0.01*ln(101)/100
        p = rl.selection_probability(1.0, 101, 0.01)
        assert p == pytest.approx(2 * 0.01 * math.log(101) / 100, abs=1e-15)
        assert p == pytest.approx(9.23e-4, rel=5e-3)

    def test_zero_difference_saturates(self):
        # 1e-170 squares to 0 as a double, so it is the g -> 0 limit too
        for g in (0.0, 1e-170):
            for k in (2, 10, 10**6):
                for c0 in (1e-9, 1.0):
                    assert rl.selection_probability(g, k, c0) == 1.0

    def test_large_c0_clamps_to_one(self):
        assert rl.selection_probability(1.0, 100, 1e9) == 1.0

    @pytest.mark.parametrize("base", [2.0, 10.0])
    def test_base_b_rule_is_c0_over_ln_b(self, base):
        # log_b k = ln k / ln b: a base-b rule at c0 is the natural-log rule
        # at c0 / ln b, equal up to rounding
        for g, k, c0 in itertools.product((0.05, 0.5, 1.0, 3.0), (2, 3, 101, 10**6),
                                          (1e-3, 0.05, 1.0)):
            base_b = min(1.0, (1.0 / g**2 + 1.0 / g) * c0 * math.log(k, base) / (k - 1))
            natural = rl.selection_probability(g, k, c0 / math.log(base))
            assert natural == pytest.approx(base_b, rel=1e-14, abs=0)

    def test_preconditions(self):
        with pytest.raises(InvalidArgumentError):
            rl.selection_probability(1.0, 1, 0.1)
        with pytest.raises(InvalidArgumentError):
            rl.selection_probability(-1.0, 5, 0.1)
        with pytest.raises(InvalidArgumentError):
            rl.selection_probability(1.0, 5, 0.0)
        bad = [
            ((math.nan, 5, 0.1), "g"),
            ((True, 5, 0.1), "g"),
            ((1.0, 2.5, 0.1), "k"),
            ((1.0, True, 0.1), "k"),
            ((1.0, 5, math.nan), "c0"),
            ((1.0, 5, "0.1"), "c0"),
            ((math.inf, 5, 0.1), "g"),
            ((1.0, 5, math.inf), "c0"),
            ((10**400, 5, 0.1), "g"),
        ]
        for args, name in bad:
            with pytest.raises(InvalidArgumentError, match=f"^{name} must be"):
                rl.selection_probability(*args)
        with pytest.raises(InvalidArgumentError, match="^c0 must be"):
            rl.IwalConfig(c0=math.inf)

    def test_config_refuses_an_unknown_gk_mode(self):
        with pytest.raises(InvalidArgumentError, match="^unknown gk_mode 'bogus'$"):
            rl.IwalConfig(c0=1.0, gk_mode="bogus")

    @given(
        g1=st.floats(1e-6, 1e3), g2=st.floats(1e-6, 1e3),
        k=st.integers(2, 10**6), c0=st.floats(1e-9, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_g(self, g1, g2, k, c0):
        lo, hi = sorted((g1, g2))
        assert rl.selection_probability(hi, k, c0) <= rl.selection_probability(lo, k, c0)

    @given(k=st.integers(3, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_bracket_nonincreasing_in_k(self, k):
        assert math.log(k + 1) / k <= math.log(k) / (k - 1)

    @given(
        g=st.floats(1e-3, 1e3), k=st.integers(2, 10**5),
        c1=st.floats(1e-9, 1e3), c2=st.floats(1e-9, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_c0(self, g, k, c1, c2):
        lo, hi = sorted((c1, c2))
        assert rl.selection_probability(g, k, lo) <= rl.selection_probability(g, k, hi)


class TestProbabilityForms:
    """``_probabilities`` is ``_probability`` over arrays, bit for bit."""

    G = (0.0, 5e-324, 1e-170, 1e-160, 1e-3, 1.0, 7.5, 1e300, math.inf, math.nan)
    KS = (2, 3, 101, 4000, 10**6)
    C0S = (1e-9, 1e-3, 0.7, 3.0, 1e9)

    def test_array_form_has_the_scalar_bits(self):
        g, k = (a.ravel() for a in np.meshgrid(self.G, self.KS))
        log_k = np.array([math.log(int(v)) for v in k])
        for c0 in self.C0S:
            want = np.array([_probability(float(a), int(b), c0) for a, b in zip(g, k)])
            got = np.empty(len(g))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                # the rebuilt exact pass's form: one k per row
                _probabilities(g, c0, log_k, k - 1.0, out=got)
                assert got.tobytes() == want.tobytes(), c0
                # the lanes form: one k per step, one c0 per lane
                for kk in self.KS:
                    row = k == kk
                    lanes = np.empty(row.sum())
                    _probabilities(g[row], np.full(row.sum(), c0), math.log(kk), kk - 1,
                                   out=lanes)
                    assert lanes.tobytes() == want[row].tobytes(), (c0, kk)


class TestSurrogate:
    def test_zero_score_gives_zero(self):
        assert rl.surrogate_error_difference(0.0, 1.0) == 0.0
        assert rl.surrogate_error_difference(0.5, 0.0) == 0.0

    def test_monotone_in_score_under_fixed_history(self):
        values = [rl.surrogate_error_difference(s, 0.5) for s in (0.1, 0.2, 0.4, 0.9)]
        assert values == sorted(values)

    def test_boundary_vs_edge_scores_on_uniform_line(self):
        pool = rl.gen_uniform_line(1000, seed=30)
        ranker = rl.fit_online_linear(pool.x, pool.y, np.ones(len(pool)))
        scores = np.abs(np.asarray(ranker.score(pool.x)))
        mean_abs = float(scores.mean())
        g = scores / mean_abs
        edge = g[np.abs(pool.x[:, 0]) > 0.8]
        center = g[np.abs(pool.x[:, 0]) < 0.2]
        assert edge.mean() > center.mean()


def reference_linear_grid(lo, hi, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions ``w`` (m, d) and offsets ``b`` (m,) of the hypotheses
    sign(w.x - b) that exact-mode ERM searches over the box [lo, hi].

    1-D: both directions times ``resolution`` thresholds. 2-D:
    ``resolution`` angles over the full circle (both orientations of every
    boundary) times ``resolution`` offsets spanning the box's projections.
    """
    d = lo.shape[0]
    if d == 1:
        thresholds = np.linspace(lo[0], hi[0], resolution)
        w = np.concatenate([np.ones(resolution), -np.ones(resolution)])[:, None]
        return w, np.concatenate([thresholds, -thresholds])
    if d == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
        proj = dirs @ corners.T
        w = np.repeat(dirs, resolution, axis=0)
        b = np.concatenate([
            np.linspace(proj[i].min(), proj[i].max(), resolution) for i in range(len(dirs))
        ])
        return w, b
    raise InvalidArgumentError("exact-mode grids support only 1-D or 2-D data")


GRID_BOXES = {
    "line": ([-1.0], [1.0]),
    "line-point": ([0.5], [0.5]),
    "line-denormal": ([0.0], [2e-323]),
    "square": ([-1.0, -1.0], [1.0, 1.0]),
    "wide": ([-3e8, 2.0], [1e8, 2.5]),
    # x0 fixed: the angle-0 direction (1, 0) projects the box onto one point
    "segment": ([0.3, -1.0], [0.3, 2.0]),
    "point": ([0.5, -0.25], [0.5, -0.25]),
    "denormal": ([0.0, 0.0], [1e-320, 2e-323]),
}


class TestLinearGrid:
    @pytest.mark.parametrize("box", GRID_BOXES.values(), ids=GRID_BOXES.keys())
    def test_same_hypotheses_as_reference(self, box):
        lo, hi = np.array(box[0]), np.array(box[1])
        for resolution in range(2, 81):
            dirs, offsets = _linear_grid(lo, hi, resolution)
            w, b = reference_linear_grid(lo, hi, resolution)
            assert offsets.shape == (len(dirs), resolution)
            got_w, got_b = np.repeat(dirs, resolution, axis=0), offsets.ravel()
            for got, want in ((got_w, w), (got_b, b)):
                assert np.array_equal(got, want), resolution
                assert np.array_equal(np.signbit(got), np.signbit(want)), resolution

    def test_boxes_reach_both_linspace_paths(self):
        # the segment box mixes a zero-span row with spanning rows
        _, offsets = _linear_grid(*map(np.array, GRID_BOXES["segment"]), 80)
        zero_span = offsets[:, -1] == offsets[:, 0]
        assert zero_span.any() and not zero_span.all()
        # denormal spans: the step underflows to 0 but the ramp does not
        for name in ("line-denormal", "denormal"):
            _, offsets = _linear_grid(*map(np.array, GRID_BOXES[name]), 80)
            assert ((offsets[:, 1] == offsets[:, 0]) & (offsets[:, -2] != offsets[:, 0])).any()


def bench_circle_pool(seed):
    """circle-exact's training half: 1,000 rows of a 2,000-row circle at circle_prob 0.001."""
    return rl.split(rl.gen_circle(2000, circle_prob=0.001, seed=seed), 0.5, seed).train


def line_with_outlier(n, seed):
    """A uniform line with one point moved out to 40, so most thresholds fall in empty space."""
    pool = rl.gen_uniform_line(n, seed=seed)
    x = pool.x.copy()
    x[7, 0] = 40.0
    return rl.Dataset(x, pool.y)


def oracle_pools(rng):
    """Random 1-D and 2-D pools, with constant, duplicated, zero-width-axis,
    0/1 and outlier pools among them."""
    for d in (1, 2):
        n = int(rng.integers(1, 60))
        yield rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3, size=d)
        yield np.full((n, d), rng.normal())
        yield np.repeat(rng.normal(size=(3, d)), 9, axis=0)
        yield rng.integers(0, 2, size=(n, d)).astype(float)
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        x[0] = 50.0
        yield x
    x = rng.normal(size=(40, 2))
    x[:, int(rng.integers(2))] = 0.3
    yield x


class TestPoolSplitOffsets:
    """``_pool_split_offsets`` keeps one offset per prediction pattern on the pool."""

    def test_keeps_every_distinct_pattern_once_ascending(self):
        rng = np.random.default_rng(90)
        rows_checked = descending = shrunk = 0
        for trial in range(12):
            for x in oracle_pools(rng):
                resolution = int(rng.integers(2, 40))
                lo, hi = x.min(axis=0), x.max(axis=0)
                if trial % 2:  # a box that need not hold the pool
                    lo, hi = lo - rng.uniform(0, 2, x.shape[1]), hi - rng.uniform(-2, 1, x.shape[1])
                    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
                dirs, offsets = _linear_grid(lo, hi, resolution)
                proj = np.matmul(dirs, x[:, :, None])
                cut = _pool_split_offsets(proj, offsets)
                widths = []
                for a, (row, full) in enumerate(zip(cut, offsets)):
                    s = proj[:, a, 0]
                    descending += bool(np.all(np.diff(full) < 0))
                    kept = np.unique(row)
                    width = len(kept)
                    assert np.array_equal(row[:width], kept)  # ascending, no repeats
                    assert np.all(row[width:] == kept[-1])  # padding repeats the last
                    assert np.isin(row, full).all()
                    patterns = {(s >= b).tobytes() for b in kept}
                    assert len(patterns) == width
                    assert patterns == {(s >= b).tobytes() for b in full}
                    widths.append(width)
                    rows_checked += 1
                    shrunk += width < resolution
                assert cut.shape == (len(dirs), max(widths))
        assert descending >= 12 and 0 < shrunk < rows_checked and rows_checked > 1000

    def test_bench_shaped_exact_pass_stays_within_its_memory_budget(self):
        # one traced exact pass holds the (n, A, 1) projections, about 0.5
        # MiB; an (A, n) float copy of them would break the budget
        pool = bench_circle_pool(0)
        config = rl.IwalConfig(c0=0.01, gk_mode=EXACT_ERM, erm_grid_resolution=64, seed=91)
        rl.select_iwal(pool, config)  # warm-up
        tracemalloc.start()
        try:
            rl.select_iwal(pool, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def brute_force_difference(x, y, w, candidate, grid_w, grid_b):
    """Plain-loop ERM over the grid, no numpy vectorization."""
    best_overall, best_overall_idx = None, None
    errs = []
    for h in range(len(grid_b)):
        err = 0.0
        for i in range(len(y)):
            pred = 1 if sum(
                grid_w[h][j] * x[i][j] for j in range(grid_w.shape[1])
            ) - grid_b[h] >= 0 else -1
            if pred != y[i]:
                err += w[i]
        errs.append(err)
        if best_overall is None or err < best_overall:
            best_overall, best_overall_idx = err, h
    cand_pred_best = 1 if sum(
        grid_w[best_overall_idx][j] * candidate[j] for j in range(grid_w.shape[1])
    ) - grid_b[best_overall_idx] >= 0 else -1
    disagree = []
    for h in range(len(grid_b)):
        pred = 1 if sum(
            grid_w[h][j] * candidate[j] for j in range(grid_w.shape[1])
        ) - grid_b[h] >= 0 else -1
        if pred != cand_pred_best:
            disagree.append(errs[h])
    total = sum(w)
    return (min(disagree) - best_overall) / total


def exact_pass(train, c0, resolution, seed=0):
    config = rl.IwalConfig(c0=c0, gk_mode="exact-erm", erm_grid_resolution=resolution, seed=seed)
    return rl.select_iwal(train, config)


class TestExactErrorDifference:
    @pytest.mark.parametrize("pool", [
        rl.gen_uniform_line(80, seed=55),
        rl.gen_circle(60, circle_prob=0.05, seed=57),
    ], ids=["1-D", "2-D"])
    def test_every_g_matches_brute_force_on_the_weighted_prefix(self, pool):
        res = exact_pass(pool, c0=0.01, resolution=8, seed=56)
        grid = reference_linear_grid(pool.x.min(axis=0), pool.x.max(axis=0), 8)
        assert res.weights.max() > 1.0
        assert res.g[0] == 0.0  # nothing is labeled before the first example
        for k in range(1, len(pool)):
            prefix = res.indices < k
            labeled = pool.x[res.indices[prefix]], pool.y[res.indices[prefix]], res.weights[prefix]
            oracle = brute_force_difference(*labeled, pool.x[k], *grid)
            assert res.g[k] == pytest.approx(oracle, abs=1e-12)
        assert (res.g > 0.0).any() and (res.g[1:] == 0.0).any()

    def test_hand_enumerated_gaps(self):
        # thresholds 0, 0.2, 0.4 and 0.6 in both directions, every example
        # labeled with weight 1. A candidate at 0.6 can only be flipped by
        # hypotheses that also misclassify the labeled point at 0.5, so its
        # gap is one normalized unit of weight; a candidate at 0.2 can be
        # flipped for free by the threshold at 0.4.
        pool = rl.Dataset(np.array([[0.5], [0.6], [0.2], [0.0]]), np.array([1, 1, 1, -1]))
        res = exact_pass(pool, c0=1e9, resolution=4)
        assert np.all(res.weights == 1.0)
        assert res.g.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_degenerate_grid(self):
        # a constant pool: every hypothesis predicts +1 for every candidate
        pool = rl.Dataset(np.full((5, 1), 0.5), np.array([1, -1, 1, -1, 1]))
        with pytest.raises(DegenerateGridError):
            exact_pass(pool, c0=1.0, resolution=8)

    @pytest.mark.parametrize("grid", ["constant-pool", "one-direction"])
    def test_degenerate_row_is_refused_before_the_first_row(self, monkeypatch, grid):
        # a pass that reached row 1 would call _probability there
        def no_row_is_passed(*args):
            raise AssertionError("a row was passed")

        monkeypatch.setattr(selection, "_probability", no_row_is_passed)
        if grid == "constant-pool":
            pool = rl.Dataset(np.full((5, 1), 0.5), np.array([1, -1, 1, -1, 1]))
        else:
            # hypotheses x >= 0 and x >= 0.5: they split rows 1 and 2, and
            # both predict +1 on the last row (row 0, always labeled, is exempt)
            monkeypatch.setattr(selection, "_linear_grid",
                                lambda lo, hi, res: (np.array([[1.0]]), np.array([[0.0, 0.5]])))
            pool = rl.Dataset(np.array([[0.6], [0.2], [0.3], [0.9]]), np.array([1, -1, -1, 1]))
        config = rl.IwalConfig(c0=1.0, gk_mode=EXACT_ERM, erm_grid_resolution=2)
        message = "^no grid hypothesis disagrees on the candidate$"
        with pytest.raises(DegenerateGridError, match=message):
            rl.select_iwal(pool, config)
        with pytest.raises(DegenerateGridError, match=message):
            _exact_pass_from_labels(pool, config, range(1, len(pool)))

    def test_grid_rejects_high_dim(self):
        pool = rl.Dataset(np.random.default_rng(58).uniform(size=(10, 3)), np.tile([1, -1], 5))
        with pytest.raises(InvalidArgumentError, match="only 1-D or 2-D"):
            exact_pass(pool, c0=1.0, resolution=8)

    @pytest.mark.parametrize("n", [10, 40_000])
    @pytest.mark.parametrize("dim, fits", [(1, 4 << 20), (2, 2896)])
    def test_grid_beyond_the_budget_is_refused_before_it_is_built(self, monkeypatch, dim, fits, n):
        # A * res doubles within 64 MiB, A being 2 in 1-D and res in 2-D; n
        # does not count, so 40,000 2-D rows at the cap (n * A doubles over
        # 800 MiB) still reach the grid
        def built(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(selection, "_linspace_rows", built)
        pool = rl.Dataset(np.random.default_rng(59).uniform(size=(n, dim)), np.tile([1, -1], n // 2))
        with pytest.raises(AssertionError, match="the grid was built"):
            exact_pass(pool, c0=1.0, resolution=fits)
        config = rl.IwalConfig(c0=1.0, gk_mode=EXACT_ERM, erm_grid_resolution=fits + 1)
        message = f"^erm_grid_resolution {fits + 1} needs more than 64 MiB of grid$"
        with pytest.raises(InvalidArgumentError, match=message):
            rl.select_iwal(pool, config)
        with pytest.raises(InvalidArgumentError, match=message):
            _exact_pass_from_labels(pool, config, [])


class TestSelectRandom:
    def test_full_pool(self):
        train = rl.gen_uniform_line(20, seed=32)
        res = rl.select_random(train, 20)
        assert res.selected_count == 20
        assert np.all(res.weights == 1.0)
        assert all(p == 1.0 for p in trace_columns(res)["probability"])

    def test_empty_selection(self):
        train = rl.gen_uniform_line(20, seed=33)
        assert rl.select_random(train, 0).selected_count == 0

    def test_prefix_follows_train_order(self):
        train = rl.gen_uniform_line(20, seed=34)
        res = rl.select_random(train, 5)
        assert np.array_equal(train.x[res.indices], train.x[:5])

    def test_too_many_requested(self):
        train = rl.gen_uniform_line(20, seed=35)
        with pytest.raises(InvalidArgumentError):
            rl.select_random(train, 21)


class TestSelectUncertainty:
    def test_prefix_concentrates_near_boundary(self):
        pool = rl.gen_uniform_line(1000, seed=36)
        ranker = rl.fit_online_linear(pool.x, pool.y, np.ones(len(pool)))
        res = rl.select_uncertainty(pool, 10, ranker)
        picked = np.abs(pool.x[res.indices, 0])
        cutoff = np.percentile(np.abs(pool.x[:, 0]), 5)
        assert picked.max() < cutoff

    def test_whole_pool_regardless_of_ranking(self):
        pool = rl.gen_uniform_line(50, seed=37)
        ranker = rl.fit_online_linear(pool.x, pool.y, np.ones(len(pool)))
        res = rl.select_uncertainty(pool, 50, ranker)
        assert res.selected_count == 50

    def test_ties_break_by_original_index(self):
        pool = rl.gen_uniform_line(10, seed=38)
        zero_model = rl.make_online_model(1)  # every score is 0: all tied
        res = rl.select_uncertainty(pool, 3, zero_model)
        assert np.array_equal(pool.x[res.indices], pool.x[:3])

    def test_too_many_requested(self):
        pool = rl.gen_uniform_line(10, seed=38)
        with pytest.raises(InvalidArgumentError, match="cannot select 11 of 10 examples"):
            rl.select_uncertainty(pool, 11, rl.make_online_model(1))


class TestSelectIwal:
    def test_huge_c0_selects_everything_with_unit_weights(self):
        train = rl.gen_uniform_line(200, seed=39)
        res = rl.select_iwal(train, rl.IwalConfig(c0=1e9, seed=40))
        assert res.selected_count == 200
        assert np.all(res.weights == 1.0)
        assert all(p == 1.0 for p in trace_columns(res)["probability"])
        baseline = rl.select_random(train, 200)
        assert np.array_equal(train.x[res.indices], train.x[baseline.indices])

    def test_trace_invariants(self):
        train = rl.gen_uniform_line(500, seed=41)
        res = rl.select_iwal(train, rl.IwalConfig(c0=0.5, seed=42))
        cols = trace_columns(res)
        assert len(cols["index"]) == 500
        for p, coin, selected, w in zip(
            cols["probability"], cols["coin"], cols["selected"], cols["weight"]
        ):
            assert 0.0 < p <= 1.0
            assert coin == selected
            if selected:
                assert w == 1.0 / p
                assert abs(w * p - 1.0) < 1e-12
            else:
                assert w == 0.0
        assert res.selected_count == sum(cols["selected"])
        assert res.selected_count >= 1  # the first example is always labeled

    def test_first_example_always_selected(self):
        train = rl.gen_uniform_line(100, seed=43)
        res = rl.select_iwal(train, rl.IwalConfig(c0=1e-9, seed=44))
        cols = trace_columns(res)
        assert cols["probability"][0] == 1.0
        assert cols["selected"][0] == 1

    def test_no_weights_variant_keeps_probabilities(self):
        train = rl.gen_uniform_line(300, seed=45)
        base = rl.select_iwal(train, rl.IwalConfig(c0=0.5, seed=46))
        stripped = rl.without_weights(base)
        assert stripped.strategy == IWAL_NO_WEIGHTS
        assert stripped.selected_count == base.selected_count
        assert np.all(stripped.weights == 1.0)
        a, b = trace_columns(base), trace_columns(stripped)
        assert a["probability"] == b["probability"]
        assert a["selected"] == b["selected"]
        assert all(w in (0.0, 1.0) for w in b["weight"])

    def test_no_weights_variant_refuses_a_random_result(self):
        train = rl.gen_uniform_line(20, seed=45)
        with pytest.raises(InvalidArgumentError, match="only be stripped from an IWAL result"):
            rl.without_weights(rl.select_random(train, 5))

    def test_same_seed_reproduces_pass(self):
        train = rl.gen_uniform_line(400, seed=47)
        a = rl.select_iwal(train, rl.IwalConfig(c0=0.7, seed=48))
        b = rl.select_iwal(train, rl.IwalConfig(c0=0.7, seed=48))
        assert trace_columns(a) == trace_columns(b)

    def test_mean_count_monotone_in_c0(self):
        lo, hi = [], []
        for s in range(60):
            train = rl.gen_uniform_line(500, seed=derive_seed(49, s))
            lo.append(rl.select_iwal(train, rl.IwalConfig(c0=1e-5, seed=derive_seed(50, s))).selected_count)
            hi.append(rl.select_iwal(train, rl.IwalConfig(c0=1e-3, seed=derive_seed(50, s))).selected_count)
        assert np.mean(hi) >= np.mean(lo)

    def test_exact_mode_pass_runs_and_respects_invariants(self):
        train = rl.gen_uniform_line(200, seed=51)
        res = rl.select_iwal(
            train, rl.IwalConfig(c0=0.01, gk_mode="exact-erm", erm_grid_resolution=32, seed=52)
        )
        assert 1 <= res.selected_count <= 200
        assert all(0 < p <= 1 for p in trace_columns(res)["probability"])
        assert all(g >= 0 for g in trace_columns(res)["g"])

    def test_unbiasedness_quick(self):
        # small version of the weighted-error unbiasedness check
        pool = rl.gen_uniform_line(2000, seed=53)
        model = rl.learners.LinearModel("least-squares", theta=np.array([1.0]), bias=0.2)
        truth = rl.zero_one_error(model, pool)
        selections = (
            rl.select_iwal(pool, rl.IwalConfig(c0=3.0, seed=derive_seed(54, r))) for r in range(200)
        )
        vals = [
            weighted_error(model, pool.x[sel.indices], pool.y[sel.indices], sel.weights)
            for sel in selections
        ]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - truth) <= 5 * se


def reference_select_iwal(train, config):
    """The per-example IWAL loop before the cached best hypothesis and the
    bool prediction mask, kept verbatim as a reference."""
    n = len(train)
    uniforms = pass_uniforms(config.seed, n)
    schedule = inv_sqrt_schedule(config.selector_eta0)
    model = make_online_model(train.dim)
    x = train.x
    y = train.y
    exact = config.gk_mode == EXACT_ERM
    if exact:
        grid_w, grid_b = reference_linear_grid(
            x.min(axis=0), x.max(axis=0), config.erm_grid_resolution
        )
        # cumulative weighted error of every grid hypothesis on the labeled set
        err = np.zeros(len(grid_b))
        total_weight = 0.0

    abs_score_sum = 0.0
    picked: list[int] = []
    weights: list[float] = []
    gs = np.empty(n)
    probabilities = np.empty(n)
    for idx in range(n):
        score = float(x[idx] @ model.theta) + model.bias
        if exact:
            # g: ERM error gap between the best hypothesis and the best one
            # forced to predict the opposite label; 0 on an empty labeled set
            preds = np.where(grid_w @ x[idx] - grid_b >= 0.0, 1, -1)
            if total_weight == 0.0:
                g = 0.0
            else:
                best = int(np.argmin(err))
                disagree = preds != preds[best]
                if not disagree.any():
                    raise DegenerateGridError("no grid hypothesis disagrees on the candidate")
                g = float((err[disagree].min() - err[best]) / total_weight)
        else:
            g = surrogate_error_difference(score, abs_score_sum / idx if idx else 0.0)
        k = idx + 1
        p = 1.0 if k == 1 else selection_probability(g, k, config.c0)
        if uniforms[idx] < p:
            importance = 1.0 / p
            label = int(y[idx])
            picked.append(idx)
            weights.append(importance)
            model = online_linear_update(model, x[idx], label, importance, schedule)
            if exact:
                err += importance * (preds != label)
                total_weight += importance
        gs[idx] = g
        probabilities[idx] = p
        abs_score_sum += abs(score)
    return SelectionResult(
        IWAL,
        np.asarray(picked, dtype=np.intp),
        np.asarray(weights, dtype=np.float64),
        gs,
        probabilities,
    )


BIT_IDENTITY_POOLS = {
    "circle": rl.gen_circle(300, circle_prob=0.05, seed=60),
    "uniform-line": rl.gen_uniform_line(300, seed=61),
    "four-cluster-line": rl.gen_four_cluster_line(300, seed=62),
    "constant": rl.Dataset(np.full((5, 1), 0.5), np.array([1, -1, 1, -1, 1])),
}


def segment_pool(n, seed):
    """2-D points on the vertical segment x0 = 0.3, labeled by the side of x1 = 0.5."""
    x1 = np.random.default_rng(seed).uniform(-1.0, 2.0, size=n)
    return rl.Dataset(np.column_stack([np.full(n, 0.3), x1]), np.where(x1 >= 0.5, 1, -1))


ODD_RESOLUTION_POOLS = {
    "circle": BIT_IDENTITY_POOLS["circle"],
    "uniform-line": BIT_IDENTITY_POOLS["uniform-line"],
    "segment": segment_pool(300, seed=64),
}

class TestIwalPassBitIdentity:
    """``select_iwal`` gives the reference loop's bits, or its error."""

    @pytest.mark.parametrize("gk_mode", ["surrogate", "exact-erm"])
    @pytest.mark.parametrize("pool", BIT_IDENTITY_POOLS.values(), ids=BIT_IDENTITY_POOLS.keys())
    def test_same_bits_as_reference(self, pool, gk_mode):
        resolutions = (16, 64) if gk_mode == EXACT_ERM else (64,)
        for ri, resolution in enumerate(resolutions):
            for ci, c0 in enumerate((0.01, 0.1, 0.3, 1.0, 3.0)):
                # seed indices step by 10 per resolution, as when each also ran a base-2 rule
                config = rl.IwalConfig(
                    c0=c0, gk_mode=gk_mode, erm_grid_resolution=resolution,
                    seed=derive_seed(63, 10 * ri + ci),
                )
                try:
                    want = reference_select_iwal(pool, config)
                except DegenerateGridError as exc:
                    with pytest.raises(DegenerateGridError, match=str(exc)):
                        rl.select_iwal(pool, config)
                    continue
                got = rl.select_iwal(pool, config)
                for column in ("indices", "weights", "g", "probability"):
                    a, b = getattr(got, column), getattr(want, column)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (config, column)

    def test_surrogate_line_at_criterion_5_size(self):
        # the 1-D surrogate scores on Python floats; pin it on a long pool
        pool = rl.gen_uniform_line(4000, seed=404)
        for i, c0 in enumerate((0.3, 1.0, 3.0, 10.0)):
            config = rl.IwalConfig(c0=c0, seed=derive_seed(405, i))
            got, want = rl.select_iwal(pool, config), reference_select_iwal(pool, config)
            for column in ("indices", "weights", "g", "probability"):
                a, b = getattr(got, column), getattr(want, column)
                assert a.dtype == b.dtype and np.array_equal(a, b), (config, column)


    @pytest.mark.parametrize("pool", ODD_RESOLUTION_POOLS.values(), ids=ODD_RESOLUTION_POOLS.keys())
    def test_exact_at_odd_resolutions(self, pool):
        # row tails of the projection product differ from 16 and 64 here
        passes = 0
        for resolution in (3, 5, 7, 13):
            for c0 in (0.01, 0.3, 3.0):
                config = rl.IwalConfig(
                    c0=c0, gk_mode=EXACT_ERM, erm_grid_resolution=resolution,
                    seed=derive_seed(65, passes),
                )
                passes += 1
                try:
                    want = reference_select_iwal(pool, config)
                except DegenerateGridError as exc:
                    with pytest.raises(DegenerateGridError, match=str(exc)):
                        rl.select_iwal(pool, config)
                    continue
                got = rl.select_iwal(pool, config)
                for column in ("indices", "weights", "g", "probability"):
                    a, b = getattr(got, column), getattr(want, column)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (config, column)

    @pytest.mark.parametrize("pool", [bench_circle_pool(0), line_with_outlier(1000, seed=66)],
                             ids=["bench-circle", "line-outlier"])
    def test_exact_where_most_offsets_split_the_pool_alike(self, pool):
        if pool.dim == 2:
            assert np.hypot(*pool.x.T).max() > 9.0  # a ring point stretches the box
        passes = 0
        for resolution in (64, 128, 256):
            dirs, offsets = _linear_grid(pool.x.min(axis=0), pool.x.max(axis=0), resolution)
            cut = _pool_split_offsets(np.matmul(dirs, pool.x[:, :, None]), offsets)
            assert cut.shape[1] < resolution / 2
            for c0 in (0.01, 0.3, 3.0):
                config = rl.IwalConfig(
                    c0=c0, gk_mode=EXACT_ERM, erm_grid_resolution=resolution,
                    seed=derive_seed(67, passes),
                )
                passes += 1
                try:
                    want = reference_select_iwal(pool, config)
                except DegenerateGridError as exc:
                    with pytest.raises(DegenerateGridError, match=str(exc)):
                        rl.select_iwal(pool, config)
                    continue
                assert_same_pass(rl.select_iwal(pool, config), want, config)


class TestExactPassFromLabels:
    """An exact pass rebuilt from the rows it labels is the pass, byte for byte,
    and one rebuilt from a label set that is one row off is the pass up to
    that row."""

    POOLS = {**BIT_IDENTITY_POOLS, "bench-circle": bench_circle_pool(1)}

    @pytest.mark.parametrize("pool", POOLS.values(), ids=POOLS.keys())
    def test_same_bytes_as_the_pass_given_its_labels(self, pool):
        for ri, resolution in enumerate((16, 64)):
            for ci, c0 in enumerate((0.01, 0.1, 0.3, 1.0, 3.0)):
                # seed indices step by 10 per resolution, as when each also ran a base-2 rule
                config = rl.IwalConfig(
                    c0=c0, gk_mode=EXACT_ERM, erm_grid_resolution=resolution,
                    seed=derive_seed(68, 10 * ri + ci),
                )
                try:
                    want = rl.select_iwal(pool, config)
                except DegenerateGridError as exc:
                    with pytest.raises(DegenerateGridError, match=str(exc)):
                        _exact_pass_from_labels(pool, config, [0])
                    continue
                got = _exact_pass_from_labels(pool, config, want.indices)
                assert got.strategy == want.strategy
                for column in ("indices", "weights", "g", "probability"):
                    a, b = getattr(got, column), getattr(want, column)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (config, column)

    @pytest.mark.parametrize("name", ["circle", "uniform-line", "four-cluster-line"])
    def test_one_label_added_dropped_or_moved_keeps_the_pass_up_to_it(self, name):
        # up to and with the first row d where the edited labels leave the
        # pass's, the rebuilt pass is the pass, and its coin at d is the pass's
        pool = BIT_IDENTITY_POOLS[name]
        rng = np.random.default_rng(69)
        edits = 0
        for i, c0 in enumerate((0.01, 0.03, 0.1)):
            config = rl.IwalConfig(c0=c0, gk_mode=EXACT_ERM, erm_grid_resolution=16,
                                   seed=derive_seed(69, i))
            want = rl.select_iwal(pool, config)
            labels = want.indices.tolist()
            others = sorted(set(range(len(pool))) - set(labels))
            assert len(labels) > 1 and others
            for _ in range(8):
                dropped = labels[int(rng.integers(1, len(labels)))]
                added = others[int(rng.integers(len(others)))]
                for edited in ({*labels, added}, set(labels) - {dropped},
                               set(labels) - {dropped} | {added}):
                    d = min(set(labels) ^ edited)
                    got = _exact_pass_from_labels(pool, config, sorted(edited))
                    for column in ("g", "probability"):
                        a, b = getattr(got, column)[:d + 1], getattr(want, column)[:d + 1]
                        assert a.tobytes() == b.tobytes(), (config, column, d)
                    head = got.indices <= d
                    assert got.indices[head].tobytes() == want.indices[want.indices <= d].tobytes()
                    assert got.weights[head].tobytes() == want.weights[want.indices <= d].tobytes()
                    assert (d in got.indices) == (d not in edited)
                    edits += 1
        assert edits == 72


class TestSelectorUpdates:
    """Every path updates the online selector once per label, no more."""

    @pytest.mark.parametrize("gk_mode", ["surrogate", "exact-erm"])
    @pytest.mark.parametrize("pool", [
        rl.gen_uniform_line(400, seed=70), rl.gen_circle(400, circle_prob=0.05, seed=71),
    ], ids=["1-d", "2-d"])
    def test_one_update_per_label(self, monkeypatch, pool, gk_mode):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return online_linear_update(*args, **kwargs)

        monkeypatch.setattr(rl.selection, "online_linear_update", counted)
        res = rl.select_iwal(pool, rl.IwalConfig(c0=0.3, gk_mode=gk_mode, seed=72))
        assert 0 < res.selected_count < len(pool)
        assert len(calls) == res.selected_count

    @pytest.mark.parametrize("form", ["solo", "lanes"])
    def test_float_form_is_handed_python_numbers(self, monkeypatch, form):
        # a numpy importance would make (1 - q) ** importance numpy's power,
        # which differs from Python's on some inputs
        seen = []

        def typed(model, features, label, importance, schedule):
            theta, bias, updates = model
            seen.append((type(theta), type(bias), type(updates), type(features),
                         type(label), type(importance)))
            return online_linear_update(model, features, label, importance, schedule)

        monkeypatch.setattr(rl.selection, "online_linear_update", typed)
        pool = rl.gen_four_cluster_line(300, seed=73)
        configs = [rl.IwalConfig(c0=c0, seed=74 + i) for i, c0 in enumerate((0.05, 3.0))]
        if form == "solo":
            labels = sum(rl.select_iwal(pool, c).selected_count for c in configs)
            label_type = int  # the solo pass reads the int64 labels with tolist
        else:
            labels = sum(r.selected_count for r in rl.select_iwal([pool] * 2, configs))
            label_type = float
        assert len(seen) == labels > 0
        assert set(seen) == {(float, float, int, float, label_type, float)}


LANE_POOLS = (rl.gen_uniform_line(300, seed=80), rl.gen_four_cluster_line(300, seed=81))
LANE_C0S = (1e-3, 0.05, 0.5, 3.0, 100.0, 1e9)
LANE_ETAS = (0.3, 0.05)


def assert_same_pass(got, want, label):
    for column in ("indices", "weights", "g", "probability"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), (label, column)


class TestIwalLanes:
    """The lanes form of ``select_iwal`` gives every lane its solo pass's bits."""

    @pytest.mark.parametrize("lanes", [1, 2, _DENSITY_LANES + 7])
    def test_every_lane_equals_its_solo_pass(self, lanes):
        combos = itertools.cycle(itertools.product(LANE_POOLS, LANE_C0S, LANE_ETAS))
        pools, configs = [], []
        for i, (pool, c0, eta0) in zip(range(lanes), combos):
            pools.append(pool)
            configs.append(rl.IwalConfig(c0=c0, seed=derive_seed(82, i), selector_eta0=eta0))
        assert len(pools[0]) % _LANE_BLOCK != 0
        results = rl.select_iwal(pools, configs)
        assert len(results) == lanes
        for pool, config, got in zip(pools, configs, results):
            assert_same_pass(got, rl.select_iwal(pool, config), config)

    def test_one_example_pools(self):
        pool = rl.Dataset(np.array([[0.25]]), np.array([-1]))
        configs = [rl.IwalConfig(c0=c0, seed=s) for s, c0 in enumerate((0.5, 2.0))]
        for config, got in zip(configs, rl.select_iwal([pool, pool], configs)):
            assert_same_pass(got, rl.select_iwal(pool, config), config)

    def test_one_update_call_per_label(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return online_linear_update(*args, **kwargs)

        monkeypatch.setattr(rl.selection, "online_linear_update", counted)
        pool = LANE_POOLS[0]
        # c0 up to 3: some steps label in no lane, some in several
        configs = [rl.IwalConfig(c0=c0, seed=s) for s, c0 in enumerate(LANE_C0S[:4])]
        results = rl.select_iwal([pool] * len(configs), configs)
        labeling_steps = np.zeros(len(pool), dtype=bool)
        for res in results:
            labeling_steps[res.indices] = True
        labels = sum(res.selected_count for res in results)
        assert labeling_steps.sum() < len(pool)
        assert labeling_steps.sum() < len(calls) == labels
        monkeypatch.undo()
        for config, got in zip(configs, results):
            assert_same_pass(got, rl.select_iwal(pool, config), config)

    def test_underflowing_g_has_p_one_solo_and_lanes_alike(self):
        # g at step 2 is |bias| / (score1 / 2), about 1e-200, so g * g is 0
        pool = rl.Dataset(np.array([[1.0], [1e200], [0.0], [0.5]]), np.array([1, 1, 1, -1]))
        config = rl.IwalConfig(c0=1.0, seed=3)
        solo = rl.select_iwal(pool, config)
        assert 0.0 < solo.g[2] < 1e-162
        assert solo.probability.tolist() == [1.0, 1.0, 1.0, 1.0]
        lanes = rl.select_iwal([LANE_POOLS[0].take(np.arange(4)), pool], [config, config])
        assert_same_pass(lanes[1], solo, config)

    @pytest.mark.parametrize("pools, configs", [
        ([], []),
        ([LANE_POOLS[0]], []),
        ([LANE_POOLS[0]] * 2, [rl.IwalConfig(c0=1.0)]),
        ([rl.gen_circle(300, circle_prob=0.05, seed=83)], [rl.IwalConfig(c0=1.0)]),
        ([LANE_POOLS[0], rl.gen_uniform_line(299, seed=84)], [rl.IwalConfig(c0=1.0)] * 2),
        ([LANE_POOLS[0]], [rl.IwalConfig(c0=1.0, gk_mode=EXACT_ERM)]),
        ([LANE_POOLS[0]], rl.IwalConfig(c0=1.0)),
    ], ids=["empty", "no-config", "one-config-short", "2-d", "lengths", "exact",
            "one-config-bare"])
    def test_rejects_lanes_it_cannot_run(self, pools, configs):
        with pytest.raises(InvalidArgumentError, match="lanes form"):
            rl.select_iwal(pools, configs)


class TestTraceFormat:
    def _result(self):
        train = rl.gen_uniform_line(50, seed=55)
        return rl.select_iwal(train, rl.IwalConfig(c0=0.9, seed=56)), train

    def test_round_trip(self, tmp_path):
        res, _ = self._result()
        path = tmp_path / "t.csv"
        spec = {"kind": "uniform-line", "n": 50, "seed": 55}
        path.write_text(trace_to_text({"strategy": IWAL, "c0": 0.9, "dataset": spec}, res))
        header, columns = load_trace(path)
        assert header["strategy"] == IWAL
        assert header["c0"] == 0.9
        assert header["dataset"] == spec
        assert columns == trace_columns(res)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,g,probability,coin,selected,weight\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_corrupt_row_rejected(self, tmp_path):
        res, _ = self._result()
        path = tmp_path / "t.csv"
        text = trace_to_text({"dataset": {"kind": "uniform-line", "n": 50, "seed": 55}}, res)
        lines = text.splitlines()
        lines[5] = "oops"
        path.write_text("\n".join(lines))
        with pytest.raises(TraceFormatError):
            load_trace(path)

    @pytest.mark.parametrize("edits, message", [
        ({6: "oops"}, "line 7: expected 6 fields"),
        ({6: "4,0.5,1.0,0,0"}, "line 7: expected 6 fields"),
        # seven fields, then five: twelve cells, as two good rows have
        ({6: "4,0.5,1.0,0,0,0.0,1", 7: "5,1,0,0,0"}, "line 7: expected 6 fields"),
        ({6: "4,0.5,x,0,0,0.0"}, "line 7: could not convert string to float: 'x'"),
        ({6: "4,0.5,1.0,0.0,0,0.0", 9: "oops"},
         "line 7: invalid literal for int() with base 10: '0.0'"),
        # a blank line is skipped, but still counted
        ({3: "", 8: "oops"}, "line 9: expected 6 fields"),
    ], ids=["one-field", "five-fields", "seven-then-five", "bad-float", "bad-int", "blank-line"])
    def test_bad_row_names_the_first_bad_line(self, tmp_path, edits, message):
        res, _ = self._result()
        lines = trace_to_text({"strategy": IWAL}, res).splitlines()
        for i, line in edits.items():
            lines[i] = line
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: {message}"

    def test_blank_lines_and_crlf_load_as_the_plain_file(self, tmp_path):
        res, _ = self._result()
        lines = trace_to_text({"strategy": IWAL}, res).splitlines()
        path = tmp_path / "t.csv"
        path.write_bytes("\r\n".join(lines[:5] + ["", ""] + lines[5:] + [""]).encode())
        assert load_trace(path) == ({"strategy": IWAL}, trace_columns(res))

    def test_no_rows_loads_empty_columns(self, tmp_path):
        columns = "index,g,probability,coin,selected,weight"
        path = tmp_path / "t.csv"
        path.write_text(f"# reuselab-trace v1 {{}}\n{columns}\n")
        assert load_trace(path) == ({}, {name: [] for name in columns.split(",")})
