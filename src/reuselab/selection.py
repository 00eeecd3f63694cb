"""Sample-selection strategies: random, uncertainty, and biased-coin IWAL.

The IWAL pass streams over the training order once. For the k-th example
it computes an error difference ``g`` (exact grid ERM or a margin
surrogate), converts it into a selection probability, flips a biased coin,
and on success stores the example with importance weight ``1/p`` and
updates the online selector with that importance. Coins come from a
counter-based generator keyed by ``(seed, stream index)``, so a trace can
be replayed bit-exactly from its header.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .datasets import MAX_LENGTH, Dataset, read_text
from .errors import DegenerateGridError, InvalidArgumentError, TraceFormatError, is_int, is_number
from .learners import inv_sqrt_schedule, make_online_model, online_linear_update
from .seeding import coin_stream, pass_uniforms

RANDOM = "random"
UNCERTAINTY = "uncertainty"
IWAL = "iwal"
IWAL_NO_WEIGHTS = "iwal-no-weights"
STRATEGIES = (RANDOM, UNCERTAINTY, IWAL, IWAL_NO_WEIGHTS)

SURROGATE = "surrogate"
EXACT_ERM = "exact-erm"

# Steps of coins and pool columns the lanes form of select_iwal holds at once.
_LANE_BLOCK = 128
# Bytes the exact-ERM grid's (A, res) offsets may take (A: 2 in 1-D, res in
# 2-D), so res 10**6 in 2-D fails by name, not in numpy's allocator (7.28 TiB).
# At the cap, res 2,896 in 2-D, building the grid peaks at 192 MiB.
_GRID_BUDGET = 64 << 20


@dataclass(frozen=True)
class IwalConfig:
    """Knobs of one IWAL pass.

    ``log_base=None`` means the natural logarithm in the probability rule;
    otherwise it must be a number above 1.
    """

    c0: float
    gk_mode: str = SURROGATE
    erm_grid_resolution: int = 64
    seed: int = 0
    log_base: float | None = None
    selector_eta0: float = 0.3

    def __post_init__(self):
        if not (is_number(self.c0) and self.c0 > 0):
            raise InvalidArgumentError(f"c0 must be a positive number, not {self.c0!r}")
        if self.gk_mode not in (SURROGATE, EXACT_ERM):
            raise InvalidArgumentError(f"unknown gk_mode {self.gk_mode!r}")
        res = self.erm_grid_resolution
        if not (is_int(res) and 2 <= res <= MAX_LENGTH):
            raise InvalidArgumentError(
                f"erm_grid_resolution must be an integer from 2 to {MAX_LENGTH}, not {res!r}")
        if not is_int(self.seed):
            raise InvalidArgumentError(f"seed must be an integer, not {self.seed!r}")
        base = self.log_base
        if base is not None and not (is_number(base) and base > 1):
            raise InvalidArgumentError(f"log_base must be a number above 1, not {base!r}")
        inv_sqrt_schedule(self.selector_eta0)  # raises on an eta0 it cannot take


@dataclass(frozen=True)
class SelectionResult:
    """A weighted selection of training rows plus what the pass saw.

    ``indices`` point into the training order, listed in the order a
    consumer trains on them, and ``weights`` are their importance weights.
    ``g`` and ``probability`` hold one value per training example.
    """

    strategy: str
    indices: np.ndarray
    weights: np.ndarray
    g: np.ndarray
    probability: np.ndarray

    @property
    def selected_count(self) -> int:
        return len(self.indices)


# ---------------------------------------------------------------------------
# The probability rule and its two error-difference sources


def selection_probability(g: float, k: int, c0: float, log_base: float | None = None) -> float:
    """Labeling probability of the k-th streamed example.

    Returns ``min(1, (1/g^2 + 1/g) * c0 * log(k) / (k - 1))``; the g -> 0
    limit saturates the clamp, so a g whose square is 0 as a double (g = 0,
    or g below about 1.5e-162) maps to 1. ``log_base=None`` means the
    natural logarithm; otherwise it must be a number above 1.
    """
    if not (is_number(g) and g >= 0):
        raise InvalidArgumentError(f"g must be a non-negative number, not {g!r}")
    if not (is_int(k) and k >= 2):
        raise InvalidArgumentError(f"k must be an integer >= 2, not {k!r}")
    if not (is_number(c0) and c0 > 0):
        raise InvalidArgumentError(f"c0 must be a positive number, not {c0!r}")
    if log_base is not None and not (is_number(log_base) and log_base > 1):
        raise InvalidArgumentError(f"log_base must be a number above 1, not {log_base!r}")
    return _probability(g, k, c0, log_base)


def _probability(g: float, k: int, c0: float, log_base: float | None) -> float:
    """``selection_probability`` without its argument checks."""
    g2 = g * g
    if g2 == 0.0:
        return 1.0
    log_k = math.log(k) if log_base is None else math.log(k, log_base)
    return min(1.0, (1.0 / g2 + 1.0 / g) * c0 * log_k / (k - 1))


def _probabilities(g, c0, log_k, k_minus_1, out):
    """``_probability``'s operations in its order over arrays, so each
    element has its bits; a ``g * g`` of 0 gives 1/0 = inf and p = 1 under
    the caller's ``np.errstate``, and ``np.fmin`` is ``min(1.0, v)`` on NaN."""
    return np.fmin((1.0 / (g * g) + 1.0 / g) * c0 * log_k / k_minus_1, 1.0, out=out)


def surrogate_error_difference(score: float, mean_abs_score: float) -> float:
    """Scale-free margin proxy for the ERM error difference.

    The candidate's |score| is rescaled by the running mean |score| of the
    stream so far; a zero history (or zero score) maps to 0, which in turn
    forces the labeling probability to 1.
    """
    if mean_abs_score <= 0.0:
        return 0.0
    return abs(score) / mean_abs_score


def _linear_grid(lo, hi, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions ``dirs`` (A, d) and offsets (A, resolution) of the
    hypotheses sign(w.x - b) that exact-mode ERM searches over the box
    [lo, hi]. Hypothesis ``a * resolution + j`` has direction ``dirs[a]``
    and offset ``offsets[a, j]``.

    1-D: A = 2 directions, +1 and -1, each with ``resolution`` thresholds.
    2-D: A = ``resolution`` angles over the full circle (both orientations
    of every boundary), each with ``resolution`` offsets spanning the box's
    projections.

    Raises ``InvalidArgumentError`` before it allocates when the A *
    ``resolution`` offsets would exceed ``_GRID_BUDGET``.
    """
    d = lo.shape[0]
    if d not in (1, 2):
        raise InvalidArgumentError("exact-mode grids support only 1-D or 2-D data")
    if (2 if d == 1 else resolution) * resolution * 8 > _GRID_BUDGET:
        raise InvalidArgumentError(
            f"erm_grid_resolution {resolution} needs more than {_GRID_BUDGET >> 20} MiB of grid")
    if d == 1:
        thresholds = _linspace_rows(lo, hi, resolution)
        return np.array([[1.0], [-1.0]]), np.concatenate([thresholds, -thresholds])
    angles = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    proj = dirs @ corners.T
    return dirs, _linspace_rows(proj.min(axis=1), proj.max(axis=1), resolution)


def _pool_split_offsets(proj: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The (A, R') offsets of the grid that split the pool differently.

    The count of projections ``proj[:, a, 0]`` below offset b fixes its
    prediction pattern on the pool. Each row keeps its sorted offsets where
    that count changes, its first always, and repeats its last kept offset
    up to the widest row's width R'. Hypotheses with one pattern gain the
    same errors in the same order and agree on every candidate, so a pass
    over the cut grid has the same bits. Rows are sorted one at a time, so
    no (A, n) copy is held.
    """
    offsets = np.sort(offsets, axis=1)
    keep = np.ones(offsets.shape, dtype=bool)
    for a, row in enumerate(offsets):
        below = np.sort(proj[:, a, 0]).searchsorted(row)
        np.not_equal(below[1:], below[:-1], out=keep[a, 1:])
    cut = np.empty((len(offsets), keep.sum(axis=1).max()))
    for a, row in enumerate(offsets):
        kept = row[keep[a]]
        cut[a] = kept[-1]
        cut[a, :len(kept)] = kept
    return cut


def _exact_grid(x: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool's (n, A, 1) projections onto the exact-ERM grid's directions
    and the grid's (A, R') offsets that split the pool differently. Raises
    ``DegenerateGridError``, before a pass reads any row, if all hypotheses
    agree on a row after the (always labeled) first."""
    dirs, offsets = _linear_grid(x.min(axis=0), x.max(axis=0), resolution)
    # (n, A, 1): numpy's matrix-vector branch, one GEMV over A rows per example
    proj = np.matmul(dirs, x[:, :, None])
    offsets = _pool_split_offsets(proj, offsets)
    s = proj[1:, :, 0]  # cut rows are sorted: column 0 is least, -1 greatest
    if ((s >= offsets[:, -1]).all(axis=1) | ~(s >= offsets[:, 0]).any(axis=1)).any():
        raise DegenerateGridError("no grid hypothesis disagrees on the candidate")
    return proj, offsets


def _linspace_rows(start, stop, num: int) -> np.ndarray:
    """Row a is ``np.linspace(start[a], stop[a], num)``, bit for bit.

    numpy's scalar path multiplies the ramp by the step, or divides it
    first where the step underflows to 0; one broadcast ``np.linspace``
    would send every row down the divide-first path if any row did.
    """
    start, stop = start[:, None], stop[:, None]
    delta = stop - start
    step = delta / (num - 1)
    ramp = np.arange(num, dtype=np.float64)
    rows = np.where(step == 0, ramp / (num - 1) * delta, ramp * step) + start
    rows[:, -1] = stop[:, 0]
    return rows


# ---------------------------------------------------------------------------
# Strategies


def select_random(train: Dataset, n: int) -> SelectionResult:
    """First n examples of the (already shuffled) training order, weight 1."""
    if not (is_int(n) and 0 <= n <= len(train)):
        raise InvalidArgumentError(f"cannot select {n!r} of {len(train)} examples")
    return SelectionResult(
        RANDOM, np.arange(n), np.ones(n), np.zeros(len(train)), np.ones(len(train))
    )


def select_uncertainty(train: Dataset, n: int, ranking_model) -> SelectionResult:
    """The n pool examples closest to the ranking model's boundary.

    Examples are ordered by ascending |score| with ties broken by the
    original index; the pool is ranked once, not re-ranked per pick.
    """
    if not (is_int(n) and 0 <= n <= len(train)):
        raise InvalidArgumentError(f"cannot select {n!r} of {len(train)} examples")
    margins = np.abs(ranking_model.score(train.x))
    order = np.lexsort((np.arange(len(train)), margins))
    return SelectionResult(
        UNCERTAINTY, order[:n], np.ones(n), margins, np.ones(len(train))
    )


def select_iwal(
    train: Dataset | Sequence[Dataset], config: IwalConfig | Sequence[IwalConfig]
) -> SelectionResult | list[SelectionResult]:
    """One sequential biased-coin pass over the training order.

    Every selected example is stored with weight 1/p and the online
    selector is updated with importance 1/p. The first streamed example is
    always labeled, and so is any row whose ``g * g`` is 0 as a double
    (``selection_probability``). The selected-set size is a random variable.

    Exact-ERM ``g`` projects the pool onto the grid's A directions once per
    pass, with ``np.matmul(dirs, x[:, :, None])``: numpy's matrix-vector
    branch makes one GEMV over the A rows per example. A GEMM over the pool
    rounds differently and flips some signs, which would change traces.
    The (A, res) offsets are then cut to the (A, R') that split the pool
    differently (``_pool_split_offsets``): on a circle pool with a ring
    point most offsets fall in empty space, and R' is a third of res or less.
    Per example the pass compares the A projections with the (A, R')
    offsets into a bool mask of +1 predictions (exactly ``s - b >= 0`` for
    finite doubles) and takes one min over the side of the mask the best
    hypothesis is not on. The best hypothesis is cached until a label
    changes the errors. Replay does not run this loop on an exact trace: it
    rebuilds the pass from the rows the trace labels
    (``_exact_pass_from_labels``).

    On a 1-D surrogate pass the selector is the float form of
    ``online_linear_update``, ``(theta, bias, updates)``, and the score is
    ``x * theta + bias`` on Python floats: a length-1 dot is one rounded
    multiply, so the bits are numpy's. Wider pools keep the ``LinearModel``
    and its numpy dot: at length 2 it differed from ``x0*t0 + x1*t1`` on
    about a quarter of random pairs.

    Lanes form: ``select_iwal(pools, configs)`` takes equal-length
    sequences of 1-D pools of one length and of surrogate configs with one
    ``log_base``, runs every pass in lockstep (see ``_iwal_lanes``) and
    returns one ``SelectionResult`` per lane, each equal to its solo pass.
    """
    if not isinstance(train, Dataset):
        return _iwal_lanes(train, config)
    n = len(train)
    uniforms = pass_uniforms(config.seed, n).tolist()
    schedule = inv_sqrt_schedule(config.selector_eta0)
    x = train.x
    labels = train.y.tolist()
    exact = config.gk_mode == EXACT_ERM
    # the 1-D surrogate reads x and steps its selector as Python floats
    xs = x[:, 0].tolist() if not exact and train.dim == 1 else None
    model = make_online_model(train.dim) if xs is None else (0.0, 0.0, 0)
    features = x if xs is None else xs
    if exact:
        proj, offsets = _exact_grid(x, config.erm_grid_resolution)
        # cumulative weighted error of every grid hypothesis on the labeled set
        err = np.zeros(offsets.size)
        total_weight = 0.0
        best = None  # argmin of err, cleared whenever err changes
        above = np.empty(offsets.size, dtype=bool)
        above_grid = above.reshape(offsets.shape)

    abs_score_sum = 0.0
    picked: list[int] = []
    weights: list[float] = []
    gs: list[float] = []
    probabilities: list[float] = []
    for idx in range(n):
        if exact:
            # g: ERM error gap between the best hypothesis and the best one
            # forced to predict the opposite label; 0 on an empty labeled set
            np.greater_equal(proj[idx], offsets, out=above_grid)
            if total_weight == 0.0:
                g = 0.0
            else:
                if best is None:
                    best = int(err.argmin())
                    best_err = err[best]
                disagree = err[~above] if above[best] else err[above]
                g = float((np.minimum.reduce(disagree) - best_err) / total_weight)
        else:
            if xs is None:
                score = float(x[idx] @ model.theta) + model.bias
            else:
                score = xs[idx] * model[0] + model[1]
            g = surrogate_error_difference(score, abs_score_sum / idx if idx else 0.0)
            abs_score_sum += abs(score)
        p = 1.0 if idx == 0 else _probability(g, idx + 1, config.c0, config.log_base)
        if uniforms[idx] < p:
            importance = 1.0 / p
            label = labels[idx]
            picked.append(idx)
            weights.append(importance)
            model = online_linear_update(model, features[idx], label, importance, schedule)
            if exact:
                np.add(err, importance, out=err, where=~above if label == 1 else above)
                total_weight += importance
                best = None
        gs.append(g)
        probabilities.append(p)
    return SelectionResult(
        IWAL,
        np.asarray(picked, dtype=np.intp),
        np.asarray(weights, dtype=np.float64),
        np.asarray(gs, dtype=np.float64),
        np.asarray(probabilities, dtype=np.float64),
    )


def _exact_pass_from_labels(train: Dataset, config: IwalConfig, labeled) -> SelectionResult:
    """The exact-ERM pass ``select_iwal(train, config)`` rebuilt as if it
    labeled row 0 and the ascending rows ``labeled`` inside the pool.

    The error table changes only at a labeled row, so the rows between two
    labels are computed at once. Row i predicts +1 under a prefix of every
    direction's sorted offsets, ``offsets[a, :plus[i, a]]``, counted once
    per pass; after each label a table of the per-direction prefix and
    suffix minima of ``err`` gives every row's least error on the side the
    best hypothesis is not on, in one gather. The next label's p is
    ``_probability`` on Python floats, since its 1/p drives the next
    segment; p of every row is then ``_probabilities`` at once. The result
    selects the rows its own coins,
    ``pass_uniforms(seed, n) < p``, label, with weights ``1 / p``. Up to and
    with the first row where those coins leave ``labeled``, every row saw
    the table the sequential pass saw (by induction over the rows), so the
    result is that pass bit for bit there, and everywhere if there is no
    such row. ``_exact_grid`` raises ``DegenerateGridError`` as it does for
    the pass.
    """
    n = len(train)
    labeled = [0, *(row for row in map(int, labeled) if 0 < row < n)]
    proj, offsets = _exact_grid(train.x, config.erm_grid_resolution)
    dirs, width = offsets.shape
    # table[a] holds min(err[a, :k]) at k and min(err[a, k:]) at width + 1 + k
    stride = 2 * width + 2
    table = np.full((dirs, stride), np.inf)
    prefix, suffix = table[:, 1:width + 1], table[:, 2 * width:width:-1]
    # plus[i, a]: how many of direction a's offsets predict +1 on row i
    plus = np.zeros((n, dirs), dtype=np.min_scalar_type(width))
    mask = np.empty(plus.shape, dtype=bool)
    for b in offsets.T:
        np.add(plus, np.greater_equal(proj[:, :, 0], b, out=mask).view(np.uint8), out=plus)
    del proj, mask  # plus holds every prediction the pass reads
    starts = np.arange(0, dirs * stride, stride)  # of each direction's row of the flat table
    columns = np.arange(width, dtype=plus.dtype)

    err = np.zeros(offsets.shape)
    wrong = np.empty(offsets.shape, dtype=bool)
    g = np.zeros(n)
    total_weight, importance = 0.0, 1.0  # row 0 is labeled with p = 1
    for row, label, stop in zip(labeled, train.y[labeled].tolist(), labeled[1:] + [n]):
        # a hypothesis errs where it predicts -label: from column plus[row, a] on for +1
        (np.greater_equal if label == 1 else np.less)(columns, plus[row, :, None], out=wrong)
        err += np.where(wrong, importance, 0.0)  # err is never -0.0, so err + 0.0 is err
        total_weight += importance
        np.minimum.accumulate(err, axis=1, out=prefix)
        np.minimum.accumulate(err[:, ::-1], axis=1, out=suffix)
        best_dir, best_j = divmod(int(err.argmin()), width)
        # rows up to and with the next label; the best is on their +1 side
        # where it is in their prefix, and then they disagree on the suffix
        rows = slice(row + 1, min(stop + 1, n))
        side = plus[rows, best_dir] > best_j
        least = table.take(plus[rows] + starts + side[:, None] * (width + 1)).min(axis=1)
        g[rows] = (least - err[best_dir, best_j]) / total_weight
        if stop < n:
            importance = 1.0 / _probability(float(g[stop]), stop + 1, config.c0, config.log_base)

    ks = range(2, n + 1)
    log_k = np.fromiter(map(math.log, ks) if config.log_base is None else
                        map(math.log, ks, itertools.repeat(config.log_base)), np.float64, n - 1)
    p = np.ones(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _probabilities(g[1:], float(config.c0), log_k, np.arange(1.0, n), out=p[1:])
    picked = np.flatnonzero(pass_uniforms(config.seed, n) < p)
    return SelectionResult(IWAL, picked, 1.0 / p[picked], g, p)


def _iwal_lanes(trains, configs) -> list[SelectionResult]:
    """R surrogate passes over 1-D pools, advanced one step at a time together.

    Per step, every lane's score ``x * theta + bias``, ``g``, running
    |score| sum, p and coin test are length-R numpy operations in the solo
    loop's order, and ``log(k)`` is computed once. The selectors are (R,)
    arrays of ``theta`` and ``bias``; each labeling lane steps through the
    float form of ``online_linear_update`` with importance 1/p and its own
    ``inv_sqrt_schedule(selector_eta0)``, as the solo pass does. So every
    lane equals its solo pass bit for bit. Coins and pool columns are held
    ``_LANE_BLOCK`` steps at a time. p is ``_probabilities``, the array form
    of ``_probability``.
    """
    if not (isinstance(trains, Sequence) and isinstance(configs, Sequence)):
        raise InvalidArgumentError("the lanes form takes a sequence of pools and one of configs")
    if not trains or len(trains) != len(configs):
        raise InvalidArgumentError("the lanes form needs one config per pool, and at least one")
    n = len(trains[0]) if isinstance(trains[0], Dataset) else 0
    if not all(isinstance(t, Dataset) and t.dim == 1 and len(t) == n for t in trains):
        raise InvalidArgumentError("the lanes form needs 1-D pools of one length")
    if not all(isinstance(c, IwalConfig) and c.gk_mode == SURROGATE for c in configs):
        raise InvalidArgumentError("the lanes form runs surrogate passes only")
    log_base = configs[0].log_base
    if any(c.log_base != log_base for c in configs):
        raise InvalidArgumentError("the lanes form needs one log_base for every lane")
    lanes = len(trains)
    c0 = np.array([c.c0 for c in configs], dtype=np.float64)
    coins = [coin_stream(c.seed) for c in configs]
    schedules = [inv_sqrt_schedule(c.selector_eta0) for c in configs]
    theta, bias, updates = np.zeros(lanes), np.zeros(lanes), [0] * lanes
    score, abs_sum, mean = (np.zeros(lanes) for _ in range(3))
    has_mean = np.empty(lanes, dtype=bool)
    # the outputs; each step reads and writes one column of them, as a row of .T
    gs, probabilities = np.zeros((lanes, n)), np.ones((lanes, n))
    selected = np.zeros((lanes, n), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, _LANE_BLOCK):
            stop = min(start + _LANE_BLOCK, n)
            # (steps, lanes) blocks: row j holds step start + j of every lane
            xs = np.stack([t.x[start:stop, 0] for t in trains], axis=1)
            labels = np.stack([t.y[start:stop] for t in trains], axis=1, dtype=np.float64)
            uniforms = np.stack([c.random(stop - start) for c in coins], axis=1)
            steps = zip(range(start, stop), xs, labels, uniforms, gs.T[start:stop],
                        probabilities.T[start:stop], selected.T[start:stop])
            for idx, x, label, u, g, p, hit in steps:
                np.multiply(x, theta, out=score)
                np.add(score, bias, out=score)
                np.abs(score, out=score)
                if idx:
                    # g = |score| / mean |score| so far, 0 where that mean is 0
                    # (a sum of |score| is never negative; NaN divides, as solo)
                    np.divide(abs_sum, idx, out=mean)
                    np.not_equal(mean, 0.0, out=has_mean)
                    np.divide(score, mean, out=g, where=has_mean)
                    log_k = math.log(idx + 1) if log_base is None else math.log(idx + 1, log_base)
                    _probabilities(g, c0, log_k, idx, out=p)
                np.add(abs_sum, score, out=abs_sum)
                for r in np.less(u, p, out=hit).nonzero()[0].tolist():
                    theta[r], bias[r], updates[r] = online_linear_update(
                        (theta.item(r), bias.item(r), updates[r]), x.item(r), label.item(r),
                        1.0 / p.item(r), schedules[r])
    results = []
    for g, p, hit in zip(gs, probabilities, selected):
        indices = hit.nonzero()[0]
        results.append(SelectionResult(IWAL, indices, 1.0 / p[indices], g, p))
    return results


def without_weights(result: SelectionResult) -> SelectionResult:
    """The same selection with every stored weight forced to 1."""
    if result.strategy not in (IWAL, IWAL_NO_WEIGHTS):
        raise InvalidArgumentError("weights can only be stripped from an IWAL result")
    return replace(result, strategy=IWAL_NO_WEIGHTS, weights=np.ones(result.selected_count))


# ---------------------------------------------------------------------------
# Trace persistence: the v1 file format

_TRACE_TAG = "# reuselab-trace v1 "
_TRACE_COLUMNS = ("index", "g", "probability", "coin", "selected", "weight")
_TRACE_KINDS = (int, float, float, int, int, float)


def trace_columns(result: SelectionResult) -> dict[str, list]:
    """The six v1 trace columns, one entry per training example.

    ``coin`` and ``selected`` are both 1 on a selected row; ``weight`` is
    its importance weight there and 0 elsewhere. Values are Python
    numbers, so their repr is the plain float text the file holds.
    """
    n = len(result.g)
    selected = np.zeros(n, dtype=np.int64)
    selected[result.indices] = 1
    weight = np.zeros(n)
    weight[result.indices] = result.weights
    return dict(zip(_TRACE_COLUMNS, (
        list(range(n)), result.g.tolist(), result.probability.tolist(),
        selected.tolist(), selected.tolist(), weight.tolist(),
    )))


def trace_to_text(header: dict, result: SelectionResult) -> str:
    """A v1 trace: ``header`` as one JSON line, then one row per example."""
    cols = trace_columns(result)
    flags = [",1,1," if s else ",0,0," for s in cols["selected"]]
    lines = [_TRACE_TAG + json.dumps(header, sort_keys=True), ",".join(_TRACE_COLUMNS)]
    lines.extend(
        f"{i},{g},{p}{flag}{w}" for i, g, p, flag, w in zip(
            cols["index"], map(repr, cols["g"]), map(repr, cols["probability"]), flags,
            map(repr, cols["weight"]))
    )
    return "\n".join(lines) + "\n"


def read_trace(path) -> tuple[dict, str]:
    """The header of a v1 trace file and its whole text, LF or CRLF; the
    rows are not parsed."""
    text = read_text(path, TraceFormatError)
    first = text.partition("\n")[0]
    if not first.startswith(_TRACE_TAG):
        raise TraceFormatError(f"{path}: missing trace header")
    try:
        header = json.loads(first[len(_TRACE_TAG):])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise TraceFormatError(f"{path}: header is not a JSON object")
    return header, text


def load_trace(path) -> tuple[dict, dict[str, list]]:
    """The header and the six columns of a v1 trace file, LF or CRLF. A
    bad row raises ``TraceFormatError`` naming its line; blank lines are
    skipped but counted."""
    header, text = read_trace(path)
    lines = text.split("\n")
    if len(lines) < 2 or lines[1] != ",".join(_TRACE_COLUMNS):
        raise TraceFormatError(f"{path}: missing column row")
    columns = {name: [] for name in _TRACE_COLUMNS}
    appends = [columns[name].append for name in _TRACE_COLUMNS]
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise TraceFormatError(f"{path}: line {lineno}: expected 6 fields")
        try:
            for append, kind, part in zip(appends, _TRACE_KINDS, parts):
                append(kind(part))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    return header, columns
