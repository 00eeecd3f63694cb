"""Repetition engine and statistics for learning-curve experiments.

A run repeats the same protocol ``repetitions`` times with seeds derived
from ``base_seed + r``: draw the pool (a CSV file is parsed once per run),
split it, run one selection pass per cell over the shared training order,
train every consumer on each selection, and score it on the test side. A
pass is its trace header: its pool and split come from the header's recipe
by ``_draw_split`` and it runs by ``_select``, as ``replay`` runs a saved
one. An ``iwal`` and an ``iwal-no-weights`` cell of one c0 share a pass,
and a traced run writes its trace once, as the ``iwal`` cell's. A
repetition returns arrays over the config's ``_cells``, NaN where a pass or
fit was dropped; they are aggregated into curve points (mean error,
std of the mean, median selected count) and into a reusability report that
compares each active-learning cell against the random cell of the nearest
size.

Repetitions are independent jobs; with ``jobs > 1`` they execute in a
pool of ``min(jobs, repetitions)`` processes, and aggregation reduces them
in repetition order so outputs are byte-identical regardless of parallelism.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat, zip_longest
from typing import Callable, Mapping, Sequence

import numpy as np

from .datasets import (CsvTable, Dataset, DatasetSpec, SplitPair, make_dataset, parse_csv,
                       resolve_spec, split, split_sizes)
from .errors import (
    ConvergenceError,
    DegenerateGridError,
    InvalidArgumentError,
    MissingClassError,
    SingularDataError,
    TraceFormatError,
    is_int,
    is_number,
)
from .learners import (
    fit_lda,
    fit_least_squares,
    fit_online_linear,
    fit_qda,
    fit_svm,
    inv_sqrt_schedule,
    linear_kernel,
    poly3_kernel,
    rbf_kernel,
    zero_one_error,
)
from .seeding import ROLE_POOL, ROLE_SELECTION, ROLE_SPLIT, derive_seed
from .selection import (
    EXACT_ERM,
    IWAL,
    IWAL_NO_WEIGHTS,
    RANDOM,
    STRATEGIES,
    SURROGATE,
    UNCERTAINTY,
    IwalConfig,
    SelectionResult,
    _exact_pass_from_labels,
    load_trace,
    read_trace,
    select_iwal,
    select_random,
    select_uncertainty,
    trace_columns,
    trace_to_text,
    without_weights,
)

# Consumer kind -> fit on (spec, x, y, w). Each entry looks its fit_* name
# up when called, so a rebinding of that module name reaches it.
_CONSUMER_FITS = {
    "online-linear": lambda c, x, y, w: fit_online_linear(x, y, w, eta0=c.eta0, passes=c.passes),
    "least-squares": lambda c, x, y, w: fit_least_squares(x, y, w, ridge=c.ridge),
    "lda": lambda c, x, y, w: fit_lda(x, y, w),
    "qda": lambda c, x, y, w: fit_qda(x, y, w),
    "svm-linear": lambda c, x, y, w: fit_svm(x, y, w, linear_kernel, cost=c.cost),
    "svm-poly3": lambda c, x, y, w: fit_svm(x, y, w, poly3_kernel, cost=c.cost),
    "svm-rbf": lambda c, x, y, w: fit_svm(x, y, w, rbf_kernel(c.gamma), cost=c.cost),
}
CONSUMER_KINDS = tuple(_CONSUMER_FITS)

# Report rule: |welch t| at or above this separates the means.
T_THRESHOLD = 2.0
# IWAL cells with fewer surviving repetitions than this are inconclusive.
MIN_REPS_FOR_VERDICT = 20

REUSABLE = "reusable"
NOT_REUSABLE = "not-reusable"
INCONCLUSIVE = "inconclusive"
EMPTY_CELL = "empty-cell"


@dataclass(frozen=True)
class ConsumerSpec:
    """A consumer classifier and its hyperparameters."""

    kind: str
    ridge: float = 1e-6
    cost: float = 1.0
    gamma: float | None = None
    eta0: float = 0.3
    passes: int = 1
    name: str = ""

    def __post_init__(self):
        if self.kind not in CONSUMER_KINDS:
            raise InvalidArgumentError(f"unknown consumer kind {self.kind!r}")
        if not isinstance(self.name, str):
            raise InvalidArgumentError(f"name must be a string, not {self.name!r}")
        if not (is_number(self.ridge) and self.ridge >= 0):
            raise InvalidArgumentError(f"ridge must be a number >= 0, not {self.ridge!r}")
        for key in ("cost", "gamma"):
            value = getattr(self, key)
            if not (is_number(value) and value > 0 or key == "gamma" and value is None):
                raise InvalidArgumentError(f"{key} must be a positive number, not {value!r}")
        inv_sqrt_schedule(self.eta0)  # raises on an eta0 the schedule cannot take
        if not (is_int(self.passes) and self.passes >= 1):
            raise InvalidArgumentError(f"passes must be an integer >= 1, not {self.passes!r}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    def fit(self, x, y, w):
        """Train this consumer on rows ``x``, labels ``y`` and weights ``w``."""
        return _CONSUMER_FITS[self.kind](self, x, y, w)


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment, every value checked when built. Sequence fields become
    tuples, and ``iwal_configs`` holds each c0's ``IwalConfig`` (seed 0)."""

    dataset: DatasetSpec
    test_prop: float
    repetitions: int = 100
    strategies: tuple[str, ...] = (RANDOM, IWAL)
    consumers: tuple[ConsumerSpec, ...] = (ConsumerSpec("least-squares"),)
    n_grid: tuple[int, ...] = ()
    c0_grid: tuple[float, ...] = ()
    base_seed: int = 0
    gk_mode: str = SURROGATE
    erm_grid_resolution: int = 64
    selector_eta0: float = 0.3
    save_traces: bool = False

    def __post_init__(self):
        for key in ("strategies", "consumers", "n_grid", "c0_grid"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise InvalidArgumentError(f"{key} must be an array, not {getattr(self, key)!r}")
            object.__setattr__(self, key, tuple(getattr(self, key)))
        if not (is_number(self.test_prop) and 0 < self.test_prop < 1):
            raise InvalidArgumentError("test_prop must be a number in (0, 1)")
        if not is_int(self.repetitions) or self.repetitions < 1:
            raise InvalidArgumentError("repetitions must be an integer of at least 1")
        if not isinstance(self.save_traces, bool):
            raise InvalidArgumentError("save_traces must be true or false")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise InvalidArgumentError(f"unknown strategies {unknown}")
        if not self.strategies:
            raise InvalidArgumentError("need at least one strategy")
        if not self.consumers:
            raise InvalidArgumentError("need at least one consumer")
        names = [c.name for c in self.consumers]
        if len(set(names)) != len(names):
            raise InvalidArgumentError("consumer names must be unique")
        needs_c0 = {IWAL, IWAL_NO_WEIGHTS} & set(self.strategies)
        if needs_c0 and not self.c0_grid:
            raise InvalidArgumentError("IWAL strategies need a non-empty c0_grid")
        if not is_int(self.base_seed):
            raise InvalidArgumentError(f"base_seed must be an integer, not {self.base_seed!r}")
        if not all(is_int(n) and n >= 1 for n in self.n_grid):
            raise InvalidArgumentError("n_grid entries must be positive integers")
        if not all(is_number(c) and c > 0 for c in self.c0_grid):
            raise InvalidArgumentError("c0_grid entries must be positive numbers")
        object.__setattr__(self, "c0_grid", tuple(float(c) for c in self.c0_grid))
        for key in ("n_grid", "c0_grid"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise InvalidArgumentError(f"{key} entries must be distinct")
        knobs = IwalConfig(c0=1.0, gk_mode=self.gk_mode, selector_eta0=self.selector_eta0,
                           erm_grid_resolution=self.erm_grid_resolution)
        object.__setattr__(self, "iwal_configs", tuple(replace(knobs, c0=c) for c in self.c0_grid))


@dataclass(frozen=True)
class CurvePoint:
    strategy: str
    consumer: str
    cell: str            # "n=50" or "c0=0.5"
    x_position: float    # median selected count across repetitions
    mean_err: float
    std_of_mean: float
    reps_used: int
    reps_dropped: int


@dataclass(frozen=True)
class ReusabilityCell:
    strategy: str
    consumer: str
    cell: str
    x_position: float
    matched_n: int
    mean_err_al: float
    mean_err_rd: float
    delta: float
    welch_t: float
    verdict: str


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    curve: tuple[CurvePoint, ...]
    report: tuple[ReusabilityCell, ...]
    n_train: int
    traces: tuple[tuple[str, str], ...] = ()  # (relative filename, text)


def _welch_ratio(delta: float, sem_a: float, sem_b: float) -> float:
    """``delta / hypot(sem_a, sem_b)``; a zero combined sem gives 0 or +-inf."""
    combined = math.hypot(sem_a, sem_b)
    if combined == 0.0:
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return delta / combined


# ---------------------------------------------------------------------------
# One repetition

_DROP_ERRORS = (MissingClassError, SingularDataError, ConvergenceError)


def _cells(config: ExperimentConfig) -> list[tuple[str, str, object]]:
    """(strategy, cell label, n or c0) of every cell, in report order:
    strategies in ``STRATEGIES`` order, each grid ascending."""
    cells = []
    for strategy in STRATEGIES:
        if strategy not in config.strategies:
            continue
        if strategy in (RANDOM, UNCERTAINTY):
            cells += [(strategy, f"n={n}", n) for n in sorted(config.n_grid)]
        else:
            cells += [(strategy, f"c0={c0!r}", c0) for c0 in sorted(config.c0_grid)]
    return cells


@dataclass
class _RepOutcome:
    rep: int
    counts: np.ndarray  # (cells,) selected count; NaN where the pass was dropped
    errors: np.ndarray  # (cells, consumers) test error; NaN where the fit was dropped
    traces: list        # (filename, text)


def _recipe(config: ExperimentConfig, r: int) -> dict:
    """The ``dataset`` and ``split`` entries that every pass header of
    repetition ``r`` shares; ``_draw_split`` turns them into data."""
    spec, seed = config.dataset, config.base_seed
    dataset = resolve_spec(spec, derive_seed(seed, r, ROLE_POOL)).to_dict()
    split_info = {"test_prop": config.test_prop, "seed": derive_seed(seed, r, ROLE_SPLIT),
                  "scale_numeric": spec.kind == "csv" and spec.scale_numeric}
    return {"dataset": dataset, "split": split_info}


def _pass_headers(config: ExperimentConfig, r: int, recipe: dict):
    """(cell label, trace header) of every selection pass of repetition
    ``r``, one per cell in ``_cells`` order. A header is the pass's recipe."""
    passes = []
    for strategy, label, value in _cells(config):
        header = {"strategy": strategy, "seed": 0, "use_weights": strategy != IWAL_NO_WEIGHTS,
                  **recipe}
        if strategy in (IWAL, IWAL_NO_WEIGHTS):
            # the seed follows the c0's place in the config, not in the report
            ci = config.c0_grid.index(value)
            seed = derive_seed(config.base_seed, r, ROLE_SELECTION, ci)
            header.update(asdict(replace(config.iwal_configs[ci], seed=seed)))
        else:
            header["n"] = value
            if strategy == UNCERTAINTY:
                header["selector_eta0"] = config.selector_eta0
        passes.append((label, header))
    return passes


def _header_value(header, key: str, kind=object):
    """``header[key]``, or a ``TraceFormatError`` that names the key when the
    header lacks it or its value is not a ``kind``."""
    if not isinstance(header, Mapping) or key not in header:
        raise TraceFormatError(f"trace header lacks {key!r}")
    value = header[key]
    if not isinstance(value, kind):
        raise TraceFormatError(f"trace header has a bad {key!r}: {value!r}")
    return value


_SPLIT_KEYS = ("test_prop", "seed", "scale_numeric")
# The keys a pass header may carry, by strategy. An older IWAL trace carries
# "log_base", which _select reads only to refuse a value other than null.
_RECIPE_KEYS = {"strategy", "seed", "use_weights", "dataset", "split"}
_IWAL_KEYS = _RECIPE_KEYS | {f.name for f in fields(IwalConfig)} | {"log_base"}
_HEADER_KEYS = {RANDOM: _RECIPE_KEYS | {"n"}, UNCERTAINTY: _RECIPE_KEYS | {"n", "selector_eta0"},
                IWAL: _IWAL_KEYS, IWAL_NO_WEIGHTS: _IWAL_KEYS}


def _refuse_unknown_keys(header: Mapping) -> None:
    """A ``TraceFormatError`` that names every key of a pass header, or of
    its ``split``, that the header's strategy does not read. Replay checks
    this before it draws the header's pool."""
    strategy = _header_value(header, "strategy")
    header_keys = _HEADER_KEYS.get(strategy) if isinstance(strategy, str) else None
    if header_keys is None:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}")
    split_info = _header_value(header, "split", Mapping)
    for mapping, known, where in ((header, header_keys, "trace header"),
                                  (split_info, set(_SPLIT_KEYS), "trace header's split")):
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise TraceFormatError(f"{where} has unknown keys: {', '.join(unknown)}")


def _draw_split(recipe: Mapping, table: CsvTable | None = None) -> SplitPair:
    """The train/test pair that a recipe (a trace header, or ``_recipe``)
    names: the only route from a recipe to data. ``table``, if given, is
    the recipe's CSV file, parsed once for the run."""
    pool = table if table is not None else make_dataset(
        DatasetSpec.from_dict(_header_value(recipe, "dataset", Mapping)))
    split_info = _header_value(recipe, "split", Mapping)
    return split(pool, *(_header_value(split_info, key) for key in _SPLIT_KEYS))


def _select(train, header: Mapping, shared: dict, labeled=None) -> SelectionResult:
    """Run the selection pass ``header`` describes on ``train``.

    ``shared`` holds what the passes of one repetition have in common: the
    uncertainty ranker, and each IWAL pass by its seed (or the
    ``DegenerateGridError`` it raised), which ``iwal`` and
    ``iwal-no-weights`` both read. Replay passes an empty dict, and the rows
    its trace labels as ``labeled``: an exact-ERM IWAL pass is then rebuilt
    from them (``_exact_pass_from_labels``) instead of run forward. The
    header's strategy and keys are checked before: by ``_refuse_unknown_keys``
    on replay, and by ``ExperimentConfig`` for a run's ``_pass_headers``.
    """
    strategy = _header_value(header, "strategy")
    if strategy == RANDOM:
        return select_random(train, _header_value(header, "n"))
    if strategy == UNCERTAINTY:
        if UNCERTAINTY not in shared:
            shared[UNCERTAINTY] = fit_online_linear(
                train.x, train.y, np.ones(len(train)),
                eta0=_header_value(header, "selector_eta0"),
                passes=1,
            )
        return select_uncertainty(train, _header_value(header, "n"), shared[UNCERTAINTY])
    if header.get("log_base") is not None:  # older traces; null is the natural log
        raise TraceFormatError(f"trace header sets log_base {header['log_base']!r}; "
                               "the probability rule now uses the natural log only")
    cfg = IwalConfig(**{f.name: _header_value(header, f.name) for f in fields(IwalConfig)})
    use_weights = _header_value(header, "use_weights", bool)
    if cfg.seed not in shared:
        try:
            shared[cfg.seed] = (_exact_pass_from_labels(train, cfg, labeled)
                                if labeled is not None and cfg.gk_mode == EXACT_ERM
                                else select_iwal(train, cfg))
        except DegenerateGridError as exc:
            shared[cfg.seed] = exc
    result = shared[cfg.seed]
    if isinstance(result, DegenerateGridError):
        raise result
    return result if use_weights else without_weights(result)


def _run_repetition(config: ExperimentConfig, r: int,
                    table: CsvTable | None = None) -> _RepOutcome:
    """Run and score every cell's pass of repetition ``r``. A traced run
    writes a pass's trace for the first cell in ``_cells`` order that runs
    it, so an ``iwal-no-weights`` cell, which trains on its ``iwal`` twin's
    pass with unit weights, gets one only in a run without ``iwal``."""
    recipe = _recipe(config, r)
    pair = _draw_split(recipe, table)
    train, test = pair.train, pair.test
    passes = _pass_headers(config, r, recipe)
    counts = np.full(len(passes), np.nan)
    errors = np.full((len(passes), len(config.consumers)), np.nan)
    traces, shared = [], {}
    untraced = IWAL_NO_WEIGHTS if IWAL in config.strategies else None
    for i, (label, header) in enumerate(passes):
        try:
            sel = _select(train, header, shared)
        except DegenerateGridError:
            continue  # no count, no trace, and a dropped fit in every consumer
        counts[i] = sel.selected_count
        if config.save_traces and sel.strategy != untraced:
            fname = f"trace_{sel.strategy}_{label.replace('=', '_')}_r{r:04d}.csv"
            traces.append((fname, trace_to_text(header, sel)))
        if sel.selected_count == 0:
            continue
        x, y = train.x[sel.indices], train.y[sel.indices]
        for j, consumer in enumerate(config.consumers):
            try:
                errors[i, j] = zero_one_error(consumer.fit(x, y, sel.weights), test)
            except _DROP_ERRORS:
                pass
    return _RepOutcome(rep=r, counts=counts, errors=errors, traces=traces)


# ---------------------------------------------------------------------------
# The full experiment


def default_n_grid(n_train: int) -> tuple[int, ...]:
    """Roughly log-spaced selection sizes, ten points from 10 up to the full pool."""
    lo = min(10, n_train)
    grid = np.unique(np.rint(np.geomspace(lo, n_train, 10)).astype(int))
    return tuple(int(v) for v in grid)


def _normalize(config: ExperimentConfig) -> tuple[ExperimentConfig, int, CsvTable | None]:
    """The config with its default n grid, the train size, and a CSV pool's
    table. A generated pool is sized by a probe draw and a table by
    ``split_sizes``: a probe split of the table leaves memory behind that
    the run's forked pool workers inherit."""
    spec, table = config.dataset, None
    if spec.kind == "csv":
        table = parse_csv(spec.path, spec.label_column, spec.positive_values, spec.schema or {},
                          spec.header)
        n_train = split_sizes(len(table), config.test_prop)[1]
    else:
        n_train = len(_draw_split(_recipe(config, 0)).train)
    needs_n = {RANDOM, UNCERTAINTY} & set(config.strategies)
    if needs_n and not config.n_grid:
        config = replace(config, n_grid=default_n_grid(n_train))
    if any(n > n_train for n in config.n_grid):
        raise InvalidArgumentError(f"n_grid exceeds the training pool ({n_train})")
    return config, n_train, table


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> ExperimentResult:
    """Run every repetition, aggregate curve points, and judge reusability."""
    config, n_train, table = _normalize(config)
    reps = range(config.repetitions)
    workers = min(jobs, config.repetitions)  # a pool starts all its workers at once
    if workers > 1:  # a serial run never imports the pool machinery
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        outcomes = []
        for out in (pool.map if pool else map)(_run_repetition, repeat(config), reps,
                                               repeat(table)):
            outcomes.append(out)
            if progress:
                progress(len(outcomes), config.repetitions)
    return aggregate(config, outcomes, n_train)


def aggregate(
    config: ExperimentConfig,
    outcomes: Sequence[_RepOutcome],
    n_train: int,
) -> ExperimentResult:
    """Reduce per-repetition outcomes; invariant to their input order."""
    outcomes = sorted(outcomes, key=lambda o: o.rep)
    counts = np.stack([o.counts for o in outcomes])  # (reps, cells)
    errors = np.stack([o.errors for o in outcomes])  # (reps, cells, consumers)
    points = []
    for i, (strategy, cell, _) in enumerate(_cells(config)):
        # integer counts keep np.median off its NaN check, which imports numpy.ma
        kept = counts[:, i][~np.isnan(counts[:, i])].astype(np.int64)
        x_median = float(np.median(kept)) if len(kept) else float("nan")
        for j, consumer in enumerate(config.consumers):
            used = errors[:, i, j][~np.isnan(errors[:, i, j])]
            mean = float(np.mean(used)) if len(used) else float("nan")
            sem = (
                float(np.std(used, ddof=1) / math.sqrt(len(used)))
                if len(used) >= 2
                else 0.0
            )
            points.append(
                CurvePoint(
                    strategy=strategy,
                    consumer=consumer.name,
                    cell=cell,
                    x_position=x_median,
                    mean_err=mean,
                    std_of_mean=sem,
                    reps_used=len(used),
                    reps_dropped=len(outcomes) - len(used),
                )
            )

    report = build_report(points)
    traces = []
    for out in outcomes:
        traces.extend(out.traces)
    traces.sort(key=lambda ft: ft[0])
    return ExperimentResult(
        config=config,
        curve=tuple(points),
        report=report,
        n_train=n_train,
        traces=tuple(traces),
    )


def build_report(points: Sequence[CurvePoint]) -> tuple[ReusabilityCell, ...]:
    """Compare each active-learning cell with the nearest-size random cell."""
    randoms = [p for p in points if p.strategy == RANDOM]
    rows = []
    for p in points:
        if p.strategy == RANDOM:
            continue
        baselines = [q for q in randoms if q.consumer == p.consumer and q.reps_used > 0]
        if not baselines or p.reps_used == 0:
            rows.append(
                ReusabilityCell(p.strategy, p.consumer, p.cell, p.x_position, -1,
                                p.mean_err, float("nan"), float("nan"), float("nan"),
                                EMPTY_CELL)
            )
            continue
        match = min(baselines, key=lambda q: (abs(q.x_position - p.x_position), q.x_position))
        delta = p.mean_err - match.mean_err
        t = _welch_ratio(delta, p.std_of_mean, match.std_of_mean)
        if p.reps_used < MIN_REPS_FOR_VERDICT or abs(t) < T_THRESHOLD:
            verdict = INCONCLUSIVE
        elif delta < 0:
            verdict = REUSABLE
        else:
            verdict = NOT_REUSABLE
        rows.append(
            ReusabilityCell(p.strategy, p.consumer, p.cell, p.x_position,
                            round(match.x_position), p.mean_err, match.mean_err,
                            delta, t, verdict)
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Density histogram (1-D selections, averaged over many passes)


@dataclass(frozen=True)
class DensityRow:
    c0: float
    bin: int
    lo: float
    hi: float
    unweighted_mass: float
    weighted_mass: float


_SUPPORT = {"uniform-line": (-1.0, 1.0), "four-cluster-line": (-7.5, 7.5)}
# Surrogate passes density_histogram runs as one lanes call. Measured on a
# 2-core host at n = 1,000: lanes beat solo passes from about 20 lanes and
# larger groups share a step's fixed numpy cost among more lanes, while the
# lanes' (R, n) state, about 28 kB a lane, grows with R: groups of 120 added
# about 7% to line-density's peak RSS, groups of 60 under 2%.
_DENSITY_LANES = 60


def density_histogram(
    dataset_spec: DatasetSpec,
    c0_list: Sequence[float],
    runs: int,
    bins: int,
    base_seed: int = 0,
    **iwal_knobs,
) -> list[DensityRow]:
    """Average selected mass per bin, raw and importance-weighted.

    Each run draws a pool of ``dataset_spec``, a uniform-line or
    four-cluster-line spec, and runs one IWAL pass per c0; masses are
    averaged over runs and normalized to sum to 1 per c0. A pass that
    raises ``DegenerateGridError`` is left out of its c0's average.
    ``iwal_knobs`` are further ``IwalConfig`` fields, such as ``gk_mode``;
    the rest keep that class's defaults. Surrogate passes run in groups of
    runs, each group's passes as one lanes call of ``select_iwal``; an
    exact-ERM pass runs solo.
    """
    if not isinstance(c0_list, (list, tuple)):
        raise InvalidArgumentError(f"c0_list must be a list or tuple, not {c0_list!r}")
    if not (is_int(runs) and runs >= 1 and is_int(bins) and bins >= 1 and c0_list):
        raise InvalidArgumentError(
            f"need integers runs >= 1 and bins >= 1 and a non-empty c0 list, "
            f"not runs={runs!r}, bins={bins!r}, c0_list={c0_list!r}")
    if not all(is_number(c) and c > 0 for c in c0_list):
        raise InvalidArgumentError(f"c0_list entries must be positive numbers, not {c0_list!r}")
    if len(set(c0_list)) != len(c0_list):
        raise InvalidArgumentError(f"c0_list entries must be distinct, not {c0_list!r}")
    knobs = {f.name for f in fields(IwalConfig)} - {"c0", "seed"}
    for key in iwal_knobs:
        if key in ("c0", "seed"):
            raise InvalidArgumentError(
                f"density_histogram sets {key} per pass; give c0_list and base_seed instead")
        if key not in knobs:
            raise InvalidArgumentError(
                f"unknown IWAL knob {key!r}; density_histogram takes {sorted(knobs)}")
    template = IwalConfig(c0=1.0, **iwal_knobs)
    if dataset_spec.kind not in _SUPPORT:
        raise InvalidArgumentError(f"density histograms need a kind in {tuple(_SUPPORT)}")
    edges = np.linspace(*_SUPPORT[dataset_spec.kind], bins + 1)

    raw = np.zeros((len(c0_list), bins))
    weighted_mass = np.zeros((len(c0_list), bins))
    # runs in groups of one to about _DENSITY_LANES passes, sizes within one run
    groups = min(runs, -(-runs * len(c0_list) // _DENSITY_LANES))
    bounds = [runs * g // groups for g in range(groups + 1)]
    for first, stop in zip(bounds, bounds[1:]):
        _add_density_group(raw, weighted_mass, edges, dataset_spec, base_seed,
                           range(first, stop), c0_list, template)

    rows = []
    for ci, c0 in enumerate(c0_list):
        raw_total = raw[ci].sum()
        w_total = weighted_mass[ci].sum()
        for b in range(bins):
            rows.append(
                DensityRow(
                    c0=float(c0),
                    bin=b,
                    lo=float(edges[b]),
                    hi=float(edges[b + 1]),
                    unweighted_mass=float(raw[ci, b] / raw_total) if raw_total else 0.0,
                    weighted_mass=float(weighted_mass[ci, b] / w_total) if w_total else 0.0,
                )
            )
    return rows


def _add_density_group(raw, weighted_mass, edges, dataset_spec, base_seed, group, c0_list,
                       template):
    """Draw the pools of the runs in ``group``, run one pass per run and c0
    and add each pass's binned masses to its c0's row of ``raw`` and
    ``weighted_mass``, run by run. Nothing of the group outlives the call.
    """
    pools = [make_dataset(resolve_spec(dataset_spec, derive_seed(base_seed, r, ROLE_POOL)))
             for r in group]
    trains = [pool for pool in pools for _ in c0_list]
    configs = [replace(template, c0=c0, seed=derive_seed(base_seed, r, ROLE_SELECTION, ci))
               for r in group for ci, c0 in enumerate(c0_list)]
    if template.gk_mode == SURROGATE:
        selections = select_iwal(trains, configs)
    else:
        selections = [_solo_pass(pool, cfg) for pool, cfg in zip(trains, configs)]
    for i, (pool, sel) in enumerate(zip(trains, selections)):
        if sel is None:
            continue
        ci = i % len(c0_list)
        xs = pool.x[sel.indices, 0]
        raw[ci] += np.histogram(xs, bins=edges)[0]
        weighted_mass[ci] += np.histogram(xs, bins=edges, weights=sel.weights)[0]


def _solo_pass(pool: Dataset, config: IwalConfig) -> SelectionResult | None:
    """One exact-ERM pass, or None where it is degenerate."""
    try:
        return select_iwal(pool, config)
    except DegenerateGridError:
        return None  # skip this (run, c0) pass, as run_experiment does


# ---------------------------------------------------------------------------
# Trace replay


@dataclass(frozen=True)
class ReplayOutcome:
    ok: bool
    row: int | None = None
    column: str | None = None
    expected: object = None
    actual: object = None

    def describe(self) -> str:
        if self.ok:
            return "ok"
        where = "outside the rows" if self.row is None else (
            f"at row {self.row}, column {self.column}")
        note = " (equal as numbers, written differently)" if self.expected == self.actual else ""
        return (f"divergence {where}: "
                f"trace has {self.expected!r}, recomputed {self.actual!r}{note}")


def replay_trace(path) -> ReplayOutcome:
    """Re-run a trace's pass and compare the file's text with the rerun's.

    The file is ``ok`` only when its text (CRLF read as LF) is what
    ``trace_to_text`` writes for the rerun, so a ``-0.0`` over a ``0.0`` or
    a weight ``1`` over ``1.0`` diverges. Every pass runs by ``_select``,
    given the rows whose coin and selected cells read ``1,1``, counted among
    the non-blank rows. So an exact-ERM IWAL trace is compared with its pass
    rebuilt from the rows it labels, never with the sequential pass. The
    report is still the sequential pass's: let i* be the first row where the
    rebuilt pass's coins leave the file's. The file's row i* then differs as
    text from the sequential pass's row i*, and up to i* the two passes
    agree bit for bit, so the first divergence is at i* or before and reads
    the same on either pass; with no i* the passes are equal. After a
    mismatch ``load_trace`` parses the rows, and the outcome names the first
    row whose text differs and, within it, the first such column in v1
    order, with both values as numbers. A row that only one side has is
    reported in the ``index`` column; a difference outside the rows (the
    header line, a blank line) has no row and gives the first differing
    line of each side.
    """
    header, text = read_trace(path)
    labeled = [i for i, row in enumerate(filter(None, text.split("\n")[2:])) if ",1,1," in row]
    try:
        _refuse_unknown_keys(header)
        result = _select(_draw_split(header).train, header, {}, labeled)
    except InvalidArgumentError as exc:
        raise TraceFormatError(f"trace header has a bad value: {exc}") from exc
    rendered = trace_to_text(header, result)
    if text == rendered:
        return ReplayOutcome(True)
    recorded = load_trace(path)[1]  # its TraceFormatError names a bad row
    recomputed = trace_columns(result)
    names = list(recomputed)  # v1 order
    lines, expected = text.split("\n"), rendered.split("\n")
    rows = [line for line in lines[2:] if line]
    for row, (was, now) in enumerate(zip(rows, expected[2:-1])):
        if was != now:
            j = next(j for j, (a, b) in enumerate(zip(was.split(","), now.split(","))) if a != b)
            return ReplayOutcome(False, row, names[j], recorded[names[j]][row],
                                 recomputed[names[j]][row])
    if len(rows) != len(expected) - 3:
        row = min(len(rows), len(expected) - 3)
        extra = [side["index"][row] if row < len(side["index"]) else None
                 for side in (recorded, recomputed)]
        return ReplayOutcome(False, row, "index", *extra)
    return ReplayOutcome(False, None, None,
                         *next((a, b) for a, b in zip_longest(lines, expected) if a != b))
