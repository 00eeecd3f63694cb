"""In-memory spans and counters recorded around reuselab's public functions.

The tracer wraps module attributes from outside the package: the names as
bound in ``reuselab.experiments``, ``reuselab.selection`` and
``reuselab.cli``. Those modules import with ``from .x import f``, so each
caller's own binding is the one to replace. Nothing under ``src/`` changes.

A span records (id, name, start, end, parent). Self time is a span's
duration minus the part of it that its child spans cover. Counters are
recorded at the same wrapper boundaries.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

# Consumer fit functions as bound in reuselab.experiments.
FIT_NAMES = ("fit_svm", "fit_qda", "fit_lda", "fit_least_squares", "fit_online_linear")
# Exception classes the repetition engine folds into reps_dropped.
DROP_CLASSES = ("MissingClassError", "SingularDataError", "ConvergenceError")
# Model kinds the workloads score, one self-time metric each.
SCORED_KINDS = ("qda", "lda", "svm-rbf", "least-squares")


class Tracer:
    """Spans and counters for one traced run; single-threaded (jobs=1)."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)

    def patch(self, module, attr, wrapper_factory):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper_factory(original)))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- the wrappers --------------------------------------------------------

    def install(self):
        """Wrap every boundary the per-layer metrics read."""
        from reuselab import cli, experiments, selection

        def spanned(name):
            return lambda fn: lambda *a, **k: self.call(name, fn, *a, **k)

        for attr in ("make_dataset", "split"):
            self.patch(experiments, attr, spanned(f"datasets.{attr}"))
        for attr in ("select_random", "select_uncertainty", "without_weights", "load_trace"):
            self.patch(experiments, attr, spanned(f"selection.{attr}"))
        self.patch(experiments, "aggregate", spanned("experiments.aggregate"))
        self.patch(experiments, "density_histogram",
                   spanned("experiments.density_histogram"))
        self.patch(selection, "pass_uniforms", spanned("seeding.pass_uniforms"))
        self.patch(cli, "cmd_run", spanned("cli.run"))

        def select_iwal(fn):
            def wrapper(train, *a, **k):
                self.counts["selection.select_iwal.examples"] += len(train)
                return self.call("selection.select_iwal", fn, train, *a, **k)
            return wrapper

        def online_linear_update(fn):
            # Counted, not spanned: it runs once per labeled example inside
            # the IWAL loop, whose cost stays in select_iwal's self time.
            def wrapper(*a, **k):
                self.counts["selection.online_linear_update.calls"] += 1
                return fn(*a, **k)
            return wrapper

        def trace_to_text(fn):
            def wrapper(*a, **k):
                text = self.call("selection.trace_to_text", fn, *a, **k)
                self.counts["selection.trace_to_text.bytes"] += len(text.encode())
                return text
            return wrapper

        def fit(name):
            def factory(fn):
                def wrapper(samples, *a, **k):
                    try:
                        model = self.call(f"learners.{name}", fn, samples, *a, **k)
                    except Exception as exc:
                        cls = type(exc).__name__
                        key = cls if cls in DROP_CLASSES else "other"
                        self.counts[f"learners.fit.failed.{key}"] += 1
                        raise
                    if name == "fit_svm":
                        rows = len(samples)
                        self.counts["learners.fit_svm.rows"] += rows
                        self.counts["learners.fit_svm.iterations"] += model.iterations
                        self.counts["learners.fit_svm.matrix_bytes"] += 2 * rows * rows * 8
                    return model
                return wrapper
            return factory

        def zero_one_error(fn):
            def wrapper(model, dataset):
                return self.call(f"learners.zero_one_error.{model.kind}", fn, model, dataset)
            return wrapper

        def replay_trace(fn):
            def wrapper(path):
                outcome = self.call("experiments.replay_trace", fn, path)
                self.counts["experiments.replay_trace.failed"] += 0 if outcome.ok else 1
                return outcome
            return wrapper

        def run_experiment(fn):
            return lambda *a, **k: self.call("experiments.run_experiment", fn, *a, **k)

        self.patch(experiments, "select_iwal", select_iwal)
        self.patch(selection, "online_linear_update", online_linear_update)
        self.patch(experiments, "trace_to_text", trace_to_text)
        for attr in FIT_NAMES:
            self.patch(experiments, attr, fit(attr))
        self.patch(experiments, "zero_one_error", zero_one_error)
        self.patch(cli, "replay_trace", replay_trace)
        self.patch(cli, "run_experiment", run_experiment)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for span_id, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[span_id] = (end - start) - covered
        return out

    def rep_latencies(self) -> list[float]:
        """Seconds per repetition inside each run_experiment/density_histogram.

        A repetition starts with its pool draw (``make_dataset``); the first
        draw under each call is the size probe and starts no repetition. The
        last repetition ends where ``aggregate`` starts, or with the call.
        """
        by_parent = defaultdict(list)
        for span in self.spans:
            by_parent[span[4]].append(span)
        out = []
        for span_id, name, _, end, _ in self.spans:
            if name not in ("experiments.run_experiment", "experiments.density_histogram"):
                continue
            kids = sorted(by_parent[span_id], key=lambda s: s[2])
            starts = [s[2] for s in kids if s[1] == "datasets.make_dataset"][1:]
            stop = next((s[2] for s in kids if s[1] == "experiments.aggregate"), end)
            bounds = starts + [stop]
            out.extend(b - a for a, b in zip(bounds, bounds[1:]))
        return out

    def write(self, path):
        """Write spans and counters as JSON when the run ends."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [
                    {"id": i, "name": n, "start": s, "end": e, "parent": p}
                    for i, n, s, e, p in self.spans
                ],
                "counts": dict(self.counts),
            }, fh)


# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "datasets.make_dataset.calls": "count",
    "datasets.make_dataset.self_s": "s",
    "datasets.split.self_s": "s",
    "seeding.pass_uniforms.calls": "count",
    "seeding.pass_uniforms.self_s": "s",
    "selection.select_iwal.calls": "count",
    "selection.select_iwal.examples": "count",
    "selection.select_iwal.self_s": "s",
    "selection.select_iwal.us_per_example": "us",
    "selection.online_linear_update.calls": "count",
    "selection.select_random.self_s": "s",
    "selection.select_uncertainty.self_s": "s",
    "selection.without_weights.self_s": "s",
    "selection.trace_to_text.self_s": "s",
    "selection.trace_to_text.bytes": "bytes",
    "selection.load_trace.self_s": "s",
    "experiments.replay_trace.calls": "count",
    "experiments.replay_trace.self_s": "s",
    "experiments.replay_trace.failed": "count",
    "learners.fit_svm.calls": "count",
    "learners.fit_svm.self_s": "s",
    "learners.fit_svm.ms_per_fit": "ms",
    "learners.fit_svm.iterations": "count",
    "learners.fit_svm.rows": "count",
    "learners.fit_svm.matrix_bytes": "bytes_computed",
    **{f"learners.{name}.self_s": "s" for name in FIT_NAMES[1:]},
    **{f"learners.zero_one_error.{kind}.self_s": "s" for kind in SCORED_KINDS},
    **{f"learners.fit.failed.{cls}": "count" for cls in DROP_CLASSES + ("other",)},
    "experiments.run_experiment.wall_s": "s",
    "experiments.density_histogram.wall_s": "s",
    "experiments.aggregate.self_s": "s",
    "experiments.rep_p50_ms": "ms",
    "experiments.rep_p90_ms": "ms",
    "experiments.rep_samples": "count",
    "experiments.dropped_ratio": "ratio",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "bench.trace_overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, bench_counts: dict) -> dict[str, float]:
    """Per-layer values from the spans and counters.

    ``bench_counts`` holds what the benchmark measured outside the wrappers:
    ``cli.output_bytes`` and ``bench.trace_overhead_ratio``. The caller sets
    ``experiments.dropped_ratio``, which it also prints as an end-to-end line.
    """
    self_of = tracer.self_times()
    self_s, calls, wall = Counter(), Counter(), Counter()
    for span_id, name, start, end, _ in tracer.spans:
        self_s[name] += self_of[span_id]
        calls[name] += 1
        wall[name] += end - start
    counts = tracer.counts
    out = {name: 0.0 for name in LAYER_UNITS}
    for name in LAYER_UNITS:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_s[base]
        elif field == "wall_s":
            out[name] = wall[base]
        elif name in counts:
            out[name] = counts[name]
        elif field == "calls":
            out[name] = calls[base]
    examples = counts["selection.select_iwal.examples"]
    if examples:
        out["selection.select_iwal.us_per_example"] = (
            self_s["selection.select_iwal"] / examples * 1e6)
    if calls["learners.fit_svm"]:
        out["learners.fit_svm.ms_per_fit"] = (
            self_s["learners.fit_svm"] / calls["learners.fit_svm"] * 1e3)
    reps = tracer.rep_latencies()
    if len(reps) >= 2:
        deciles = statistics.quantiles(reps, n=10)
        out["experiments.rep_p50_ms"] = deciles[4] * 1e3
        out["experiments.rep_p90_ms"] = deciles[8] * 1e3
    elif reps:
        out["experiments.rep_p50_ms"] = out["experiments.rep_p90_ms"] = reps[0] * 1e3
    out["experiments.rep_samples"] = len(reps)
    out.update(bench_counts)
    return out
