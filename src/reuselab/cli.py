"""Command-line front end.

Subcommands: ``gen`` (write a synthetic dataset CSV), ``run`` (execute an
experiment from a JSON config), ``replay`` (verify a selection trace), and
``report-merge`` (concatenate report CSVs). Exit codes: 0 success, 2
usage/config error, 3 degenerate results, 4 I/O failure. ``run`` keeps
standard output free of progress text: progress goes to standard error,
and with ``--quiet`` the curve CSV is streamed to standard output with
nothing else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import astuple, replace
from datetime import datetime, timezone

from . import __version__
from .datasets import DatasetSpec, export_csv, make_dataset
from .errors import ConfigError, InvalidArgumentError, ReuselabError, TraceFormatError
from .experiments import (
    ConsumerSpec,
    ExperimentConfig,
    replay_trace,
    run_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

CURVE_COLUMNS = ("strategy", "consumer", "cell", "x_median", "mean_err", "sem",
                 "reps_used", "reps_dropped")
REPORT_COLUMNS = ("strategy", "consumer", "cell", "x_median", "matched_n",
                  "mean_err_al", "mean_err_rd", "delta", "welch_t", "verdict")


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def csv_text(columns, rows) -> str:
    """A header of ``columns``, then one line per dataclass row, fields in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(value) for value in astuple(row)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys are errors)

_TOP_KEYS = {
    "dataset", "test_prop", "repetitions", "strategies", "consumers",
    "n_grid", "c0_grid", "base_seed", "iwal", "selector", "save_traces",
}
_IWAL_KEYS = {"gk_mode", "erm_grid_resolution", "log_base"}
_SELECTOR_KEYS = {"eta0"}
_CONSUMER_KEYS = {"kind", "name", "ridge", "cost", "gamma", "eta0", "passes"}


# ExperimentConfig field -> conversion of its config value. A field the
# config leaves out keeps its default.
_FIELD_VALUES = {
    "test_prop": float,
    "repetitions": lambda v: v,
    "strategies": tuple,
    "n_grid": tuple,
    "c0_grid": lambda v: tuple(float(c) for c in v),
    "base_seed": lambda v: v,
    "gk_mode": lambda v: v,
    "erm_grid_resolution": lambda v: v,
    "log_base": lambda v: v,
    "selector_eta0": float,
    "save_traces": lambda v: v,
}


def _section(raw: dict, key: str, kind: type, default):
    """``raw[key]`` (or ``default``), which must be a JSON object or array."""
    value = raw.get(key, default)
    if not isinstance(value, kind):
        raise ConfigError(f"config.{key} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    for key in ("dataset", "test_prop"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")

    try:
        dataset = DatasetSpec.from_dict(raw["dataset"])
    except (ReuselabError, TypeError) as exc:
        raise ConfigError(f"bad dataset spec: {exc}") from exc

    iwal = _section(raw, "iwal", dict, {})
    _reject_unknown(iwal, _IWAL_KEYS, "config.iwal")
    selector = _section(raw, "selector", dict, {})
    _reject_unknown(selector, _SELECTOR_KEYS, "config.selector")

    kwargs = {}
    if "consumers" in raw:
        consumers = []
        for i, entry in enumerate(_section(raw, "consumers", list, None)):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ConfigError(f"consumer #{i} must be an object with a 'kind'")
            _reject_unknown(entry, _CONSUMER_KEYS, f"consumer #{i}")
            try:
                consumers.append(ConsumerSpec(**entry))
            except (ReuselabError, TypeError) as exc:
                raise ConfigError(f"bad consumer #{i}: {exc}") from exc
        kwargs["consumers"] = tuple(consumers)

    # the iwal and selector keys share no name with a top-level key
    values = {**raw, **iwal, **{f"selector_{k}": v for k, v in selector.items()}}
    try:
        kwargs.update({k: f(values[k]) for k, f in _FIELD_VALUES.items() if k in values})
        return ExperimentConfig(dataset=dataset, **kwargs)
    except (ReuselabError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    spec_kwargs = {"kind": args.kind, "n": args.n, "seed": args.seed}
    if args.kind == "circle":
        spec_kwargs["circle_prob"] = args.circle_prob
    dataset = make_dataset(DatasetSpec(**spec_kwargs))
    export_csv(dataset, args.out)
    print(
        f"wrote {args.out}: instances={len(dataset)} dim={dataset.dim} "
        f"positive_fraction={dataset.positive_fraction():.4f}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.seed is not None:
        config = replace(config, base_seed=args.seed)

    out_dir = args.out_dir or os.environ.get("REUSELAB_OUT_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)

    def progress(done, total):
        if not args.quiet:
            print(f"repetition {done}/{total}", file=sys.stderr)

    try:
        result = run_experiment(config, jobs=args.jobs, progress=progress)
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if all(p.reps_used == 0 for p in result.curve):
        print("error: every cell is empty (all repetitions dropped)", file=sys.stderr)
        return EXIT_DEGENERATE

    curve_text = csv_text(CURVE_COLUMNS, result.curve)
    report_text = csv_text(REPORT_COLUMNS, result.report)
    _write(os.path.join(out_dir, "curve.csv"), curve_text)
    _write(os.path.join(out_dir, "report.csv"), report_text)
    trace_files = []
    if result.traces:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for fname, text in result.traces:
            _write(os.path.join(trace_dir, fname), text)
            trace_files.append(os.path.join("traces", fname))
    manifest = {
        "tool": "reuselab",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "base_seed": result.config.base_seed,
        "n_train": result.n_train,
        "config": result.config.to_dict(),
        "outputs": {"curve": "curve.csv", "report": "report.csv", "traces": trace_files},
    }
    _write(os.path.join(out_dir, "manifest.json"),
           json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if args.quiet:
        sys.stdout.write(curve_text)
    else:
        print(f"wrote {out_dir}/curve.csv, report.csv, manifest.json", file=sys.stderr)
    return EXIT_OK


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_replay(args) -> int:
    outcome = replay_trace(args.trace)
    print(outcome.describe())
    return EXIT_OK if outcome.ok else 1


def cmd_report_merge(args) -> int:
    rows = []
    header = ",".join(REPORT_COLUMNS)
    for path in args.reports:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != header:
            print(f"error: {path} is not a report CSV", file=sys.stderr)
            return EXIT_USAGE
        rows.extend(lines[1:])
    _write(args.out, "\n".join([header] + rows) + "\n")
    print(f"merged {len(args.reports)} reports ({len(rows)} rows) into {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reuselab")
    parser.add_argument("--version", action="version", version=f"reuselab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("kind", choices=["uniform-line", "four-cluster-line", "circle"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--circle-prob", type=float, default=0.001)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", default=None,
                     help="output directory (default: $REUSELAB_OUT_DIR or .)")
    run.add_argument("--seed", type=int, default=None, help="override base_seed")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--quiet", action="store_true",
                     help="no progress; stream the curve CSV to stdout")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("replay", help="re-run a selection trace and verify it")
    rep.add_argument("trace")
    rep.set_defaults(func=cmd_replay)

    merge = sub.add_parser("report-merge", help="concatenate report CSVs")
    merge.add_argument("reports", nargs="+")
    merge.add_argument("--out", required=True)
    merge.set_defaults(func=cmd_report_merge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReuselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
