"""Command-line front end.

Subcommands: ``gen`` (write a synthetic dataset CSV), ``run`` (execute an
experiment from a JSON config), ``replay`` (verify a selection trace), and
``report-merge`` (concatenate report CSVs). Exit codes: 0 success, 1 a
``replay`` divergence, a data error (such as ``DataFormatError``,
``SingleClassDataError`` or ``UnknownCategoryError``) or running out of
memory, 2 usage/config error, 3 degenerate results, 4 I/O failure.
``run`` keeps standard output free of progress text: progress goes to
standard error, and with ``--quiet`` the curve CSV is streamed to
standard output with nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, astuple, fields, replace
from datetime import datetime, timezone

from . import __version__
from .datasets import (
    GENERATOR_KINDS,
    DatasetSpec,
    csv_text,
    export_csv,
    make_dataset,
    read_text,
    write_text,
)
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


# ---------------------------------------------------------------------------
# Config file <-> ExperimentConfig. The dataclasses are the schema: a file key
# is a field name, except that these sections nest fields, by key -> field.

_SECTIONS = {
    "iwal": {key: key for key in ("gk_mode", "erm_grid_resolution", "log_base")},
    "selector": {"eta0": "selector_eta0"},
}


def _object(value, where: str, allowed) -> dict:
    """``value``, which must be a JSON object whose keys are all in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    return value


def _build(cls, value, where: str):
    """``cls`` from a JSON object of its fields; ``where`` names it in errors."""
    try:
        return cls(**_object(value, where, {f.name for f in fields(cls)}))
    except (ReuselabError, TypeError) as exc:  # TypeError: a required key is missing
        raise ConfigError(f"bad {where}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """The ExperimentConfig of a config file, every value checked."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    nested = {name for keys in _SECTIONS.values() for name in keys.values()}
    top = {f.name for f in fields(ExperimentConfig)} - nested | set(_SECTIONS)
    kwargs = {k: v for k, v in _object(raw, "config", top).items() if k not in _SECTIONS}
    for section, keys in _SECTIONS.items():
        values = _object(raw.get(section, {}), f"config.{section}", keys)
        kwargs.update((keys[k], v) for k, v in values.items())
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"config is missing required key {f.name!r}")
    kwargs["dataset"] = _build(DatasetSpec, kwargs["dataset"], "dataset spec")
    if "consumers" in kwargs:
        if not isinstance(kwargs["consumers"], list):
            raise ConfigError("config.consumers must be a JSON array")
        kwargs["consumers"] = [_build(ConsumerSpec, c, f"consumer #{i}")
                               for i, c in enumerate(kwargs["consumers"])]
    try:
        return ExperimentConfig(**kwargs)
    except ReuselabError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON object that ``parse_config`` reads back as ``config``."""
    out = {f.name: getattr(config, f.name) for f in fields(config)}
    for section, keys in _SECTIONS.items():
        out[section] = {k: out.pop(name) for k, name in keys.items()}
    out["dataset"] = config.dataset.to_dict()
    out["consumers"] = [asdict(c) for c in config.consumers]
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    # circle_prob is read by the circle kind only
    spec = DatasetSpec(kind=args.kind, n=args.n, seed=args.seed, circle_prob=args.circle_prob)
    dataset = make_dataset(spec)
    export_csv(dataset, args.out)
    print(
        f"wrote {args.out}: instances={len(dataset)} dim={dataset.dim} "
        f"positive_fraction={dataset.positive_fraction():.4f}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise InvalidArgumentError(f"--jobs must be at least 1, not {args.jobs}")
    config = parse_config(read_text(args.config, ConfigError))
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

    curve_text = csv_text(CURVE_COLUMNS, map(astuple, result.curve))
    write_text(os.path.join(out_dir, "curve.csv"), curve_text)
    write_text(os.path.join(out_dir, "report.csv"),
               csv_text(REPORT_COLUMNS, map(astuple, result.report)))
    trace_files = []
    if result.traces:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for fname, text in result.traces:
            write_text(os.path.join(trace_dir, fname), text)
            trace_files.append(os.path.join("traces", fname))
    manifest = {
        "tool": "reuselab",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "base_seed": result.config.base_seed,
        "n_train": result.n_train,
        "config": config_to_dict(result.config),
        "outputs": {"curve": "curve.csv", "report": "report.csv", "traces": trace_files},
    }
    write_text(os.path.join(out_dir, "manifest.json"),
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if args.quiet:
        sys.stdout.write(curve_text)
    else:
        print(f"wrote {out_dir}/curve.csv, report.csv, manifest.json", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args) -> int:
    outcome = replay_trace(args.trace)
    print(outcome.describe())
    return EXIT_OK if outcome.ok else 1


def cmd_report_merge(args) -> int:
    rows = []
    header = ",".join(REPORT_COLUMNS)
    for path in args.reports:
        lines = read_text(path, InvalidArgumentError).splitlines()
        if not lines or lines[0] != header:
            print(f"error: {path} is not a report CSV", file=sys.stderr)
            return EXIT_USAGE
        rows.extend(lines[1:])
    write_text(args.out, "\n".join([header] + rows) + "\n")
    print(f"merged {len(args.reports)} reports ({len(rows)} rows) into {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reuselab")
    parser.add_argument("--version", action="version", version=f"reuselab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("kind", choices=GENERATOR_KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--circle-prob", type=float, default=0.001)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", default=None,
                     help="output directory (default: $REUSELAB_OUT_DIR or .)")
    run.add_argument("--seed", type=int, default=None, help="override base_seed")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--quiet", action="store_true",
                     help="no progress; stream the curve CSV to stdout")

    rep = sub.add_parser("replay", help="re-run a selection trace and verify it")
    rep.add_argument("trace")

    merge = sub.add_parser("report-merge", help="concatenate report CSVs")
    merge.add_argument("reports", nargs="+")
    merge.add_argument("--out", required=True)
    return parser


# One parser per process and generator-kinds tuple: in-process callers (a
# replay loop, the benchmark) would otherwise rebuild it on every call.
_PARSERS: dict[tuple, argparse.ArgumentParser] = {}


def main(argv=None) -> int:
    if GENERATOR_KINDS not in _PARSERS:
        _PARSERS[GENERATOR_KINDS] = build_parser()
    try:
        args = _PARSERS[GENERATOR_KINDS].parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up at call time, so a replaced cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, TraceFormatError, InvalidArgumentError) as exc:
        prefix = {ConfigError: "config ", TraceFormatError: "trace "}.get(type(exc), "")
        print(f"{prefix}error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReuselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a pool or grid too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
