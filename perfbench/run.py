"""reuselab benchmark: one workload per call, one JSON result line at the end.

    python3 perfbench/run.py --workload circle-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The load is closed-loop from one process (``mushroom-table`` adds a
pool of two workers through ``--jobs 2``), with BLAS and OpenMP pinned to one
thread. Inputs come only from ``--seed``.

``--trace 0`` reports the end-to-end metrics. It times set-up (the median of
nine fresh processes that import, write the inputs and parse the config),
then repeats batches until ``--seconds`` have passed and reports repetitions
per second and CPU seconds (process and children, user and system) per
repetition over all batches, and peak RSS. All times are in reference
seconds, which take out the drift of the shared host's speed; it moved raw
throughput by up to 1.8x from one run to the next. Each set-up process is
timed against a bare interpreter start just before it (see
``measure_setup``), the batches against a calibration loop timed between
them (see ``speed.py``). The raw values are printed as well.

``--trace 1`` makes a fixed number of batches at ``--jobs 1``, each once
untraced and once traced, and reports the per-layer metrics from spans and
counters recorded around the package's public functions; the spans are
written to ``.bench_work/``.

Every batch checks its outputs (see ``workloads.py``); ``failed`` counts the
checks that did not hold. Lines before the last one name each metric with its
unit and record the machine, library versions and thread settings.
"""

import os
import sys

# Before numpy is imported, here or in any child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from spans import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
# Set-up is timed against this bare start, in units where it takes
# START_REFERENCE_S (see measure_setup).
BARE_START = (sys.executable, "-c", "import numpy")
START_REFERENCE_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "cpu_s_per_rep": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up the workload in DIR and exit (timed by the parent).
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _timed(cmd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(args, work: Path) -> tuple[float, float]:
    """Median set-up time of fresh processes that import, write the inputs
    and parse the config, then exit: (reference seconds, raw seconds).

    Each is timed right after a bare interpreter that imports NumPy and
    scaled so that the bare start takes ``START_REFERENCE_S``: the two
    drift together with the host, and the ratio keeps only what reuselab
    and the workload's inputs add.
    """
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES):
        bare = _timed(BARE_START)
        target = work / f"setup{i}"
        took = _timed([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(target)])
        shutil.rmtree(target)
        raw.append(took)
        scaled.append(took * START_REFERENCE_S / bare)
    return statistics.median(scaled), statistics.median(raw)


def run_untraced(args, workload, work: Path):
    # Imported here, so that set-up processes do not load it.
    from speed import REFERENCE_S, probe_seconds

    setup_s, raw_setup_s = measure_setup(args, work)
    probe_seconds()  # warm up
    runner = workload(work / "main", args.seed)
    batches, probes, start = [], [probe_seconds()], time.perf_counter()
    while True:
        batches.append(runner.run_batch(len(batches), runner.jobs))
        probes.append(probe_seconds())
        if time.perf_counter() - start >= args.seconds:
            break
    # Reference seconds per raw second, for each batch.
    if runner.jobs == 1:
        # The probe runs where the batch ran, and the host's speed moves
        # within seconds: scale each batch by the probes on either side of it.
        scales = [2 * REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
    else:
        # The batch keeps every core busy and the probe runs on one core
        # after it, so one probe says little about the batch beside it; the
        # run's median probe still follows the drift from run to run.
        scales = [REFERENCE_S / statistics.median(probes)] * len(batches)
    reps = sum(b.reps for b in batches)
    wall = sum(b.wall_s for b in batches)
    cpu = sum(b.cpu_s for b in batches)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(f"# raw reps_per_s {reps / wall:.6g} 1/s, cpu_s_per_rep {cpu / reps:.6g} s, "
          f"setup_s {raw_setup_s:.6g} s; "
          f"median reference s per s {statistics.median(scales):.4g}")
    metrics = {
        "setup_s": setup_s,
        "reps_per_s": reps / sum(b.wall_s * k for b, k in zip(batches, scales)),
        "cpu_s_per_rep": sum(b.cpu_s * k for b, k in zip(batches, scales)) / reps,
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, END_TO_END_UNITS, batches


def run_traced(args, workload, work: Path):
    runner = workload(work / "main", args.seed)
    tracer = Tracer()
    plain, traced = [], []
    for b in range(runner.traced_batches(args.seconds)):
        # Alternate which side runs first so warm-up does not bias the overhead.
        for with_spans in ((False, True) if b % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
            try:
                (traced if with_spans else plain).append(runner.run_batch(b, 1))
            finally:
                tracer.restore()
    tracer.write(WORK / f"spans_{args.workload}_seed{args.seed}.json")
    metrics = layer_metrics(tracer, {
        "cli.output_bytes": sum(b.output_bytes for b in traced),
        "bench.trace_overhead_ratio":
            sum(b.wall_s for b in traced) / sum(b.wall_s for b in plain) - 1.0,
    })
    batches = plain + traced
    return metrics, LAYER_UNITS, batches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reuselab" / "__init__.py").is_file():
        print(f"error: no reuselab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        workload(Path(args.setup_only), args.seed)
        return 0

    work = WORK / f"{args.workload}_seed{args.seed}_pid{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        metrics, units, batches = run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for b in batches for c in b.checks]
    failures = [what for what, ok in checks if not ok]
    for what in failures:
        print(f"check failed: {what}", file=sys.stderr)
    fits = sum(b.fits_attempted for b in batches)
    dropped_ratio = sum(b.fits_dropped for b in batches) / fits if fits else 0.0
    if args.trace:
        metrics["experiments.dropped_ratio"] = dropped_ratio

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} batches={len(batches)} "
          f"reps={sum(b.reps for b in batches)} trace={args.trace}")
    print("# batch reps_per_s " + " ".join(f"{b.reps / b.wall_s:.4g}" for b in batches))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ratio {len(failures) / len(checks):.6g} ratio")
    print(f"dropped_ratio {dropped_ratio:.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
