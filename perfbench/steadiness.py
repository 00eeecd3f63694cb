"""Run the benchmark over many seeds and record how steady each metric is.

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 [--workload NAME ...]

For every workload and end-to-end metric it records each run's value, the
median and quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and with two sets how far the second median moved from
the first, both as a share of the bound in ``BENCHMARK.json``. The raw
times, before scaling to reference seconds, are summarized beside them.
Results go to ``perfbench/STEADINESS.json`` (or ``--out``), merged into what is there, so
workloads can be measured one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(line[len("# env "):] for line in lines if line.startswith("# env "))
    raw = next(line.split() for line in lines if line.startswith("# raw "))
    return {"result": json.loads(lines[-1]), "env": json.loads(env),
            "raw": {"reps_per_s": float(raw[3]), "cpu_s_per_rep": float(raw[6]),
                    "setup_s": float(raw[9])}}


def summarize(values: list[float], bound: float | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["spread_over_bound"] = spread / bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=str(HERE / "STEADINESS.json"))
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    out_path = Path(args.out)
    report = json.loads(out_path.read_text()) if out_path.exists() else {}
    report["run_seconds"] = bench["run_seconds"]

    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_once(bench, workload, seed))
                r = runs[-1]["result"]
                print(f"{workload} set {s} seed {seed}: correct={r['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append({
                "seeds": seeds,
                "all_correct": all(r["result"]["correct"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "metrics": {
                    name: summarize([r["result"]["metrics"][name]["value"] for r in runs],
                                    bounds[name])
                    for name in bounds
                },
                "raw_unscaled": {
                    name: summarize([r["raw"][name] for r in runs])
                    for name in ("setup_s", "reps_per_s", "cpu_s_per_rep")
                },
            })
        entry = {"env": runs[-1]["env"], "sets": sets}
        if len(sets) > 1:
            entry["median_drift_over_bound"] = {
                name: abs(sets[-1]["metrics"][name]["median"] / sets[0]["metrics"][name]["median"]
                          - 1.0) / bounds[name]
                for name in bounds
            }
        report.setdefault("workloads", {})[workload] = entry
        out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
