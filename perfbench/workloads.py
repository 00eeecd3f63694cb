"""The benchmark's three workloads and the checks on their outputs.

Each workload runs in batches. Batch ``b`` of workload seed ``s`` uses base
seed ``s * 1000 + b``, so a seed fixes every input. Each workload targets a
different layer:

- ``line-density``: ``density_histogram`` on the uniform line, serial. The
  time is the per-example IWAL loop with the surrogate ``g``; no consumer,
  split or CSV. A lockstep IWAL kernel shows here; SMO and data-path
  changes must leave it flat.
- ``circle-exact``: ``reuselab run`` on the circle with exact-ERM ``g``,
  traces saved, then ``reuselab replay`` on every IWAL trace. The time is
  the exact-ERM grid, Gaussian fit and score, and trace write, read and
  replay; replay is bit-exact, so drift of one ulp fails a check.
- ``mushroom-table``: ``reuselab run`` with all four strategies on the
  mushroom-like stand-in CSV at ``--jobs 2``. The time is the RBF SMO fits,
  scoring and the per-repetition CSV reload, in a process pool.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from reuselab import cli, experiments
from reuselab.datasets import DatasetSpec
from reuselab.standins import mushroom_schema, write_mushroom_like_csv

# Output hashes are pinned for this workload seed.
DEFAULT_SEED = 1
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass
class Batch:
    """What one batch did, how long it took and what its checks found."""

    reps: int
    wall_s: float
    cpu_s: float
    checks: list[tuple[str, bool]] = field(default_factory=list)
    fits_attempted: int = 0
    fits_dropped: int = 0
    output_bytes: int = 0


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children, user + system."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Workload:
    """Inputs written under ``workdir`` at construction; batches on demand."""

    name = ""
    reps_per_batch = 1
    jobs = 1
    # Seconds of benchmark time per traced batch (a traced run makes each
    # batch twice, once traced and once not).
    seconds_per_traced_batch = 1

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)

    def traced_batches(self, seconds: float) -> int:
        return max(1, int(seconds // self.seconds_per_traced_batch))

    def base_seed(self, b: int) -> int:
        return self.seed * 1000 + b

    def check_hash(self, b: int, label: str, data: bytes) -> list[tuple[str, bool]]:
        """Compare with the pinned hash: first batch of the default seed only."""
        if self.seed != DEFAULT_SEED or b != 0:
            return []
        actual = hashlib.sha256(data).hexdigest()
        expected = EXPECTED[self.name][label]
        return [(f"sha256 {label}: expected {expected}, got {actual}", actual == expected)]


class LineDensity(Workload):
    name = "line-density"
    reps_per_batch = 40
    seconds_per_traced_batch = 5
    C0 = (1.0, 3.0, 10.0)
    BINS = 10

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.spec = DatasetSpec(kind="uniform-line", n=1000)

    def run_batch(self, b: int, jobs: int) -> Batch:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        rows = experiments.density_histogram(
            self.spec, self.C0, runs=self.reps_per_batch, bins=self.BINS,
            base_seed=self.base_seed(b),
        )
        batch = Batch(self.reps_per_batch, time.perf_counter() - t0, _cpu_s() - cpu0)
        for c0 in self.C0:
            mine = [r for r in rows if r.c0 == c0]
            for column in ("unweighted_mass", "weighted_mass"):
                total = sum(getattr(r, column) for r in mine)
                batch.checks.append((f"c0={c0} {column} sums to {total!r}, not 1",
                                     len(mine) == self.BINS and abs(total - 1.0) <= 1e-9))
        text = "".join(
            f"{r.c0!r},{r.bin},{r.lo!r},{r.hi!r},{r.unweighted_mass!r},{r.weighted_mass!r}\n"
            for r in rows
        )
        batch.checks += self.check_hash(b, "density_rows", text.encode())
        return batch


class CliRun(Workload):
    """``reuselab run`` on a JSON config, optionally replaying IWAL traces."""

    replay = False
    config: dict = {}

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.write_inputs()
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        cli.parse_config(self.config_path.read_text())

    def write_inputs(self):
        pass

    def run_batch(self, b: int, jobs: int) -> Batch:
        out = self.workdir / f"batch{b}"
        argv = ["run", "--config", str(self.config_path), "--out-dir", str(out),
                "--jobs", str(jobs), "--seed", str(self.base_seed(b))]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu0, t0 = _cpu_s(), time.perf_counter()
            code = cli.main(argv)
            replays = []
            if self.replay and code == 0:
                for trace in sorted((out / "traces").glob("trace_iwal*")):
                    replays.append((trace.name, cli.main(["replay", str(trace)])))
            batch = Batch(self.reps_per_batch, time.perf_counter() - t0, _cpu_s() - cpu0)
        batch.checks.append((f"run exited {code}: {sink.getvalue()[-500:]}", code == 0))
        if code == 0:
            self.check_outputs(b, out, batch)
        batch.checks += [(f"replay of {name} exited {rc}", rc == 0) for name, rc in replays]
        if self.replay:
            batch.checks.append(("no IWAL traces to replay", bool(replays)))
        batch.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out)
        return batch

    def check_outputs(self, b: int, out: Path, batch: Batch):
        curve = (out / "curve.csv").read_bytes()
        for row in csv.DictReader(io.StringIO(curve.decode())):
            used, dropped = int(row["reps_used"]), int(row["reps_dropped"])
            batch.fits_attempted += used + dropped
            batch.fits_dropped += dropped
            batch.checks.append((
                f"{row['strategy']}/{row['consumer']}/{row['cell']}: "
                f"{used} used + {dropped} dropped != {self.reps_per_batch}",
                used + dropped == self.reps_per_batch,
            ))
        batch.checks += self.check_hash(b, "curve.csv", curve)
        batch.checks += self.check_hash(b, "report.csv", (out / "report.csv").read_bytes())


class CircleExact(CliRun):
    name = "circle-exact"
    reps_per_batch = 10
    seconds_per_traced_batch = 6
    replay = True
    # Acceptance criterion 1's setup, with an LDA consumer and the
    # unweighted IWAL variant added and traces saved for replay.
    config = {
        "dataset": {"kind": "circle", "n": 2000, "circle_prob": 0.001},
        "test_prop": 0.5,
        "repetitions": reps_per_batch,
        "strategies": ["random", "iwal", "iwal-no-weights"],
        "consumers": [{"kind": "qda"}, {"kind": "lda"}],
        "n_grid": [113],
        "c0_grid": [0.01],
        "iwal": {"gk_mode": "exact-erm", "erm_grid_resolution": 64},
        "save_traces": True,
    }


class MushroomTable(CliRun):
    name = "mushroom-table"
    reps_per_batch = 4
    jobs = 2
    seconds_per_traced_batch = 20

    def write_inputs(self):
        csv_path = self.workdir / "mushroom_like.csv"
        write_mushroom_like_csv(csv_path)
        self.config = {
            "dataset": {
                "kind": "csv", "path": str(csv_path), "label_column": "class",
                "positive_values": ["e"], "schema": mushroom_schema(),
            },
            "test_prop": 0.5,
            "repetitions": self.reps_per_batch,
            "strategies": ["random", "uncertainty", "iwal", "iwal-no-weights"],
            "consumers": [{"kind": "least-squares"}, {"kind": "svm-rbf"}],
            "n_grid": [25, 100, 400, 1600],
            "c0_grid": [0.03, 0.3, 3.0],
            "iwal": {"gk_mode": "surrogate"},
        }


WORKLOADS = {w.name: w for w in (LineDensity, CircleExact, MushroomTable)}
