"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared host the speed of a core drifts, by up to 1.8x over tens of
seconds to minutes on the 2-core machine the bounds were set on, and every
workload drifts with it. The benchmark times this loop between its batches,
in its own process, and scales each batch's times by ``REFERENCE_S`` over
the mean of the probes on either side of it (over the run's median probe
when the batches run in several processes). Times are then in reference
seconds: seconds on a machine where the loop takes ``REFERENCE_S``. The loop uses none of
reuselab's code, so a change to the package moves the reported times as
much as it moves the raw ones.

Its three parts, about equal in time, mirror what the workloads spend time
on: the interpreter, NumPy calls on one example, and one example against a
4096-hypothesis grid. Its arrays take under 100 KB, so they add next to
nothing to the peak RSS the benchmark reports.
"""

import math
import statistics
import time

import numpy as np

# Probe time, in seconds, that defines one reference second.
REFERENCE_S = 0.02
# Each probe is the median of this many timings of the loop.
REPEATS = 3

_ONE = np.array([0.3])
_GRID_W = np.linspace(-1.0, 1.0, 8192).reshape(4096, 2)
_GRID_B = np.linspace(-1.0, 1.0, 4096)


def _loop() -> float:
    acc = 0.0
    for i in range(1, 60000):  # the interpreter alone
        acc += math.sqrt(i) * 1.0001
    theta = np.zeros(1)
    for _ in range(2800):  # one-example NumPy calls, as in the IWAL loop
        theta = theta + 1e-6 * float(_ONE @ theta + 1.0)
    x = np.array([0.3, -0.2])
    err = np.zeros(len(_GRID_B))
    for _ in range(200):  # one example against a hypothesis grid
        err += np.where(_GRID_W @ x - _GRID_B >= 0.0, 1, -1) != 1
        acc += int(np.argmin(err))
    return acc + float(theta[0])


def probe_seconds() -> float:
    """Median wall time of ``REPEATS`` runs of the calibration loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
