"""Fixed CPU kernels that gauge the machine's current speed.

On a shared machine the CPU speed drifts by tens of percent over seconds to
minutes, and the drift swamps the run-to-run comparison the benchmark
exists for. It does not slow all code alike: Python-level float code slows
by up to a factor of two while large-array numpy code slows much less. So
there are two gauges, each a kernel doing one kind of work:

- ``python``: Python-level float math and calls, an element-by-element scan
  into a numpy array and small numpy reductions, like the bounds, the root
  finders and the finite-n union-bound sums;
- ``array``: a popcount table gather and a stable row-wise argsort over a
  2048 x 128 array, like the exhaustive oracle and the simulators.

Every job names its gauge (workloads.Job.gauge). The worker runs both
kernels between jobs, at most every EVERY_S seconds and once before and
after the pass, and scales each job's wall time by REF_SECONDS[gauge] /
(median time of that gauge's kernel around the job). Timings are thus
reported in *reference seconds*: the time the job would take on a machine
where the kernel takes REF_SECONDS. The import time is scaled the same way,
by the ``python`` gauge. The kernels do not call eebounds, so a change to
the package moves the scaled times exactly as it moves the raw ones; the raw
times are kept in every result.

The scaling assumes the package leaves no work running between jobs, since
such work would slow the kernels as well.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# About each kernel's time on a 2-core x86-64 machine, Python 3.11, numpy 2.4.
REF_SECONDS = {"python": 4.0e-3, "array": 3.0e-3}
EVERY_S = 0.25
WINDOW_S = 1.0

_WORDS = np.random.default_rng(20040710).integers(0, 1 << 14, size=(2048, 128), dtype=np.uint32)
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def python_kernel() -> float:
    """Wall time of one run of the ``python`` gauge's kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 3000):
        x = i * 5e-4
        s += _f(x) - math.log1p(x)
    xs = np.linspace(0.1, 1.4, 1500)
    vals = np.empty_like(xs)
    for i, x in enumerate(xs):
        vals[i] = _f(float(x))
    s += float(vals[int(np.argmax(vals))])
    v = np.linspace(0.1, 1.0, 256)
    for _ in range(80):
        s += float(np.sum(np.log(v) * np.exp(-v))) + float(np.max(v))
    if not math.isfinite(s):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - t0


def _f(x: float) -> float:
    return math.cos(x) / math.sin(x) + math.tan(x / 2.0 + 0.01) ** 2


def array_kernel() -> float:
    """Wall time of one run of the ``array`` gauge's kernel: distances from
    every row to the first, as the oracle computes them, and the two nearest
    by a stable sort."""
    t0 = time.perf_counter()
    dist = _POPCOUNT[_WORDS ^ _WORDS[:1, :]].astype(np.int16)
    order = np.argsort(dist, axis=1, kind="stable")
    s = int(np.take_along_axis(dist, order[:, :2], axis=1).sum())
    if s < 0:
        raise ArithmeticError("calibration kernel overflowed")
    return time.perf_counter() - t0


KERNELS = {"python": python_kernel, "array": array_kernel}


def sample() -> dict[str, float]:
    """One run of every gauge's kernel."""
    return {gauge: kernel() for gauge, kernel in KERNELS.items()}


def job_factors(samples: list[tuple[float, float]], jobs: list[tuple[float, float]],
                ref: float) -> list[float]:
    """``ref`` over the median kernel time near each job.

    ``samples`` holds (clock time, kernel seconds) of one gauge in clock
    order, ``jobs`` the (start, end) clock times of the jobs; samples never
    fall inside a job. A job's samples are those within WINDOW_S of it,
    together with the last one before it and the first one after it: single
    kernel runs are noisy, and a median of several tracks the machine's
    speed better.
    """
    times = [t for t, _ in samples]
    factors = []
    for t0, t1 in jobs:
        before = max(bisect.bisect_right(times, t0) - 1, 0)
        after = min(bisect.bisect_left(times, t1), len(times) - 1)
        lo = min(bisect.bisect_left(times, t0 - WINDOW_S), before)
        hi = max(bisect.bisect_right(times, t1 + WINDOW_S), after + 1)
        factors.append(ref / statistics.median(k for _, k in samples[lo:hi]))
    return factors
