"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE T0 OUT

MODE is ``plain`` (no tracing), ``traced`` (spans and counters) or
``alloc`` (tracemalloc peaks). T0 is the runner's ``time.perf_counter()``
just before it started this process; the set-up time runs from T0 until
``import eebounds`` returns. The package is imported from the ``src``
directory named by PYTHONPATH. The calibration kernels (calibrate.py)
run right after the import and between jobs, outside every timed
interval. The result is written to OUT as JSON.
"""

import sys
import time

import eebounds

_SETUP_END = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import eebounds.cli  # noqa: E402,F401  (imported before the pass, not timed)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> None:
    workload, seed, mode, t0, out = sys.argv[1:6]
    seed, t0 = int(seed), float(t0)
    workdir = os.path.dirname(os.path.abspath(out))
    results: dict = {}
    jobs = workloads.build(workload, seed, workdir, results)
    tracer = Tracer(alloc=(mode == "alloc")) if mode != "plain" else None
    if tracer:
        tracer.install()

    records = []
    clock = time.perf_counter
    calibrate.sample()  # the kernels' first runs pay one-time costs; not used
    samples = [(clock(), calibrate.sample())]
    for job in jobs:
        if clock() - samples[-1][0] >= calibrate.EVERY_S:
            samples.append((clock(), calibrate.sample()))
        j0 = clock()
        try:
            output, error = job.run(), None
        except Exception as exc:  # a failing job is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append((job, j0, clock(), error))
        results[job.name] = output
    spans = [(j0, j1) for _, j0, j1, _ in records]
    samples.append((clock(), calibrate.sample()))
    by_gauge = {
        g: calibrate.job_factors([(t, k[g]) for t, k in samples], spans, ref)
        for g, ref in calibrate.REF_SECONDS.items()
    }
    factors = [by_gauge[job.gauge][i] for i, (job, *_) in enumerate(records)]
    # Importing is Python-level work, gauged by the kernel runs in the second
    # after it.
    setup_factor = calibrate.job_factors([(t, k["python"]) for t, k in samples],
                                         [(t0, _SETUP_END)], calibrate.REF_SECONDS["python"])[0]
    wall = sum(j1 - j0 for j0, j1 in spans)

    report = {
        "module": os.path.abspath(eebounds.__file__),
        "setup_s": (_SETUP_END - t0) * setup_factor,
        "setup_raw_s": _SETUP_END - t0,
        "wall_raw_s": wall,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration": samples,
        "jobs": [
            {"name": job.name, "seconds": j1 - j0, "gauge": job.gauge, "factor": f, "error": err,
             "output": results[job.name], "check": job.check, "meta": job.meta}
            for (job, j0, j1, err), f in zip(records, factors)
        ],
    }
    if tracer:
        tracer.uninstall()
        layers, ok = tracer.metrics(wall, workloads.nproc())
        report["trace_ok"] = ok
        if mode == "alloc":
            report["layers"] = {f"{k}.peak_alloc_mb": v / 2**20 for k, v in tracer.peak_alloc.items()}
        else:
            report["layers"] = layers
            tracer.write(os.path.join(workdir, f"spans-{workload}.jsonl"))
    with open(out, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
