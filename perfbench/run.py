"""eebounds benchmark.

    python3 perfbench/run.py --workload sweep|finite|monte_carlo --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each pass over the workload's fixed job list runs in a
fresh interpreter (worker.py), so import cost and the ``spherical_landmarks``
memo start cold, as they do for a command-line user. Passes are closed-loop:
one client, each job starting when the previous one ends. Passes repeat until
``--seconds`` have elapsed, at least MIN_PASSES[workload] times, and until
the pooled job latencies have ten samples beyond their 90th percentile.

Job times are in reference seconds: each job's wall time is scaled by the
speed of the machine at that moment, gauged by a fixed kernel that does the
job's kind of work, run between jobs (calibrate.py); ``setup_s`` is scaled
by the ``python`` gauge. The raw medians are in the context line and the
result file.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
printed. With ``--trace 1`` each round adds a traced pass (spans around every
public function, see tracer.py) and a tracemalloc pass, and the per-layer
metrics are printed, together with the import-time breakdown from
``python -X importtime``.

Every job output is checked against perfbench/reference (see check.py). The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run's context, and the full result is written to
``.perfbench/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

# Fewest untraced passes per run. A finite pass is dominated by a few
# second-long jobs, and its wall time needs the median of three passes to
# stay steady; a sweep pass has hundreds of jobs and two suffice. The tail
# rule below asks monte_carlo for three anyway.
MIN_PASSES = {"sweep": 2, "finite": 3, "monte_carlo": 3}
HARD_CAP_S = 140.0  # stop starting passes; every run must end within 180 s
PASS_TIMEOUT_S = 120.0
TAIL_Q, TAIL_BEYOND = 0.9, 10
IMPORTTIME_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "rss_peak_mb": "MB",
}
MODULES = ("eebounds", "numerics", "binary", "spherical", "finite", "simulate", "cli")
PER_LAYER = {
    "numerics.self_s": "s",
    "numerics.solves": "count",
    "numerics.f_evals": "count",
    "numerics.evals_per_solve": "evals/solve",
    "numerics.log_sum_calls": "count",
    "binary.self_s": "s",
    "binary.calls": "count",
    "binary.invalid_frac": "ratio",
    "spherical.self_s": "s",
    "spherical.elias_theta_calls": "count",
    "spherical.decoding_radius_calls": "count",
    "spherical.landmarks_cold_s": "s",
    "spherical.invalid_frac": "ratio",
    "finite.self_s": "s",
    "finite.union_bound_s": "s",
    "finite.oracle_s": "s",
    "finite.oracle_words_per_s": "1/s",
    "finite.peak_alloc_mb": "MB",
    "simulate.self_s": "s",
    "simulate.trials_per_s": "1/s",
    "simulate.bsc_trials_per_s": "1/s",
    "simulate.awgn_trials_per_s": "1/s",
    "simulate.cone_trials_per_s": "1/s",
    "simulate.parallel_efficiency": "ratio",
    "simulate.peak_alloc_mb": "MB",
    "cli.self_s": "s",
    "cli.calls": "count",
    **{f"setup.import_{m}_s": "s" for m in MODULES},
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_other_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.harness_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a worker crashed)."""


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated q-quantile of the samples."""
    xs = sorted(samples)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the q-quantile's position."""
    return n - 1 - math.floor((n - 1) * q)


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def probe_import() -> None:
    """Import the package once, untimed: it must come from this checkout's
    ``src``, and its bytecode cache is written before anything is timed."""
    code = "import eebounds, eebounds.cli; print(eebounds.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    path = proc.stdout.strip()
    if proc.returncode != 0 or not path.startswith(SRC + os.sep):
        raise BenchError(f"eebounds is not importable from {SRC}: {proc.stderr.strip() or path}")


def run_worker(workload: str, seed: int, mode: str) -> dict:
    out = os.path.join(WORKDIR, f"pass-{workload}-{mode}.json")
    if os.path.exists(out):
        os.remove(out)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, repr(t0), out],
        env=python_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} failed:\n{proc.stderr[-4000:]}")
    with open(out) as fh:
        report = json.load(fh)
    if not report["module"].startswith(SRC + os.sep):
        raise BenchError(f"worker imported {report['module']}, not the package under {SRC}")
    return report


def import_breakdown() -> dict:
    """setup.* metrics: self time per module under ``python -X importtime``,
    the median of a few probes. numpy and scipy are summed over their
    submodules; everything else outside eebounds is ``other``."""
    probes = []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eebounds.cli"],
                              env=python_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr[-4000:]}")
        probes.append(parse_importtime(proc.stderr))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text: str) -> dict:
    out = {f"setup.import_{m}_s": 0.0 for m in MODULES}
    out.update({"setup.import_numpy_s": 0.0, "setup.import_scipy_s": 0.0, "setup.import_other_s": 0.0})
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_s, module = int(m.group(1)) * 1e-6, m.group(4)
        top, _, sub = module.partition(".")
        if top == "eebounds":
            key = f"setup.import_{sub or 'eebounds'}_s"
        elif top in ("numpy", "scipy"):
            key = f"setup.import_{top}_s"
        else:
            key = "setup.import_other_s"
        out[key] = out.get(key, 0.0) + self_s
    return out


def load_reference(workload: str, seed: int) -> dict:
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["variants"][str(workloads.variant_of(seed))]


def check_pass(report: dict, ref: dict) -> list[str]:
    """Names and reasons of the jobs of one pass that fail their check."""
    outputs = {j["name"]: j["output"] for j in report["jobs"]}
    failures = []
    for job in report["jobs"]:
        key = job["meta"].get("ref", job["name"])
        if key not in ref:
            failures.append(f"{job['name']}: no reference")
            continue
        reason = check.check_job(job, ref[key], outputs)
        if reason:
            failures.append(f"{job['name']}: {reason}")
    return failures


def context() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "eebounds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


def ref_times(report: dict) -> list[float]:
    """The pass's job times in reference seconds (see calibrate.py)."""
    return [j["seconds"] * j["factor"] for j in report["jobs"]]


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    walls = [sum(ref_times(p)) for p in plain]
    latencies = [t for p in plain for t in ref_times(p)]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": statistics.median(walls),
        "points_per_s": len(plain[0]["jobs"]) / statistics.median(walls),
        "point_p50_ms": percentile(latencies, 0.5) * 1e3,
        "point_p90_ms": percentile(latencies, TAIL_Q) * 1e3,
        "rss_peak_mb": statistics.median(p["rss_peak_mb"] for p in plain),
    }
    detail = {
        "passes": len(plain), "point_samples": len(latencies),
        "p90_samples_beyond": samples_beyond(len(latencies), TAIL_Q),
        "raw_wall_s": statistics.median(p["wall_raw_s"] for p in plain),
        "raw_setup_s": statistics.median(p["setup_raw_s"] for p in plain),
        "kernel_s": {g: statistics.median(k[g] for p in plain for _, k in p["calibration"])
                     for g in plain[0]["calibration"][0][1]},
    }
    return metrics, detail


def per_layer(plain: list[dict], traced: list[dict], alloc: list[dict], imports: dict) -> dict:
    """Per-layer metrics, medians over passes. Times and rates of the traced
    passes are scaled to reference seconds by the pass's mean factor; the
    import-time breakdown is raw."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("setup."):
            metrics[name] = imports[name]
        elif name.endswith("peak_alloc_mb"):
            metrics[name] = statistics.median(p["layers"].get(name, 0.0) for p in alloc)
        elif name != "trace.overhead_frac":
            scale = {"s": 1, "1/s": -1}.get(unit, 0)
            metrics[name] = statistics.median(
                p["layers"][name] * (sum(ref_times(p)) / p["wall_raw_s"]) ** scale for p in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(ref_times(p)) for p in traced)
        / statistics.median(sum(ref_times(p)) for p in plain) - 1.0
    )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORKDIR, exist_ok=True)
    ref = load_reference(workload, seed)
    probe_import()
    modes = ("plain", "traced", "alloc") if trace else ("plain",)
    passes: dict = {m: [] for m in modes}
    start = time.perf_counter()
    while True:
        for mode in modes:
            passes[mode].append(run_worker(workload, seed, mode))
        elapsed = time.perf_counter() - start
        samples = sum(len(p["jobs"]) for p in passes["plain"])
        enough = elapsed >= seconds and (
            trace or (len(passes["plain"]) >= MIN_PASSES[workload]
                      and samples_beyond(samples, TAIL_Q) >= TAIL_BEYOND)
        )
        if enough or elapsed >= HARD_CAP_S:
            break

    attempted, failures, trace_ok = 0, [], True
    for mode in modes:
        for report in passes[mode]:
            attempted += len(report["jobs"])
            failures += [f"{mode}: {f}" for f in check_pass(report, ref)]
            trace_ok = trace_ok and report.get("trace_ok", True)
    e2e, detail = end_to_end(passes["plain"])
    if trace:
        metrics = per_layer(passes["plain"], passes["traced"], passes["alloc"], import_breakdown())
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    return {
        "correct": not failures and trace_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        "detail": {**detail, "end_to_end": e2e, "failures": failures[:50], "trace_ok": trace_ok,
                   "elapsed_s": time.perf_counter() - start,
                   "raw_walls": {m: [p["wall_raw_s"] for p in passes[m]] for m in modes},
                   "walls": {m: [sum(ref_times(p)) for p in passes[m]] for m in modes}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        ctx = context()
    except (BenchError, OSError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "context": ctx, **result}
    with open(os.path.join(WORKDIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    for failure in result["detail"]["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"context": ctx, "detail": result["detail"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
