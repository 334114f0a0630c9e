"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run once at the commit that defines the reference; it rewrites
``perfbench/reference/<workload>.json`` for every variant. Deterministic jobs
store their output. Seeded tallies store class probabilities: exact where an
oracle exists (``exact_margin_probability`` for codes with n <= 16, and
Shannon's 1959 quadrature for the cone-exit probability), otherwise a
high-trial estimate together with its trial count.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from scipy import integrate, stats  # noqa: E402

import eebounds as E  # noqa: E402
import workloads as wl  # noqa: E402

REF_BLOCKS = {"bsc24": 16, "awgn": 64}  # high-trial references, in units of 2^14 trials
REF_SEED = 20040710


def cone_exit_probability(n: int, A: float, phi: float) -> float:
    """Exact P(angle between sqrt(A n) e1 + z and e1 exceeds phi), z ~ N(0, I_n).

    With x = sqrt(A n) + z1 the point leaves the cone iff x <= 0 or
    |z_rest|^2 > x^2 tan^2(phi), and |z_rest|^2 is chi-square with n - 1
    degrees of freedom (Shannon 1959). Requires phi < pi/2.
    """
    r = math.sqrt(A * n)
    t2 = math.tan(phi) ** 2
    chi = stats.chi2(n - 1)

    def integrand(z: float) -> float:
        return stats.norm.pdf(z) * chi.sf((r + z) ** 2 * t2)

    # The normal density is below 1e-30 beyond |z| = 12; a finite range keeps
    # the adaptive rule from stepping over the narrow peak.
    lo, hi = max(-r, -12.0), 12.0
    inside, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return float(stats.norm.cdf(lo) + inside)


def deterministic(workload: str, variant: int) -> dict:
    results: dict = {}
    refs = {}
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    for job in wl.build(workload, variant, workdir, results):
        results[job.name] = job.run()
        refs[job.name] = results[job.name]
    return refs


def _estimate(tally, trials: int) -> dict:
    return {"probs": [c / trials for c in (tally.correct, tally.undetected, tally.erasure)],
            "trials": trials}


def monte_carlo_refs() -> dict:
    W = wl.nproc()
    cone_probs = [cone_exit_probability(n, wl.CONE_A, wl.CONE_PHI) for n in wl.CONE_NS]
    ys = [-math.log(q) for q in cone_probs]
    slope = float(np.polyfit(np.array(wl.CONE_NS, dtype=float), np.array(ys), 1)[0])
    shared = {"cone": {"probs": cone_probs, "slope": slope}}
    for n, q in zip(wl.CONE_NS, cone_probs):
        shared[f"cone{n}"] = {"probs": [1.0 - q, q], "trials": None}

    pooled: dict = {}
    out = {}
    for v in range(wl.VARIANTS):
        codes = wl.mc_codes(v)
        refs = dict(shared)
        if ("bsc24", codes["bsc24"]) not in pooled:
            code = E.gen_linear_code(24, 12, codes["bsc24"])
            trials = REF_BLOCKS["bsc24"] * wl.BLOCK
            pooled["bsc24", codes["bsc24"]] = _estimate(
                E.simulate_bsc(code, wl.SIM_P, wl.SIM_T, trials, REF_SEED, W), trials)
        if ("awgn", codes["awgn"]) not in pooled:
            c = wl.AWGN_SIM
            book = E.SphericalCodebook.random(c["M"], c["n"], c["A"], codes["awgn"])
            trials = REF_BLOCKS["awgn"] * wl.BLOCK
            pooled["awgn", codes["awgn"]] = _estimate(
                E.simulate_awgn(book, c["tau"], trials, REF_SEED, W), trials)
        refs["bsc24"] = pooled["bsc24", codes["bsc24"]]
        refs["awgn"] = pooled["awgn", codes["awgn"]]
        for key, (n, k) in (("bsc16", (16, 10)), ("cli14", (14, 7))):
            code = E.gen_linear_code(n, k, codes[key])
            refs[key] = {"probs": list(E.exact_margin_probability(code, wl.SIM_P, wl.SIM_T)),
                         "trials": None}
        out[str(v)] = refs
        print(f"monte_carlo variant {v}", file=sys.stderr)
    return out


def git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str]) -> None:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in argv or wl.WORKLOADS:
        if workload == "monte_carlo":
            variants = monte_carlo_refs()
        else:
            variants = {}
            for v in range(wl.VARIANTS):
                variants[str(v)] = deterministic(workload, v)
                print(f"{workload} variant {v}", file=sys.stderr)
        doc = {"commit": git_sha(), "variants": variants}
        with open(os.path.join(HERE, "reference", f"{workload}.json"), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
