"""The benchmark's three workloads as fixed job lists built from a seed.

A job is one call (or a few tightly coupled calls) into the public API of
``eebounds`` or into ``eebounds.cli.main``. Its output is reduced to plain
JSON values so that it can be compared with the recorded reference.

The seed selects a *variant* (``seed % VARIANTS``); the variant picks the
sub-step offset of every rate grid, the rates of the finite-n spectra and
the code seeds. Monte Carlo RNG seeds come from the full seed. The package
only ever receives the generated numbers.

Why each workload exists (also recorded in BENCHMARK.json):

- ``sweep``: asymptotic exponent curves, one job per rate point. Most time
  goes to root finding in ``numerics`` and ``spherical`` (``elias_theta``
  nested inside ``decoding_radius``, cold ``spherical_landmarks``);
  ``finite`` and ``simulate`` sit idle.
- ``finite``: exact finite-n ground truth, per code and per received word.
  Uses ``finite`` and the ``numerics`` log-domain sums, not the root
  finders. The (16,10) oracle sets the memory peak.
- ``monte_carlo``: seeded simulation, few codes and many trials, on
  ``workers = nproc`` threads. The cost is per trial, in ``simulate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

VARIANTS = 16
WORKLOADS = ("sweep", "finite", "monte_carlo")

BSC_CASES = [(p, tau) for p in (0.02, 0.07, 0.15) for tau in (0.0, 0.03)]
# (A=64, tau=0.1): the straight-line/sphere-packing boundary search fails, so
# every error-kind point is invalid and recomputes the failing search (about
# 0.4 s a point); that case gets a shorter grid.
AWGN_CASES = [(A, tau) for A in (1.0, 4.0, 16.0) for tau in (0.02, 0.05)] + [(64.0, 0.1)]
# BSC points are cheap (well under a millisecond); there are enough of them
# that the 90th percentile of point latency falls inside the run of AWGN
# points rather than at its top, where the slowest jobs begin and one rank
# moves the value by a factor of five.
BSC_STEPS = 32
AWGN_STEPS = 16
AWGN_INVALID_STEPS = 6

ORACLE_GRID = tuple((p, t) for p in (0.03, 0.08, 0.13) for t in (0, 1))
SIM_P, SIM_T = 0.05, 1
AWGN_SIM = dict(M=256, n=32, A=1.0, tau=0.05)
CONE_A, CONE_PHI, CONE_NS = 4.0, 0.5, (100, 200, 400)
BLOCK = 1 << 14  # simulate._BLOCK; a call needs at least one block per worker to use them all


@dataclass
class Job:
    """One timed unit of work. ``check`` names the comparison in check.py;
    ``meta`` carries what the checker needs besides the output. ``gauge``
    names the calibration kernel that does the job's kind of work: ``python``
    for Python-level float code, ``array`` for large-array numpy work (the
    oracle and the simulators); see calibrate.py."""

    name: str
    run: Callable[[], Any]
    check: str
    meta: dict = field(default_factory=dict)
    gauge: str = "python"


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _rng(workload: str, variant: int) -> random.Random:
    return random.Random(f"{workload}:{variant}")


def _grid(top: float, steps: int, offset: float) -> list[float]:
    """``steps`` rates in (0, top), shifted by a sub-step offset in (0, 1)."""
    return [top * (i + offset) / steps for i in range(steps)]


def _bound(v) -> list:
    return [float(v.value), v.regime, bool(v.valid)]


def _cli(argv: list[str]) -> dict:
    import eebounds.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = eebounds.cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _cli_json(argv: list[str]) -> dict:
    out = _cli(argv)
    return {"rc": out["rc"], "obj": json.loads(out["stdout"]) if out["rc"] == 0 else None}


def _cli_csv(argv: list[str]) -> dict:
    out = _cli(argv)
    rows = []
    for line in out["stdout"].splitlines()[2:]:
        r, b, v, regime, valid = line.split(",")
        rows.append([float(r), b, [float(v), regime, valid == "true"]])
    return {"rc": out["rc"], "rows": rows}


def _cli_validate(argv: list[str]) -> dict:
    out = _cli(argv)
    lines = out["stdout"].splitlines()
    checks = [ln.split(":")[0] for ln in lines if ln.startswith(("PASS", "FAIL"))]
    return {"rc": out["rc"], "checks": checks}


def _tally(t) -> list[int]:
    return [int(t.correct), int(t.undetected), int(t.erasure)]


def _exits(cone_result, trials: int) -> list[int]:
    """(stayed inside, exited) counts of a cone-exit simulation."""
    exits = cone_result[2]
    return [trials - exits, exits]


# ----------------------------------------------------------------------------
# sweep


def sweep_jobs(seed: int, workdir: str, results: dict) -> list[Job]:
    import eebounds as E

    rng = _rng("sweep", variant_of(seed))
    jobs: list[Job] = []

    # Landmarks for each channel. The AWGN one runs first, so its memo is cold.
    a_lm, t_lm = AWGN_CASES[2]
    jobs.append(Job(
        f"spherical_landmarks A={a_lm:g} tau={t_lm:g}",
        lambda: _landmarks_s(E.spherical_landmarks(t_lm, E.AwgnChannel(a_lm))),
        "values", {"tol": "spherical"},
    ))
    jobs.append(Job(
        "binary_landmarks p=0.07 tau=0.03",
        lambda: list(vars(E.landmarks(E.BscChannel(0.07), 0.03)).values()),
        "values", {"tol": "binary"},
    ))

    bsc: list[Job] = []
    for p, tau in BSC_CASES:
        cap = E.BscChannel(p).capacity
        for r in _grid(cap, BSC_STEPS, rng.uniform(0.05, 0.95)):
            bsc.append(Job(f"bsc p={p:g} tau={tau:g} R={r!r}", _bsc_point(E, p, tau, r), "bounds",
                           {"tol": "binary"}))

    awgn: list[Job] = []
    for A, tau in AWGN_CASES:
        cap = E.AwgnChannel(A).capacity
        steps = AWGN_INVALID_STEPS if A == 64.0 else AWGN_STEPS
        for r in _grid(cap, steps, rng.uniform(0.05, 0.95)):
            awgn.append(Job(f"awgn A={A:g} tau={tau:g} R={r!r}", _awgn_point(E, A, tau, r), "bounds",
                            {"tol": "spherical"}))
    # The BSC points, under a millisecond each, set the median point latency.
    # Spread among the AWGN points, they are timed across the whole pass
    # rather than in one burst, so the median is not decided by the
    # machine's speed at a single moment. No job's work depends on the order.
    jobs += _spread(bsc, awgn)

    r_prof = rng.uniform(0.2, 0.4)
    jobs.append(Job(
        f"specific_code_bound R={r_prof!r}",
        lambda: E.specific_code_bound(E.WeightProfile.gv_ensemble(r_prof), r_prof, E.BscChannel(0.07)),
        "values", {"tol": "specific"},
    ))
    r_sph = rng.uniform(0.25, 0.35)

    def profile_job():
        ch = E.AwgnChannel(4.0)
        rho = E.decoding_radius(r_sph, 0.02, ch)
        return [rho, E.profile_exponent(E.DistanceProfile.packing(r_sph), r_sph, ch, 0.02, rho)]

    jobs.append(Job(f"profile_exponent R={r_sph!r}", profile_job, "values", {"tol": "spherical"}))

    # CLI: landmarks first (cold memo), then a curve on the same channel.
    lo = 0.02 + 0.03 * rng.random()
    awgn = ["--channel", "awgn", "--snr", "2", "--tau", "0.03"]
    jobs.append(Job("cli landmarks awgn", lambda: _cli_json(["landmarks", *awgn]), "cli_json",
                    {"tol": "spherical"}))
    jobs.append(Job(
        "cli curve awgn",
        lambda: _cli_csv(["curve", *awgn, "--rmin", repr(lo), "--rmax", "0.54", "--steps", "12"]),
        "cli_curve", {"tol": "spherical"},
    ))
    jobs.append(Job(
        "cli curve bsc",
        lambda: _cli_csv(["curve", "--channel", "bsc", "--p", "0.07", "--tau", "0.03", "--rmin",
                          repr(lo), "--rmax", "0.62", "--steps", "20"]),
        "cli_curve", {"tol": "binary"},
    ))
    return jobs


def _spread(a: list[Job], b: list[Job]) -> list[Job]:
    """Both lists merged, each keeping its order and spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), 0, i) for i in range(len(a))]
    keyed += [((j + 0.5) / len(b), 1, j) for j in range(len(b))]
    return [(a, b)[which][k] for _, which, k in sorted(keyed)]


def _landmarks_s(lm) -> list[float]:
    return [lm.theta_e, lm.theta_c, lm.theta_1, lm.theta_2, lm.R_star]


def _bsc_point(E, p: float, tau: float, r: float):
    def run():
        ch = E.BscChannel(p)
        ee, ex = E.bz_bounds(r, ch, tau)
        mp, mm = E.tradeoff_bounds(r, ch, tau)
        return [_bound(E.gallager_exponent(r, ch)), _bound(ee), _bound(ex), _bound(mp), _bound(mm)]

    return run


def _awgn_point(E, A: float, tau: float, r: float):
    def run():
        ch = E.AwgnChannel(A)
        return [
            _bound(E.shannon_exponent(r, ch)),
            _bound(E.tradeoff_exponent(r, ch, tau, "error")),
            _bound(E.tradeoff_exponent(r, ch, tau, "erasure")),
        ]

    return run


# ----------------------------------------------------------------------------
# finite


def finite_codes(variant: int) -> list[tuple[int, int, int]]:
    """(n, k, code_seed) of the codes the finite workload enumerates. The
    (14,7) oracle calls are the most numerous jobs, so the median point
    latency falls well inside their cluster rather than at its edge."""
    rng = _rng("finite-codes", variant)
    return [(14, 7, rng.randrange(1 << 20)) for _ in range(6)] + [(16, 10, rng.randrange(1 << 20))]


def finite_jobs(seed: int, workdir: str, results: dict) -> list[Job]:
    import eebounds as E

    v = variant_of(seed)
    rng = _rng("finite", v)
    jobs: list[Job] = []

    # The union bounds' work grows as the rate falls (about 1.6x from rate
    # 0.35 to 0.25 at n = 2048), so the seed moves the rates only slightly.
    r_gv = rng.uniform(0.295, 0.305)
    for n in (512, 1024, 2048):
        for mode in ("error", "erasure"):
            for t in (0, 2):
                def ub(n=n, mode=mode, t=t):
                    wd = E.WeightDistribution.gv_ensemble(n, r_gv)
                    return E.binary_union_bound(wd, 0.07, E.MarginParams(t=t), mode)

                jobs.append(Job(f"binary_union_bound n={n} {mode} t={t}", ub, "values", {"tol": "finite"}))

    r_awgn = rng.uniform(0.27, 0.28)
    for n in (256, 1024):
        def aub(n=n):
            ch = E.AwgnChannel(4.0)
            rho = E.decoding_radius(r_awgn, 0.02, ch)
            return E.awgn_union_bound(E.WeightDistribution.binomial_spherical(n, r_awgn), ch, 0.02, rho)

        jobs.append(Job(f"awgn_union_bound n={n}", aub, "values", {"tol": "finite"}))

    grid = [(p + 0.01 * rng.random(), t) for p, t in ORACLE_GRID]
    for n, k, code_seed in finite_codes(v):
        code = E.gen_linear_code(n, k, code_seed)
        jobs.append(Job(
            f"weight_distribution ({n},{k}) seed={code_seed}",
            lambda code=code: list(E.weight_distribution(code).log2_counts),
            "values", {"tol": "exact"}, "array",
        ))
        for p, t in grid:
            jobs.append(Job(
                f"exact_margin_probability ({n},{k}) seed={code_seed} p={p!r} t={t}",
                lambda code=code, p=p, t=t: list(E.exact_margin_probability(code, p, t)),
                "values", {"tol": "oracle"}, "array",
            ))

    jobs.append(Job(
        "cli finite-bound bsc",
        lambda: _cli_json(["finite-bound", "--channel", "bsc", "--p", "0.07", "--n", "1024",
                           "--rate", repr(r_gv), "--t", "2"]),
        "cli_json", {"tol": "finite"},
    ))
    jobs.append(Job("cli validate", lambda: _cli_validate(["validate"]), "cli_validate"))
    return jobs


# ----------------------------------------------------------------------------
# monte_carlo


def mc_codes(variant: int) -> dict[str, int]:
    """Code seeds of the monte_carlo workload. The [24,12] code and the AWGN
    codebook come from a pool of four, whose reference tallies are costly."""
    rng = _rng("monte_carlo-codes", variant)
    return {
        "bsc24": variant % 4,
        "awgn": 100 + variant % 4,
        "bsc16": rng.randrange(1 << 20),
        "cli14": rng.randrange(1 << 20),
    }


def mc_jobs(seed: int, workdir: str, results: dict) -> list[Job]:
    import eebounds as E

    codes = mc_codes(variant_of(seed))
    rng = random.Random(f"monte_carlo-rng:{seed}")
    W = nproc()
    jobs: list[Job] = []

    def sim_pair(name: str, make, chunks: int, trials: int, ref_key: str) -> None:
        """``chunks`` calls on workers=W with fresh RNG seeds; the first is
        repeated on workers=1, and the two tallies must be identical."""
        for j in range(chunks):
            s = rng.randrange(1 << 31)
            jobs.append(Job(f"{name} w={W} #{j}", make(trials, s, W), "tally",
                            {"ref": ref_key, "trials": trials}, "array"))
            if j == 0:
                jobs.append(Job(f"{name} w=1 #{j}", make(trials, s, 1), "tally",
                                {"ref": ref_key, "trials": trials, "twin": f"{name} w={W} #{j}"},
                                "array"))

    code24 = E.gen_linear_code(24, 12, codes["bsc24"])
    sim_pair("simulate_bsc [24,12]",
             lambda trials, s, w: lambda: _tally(E.simulate_bsc(code24, SIM_P, SIM_T, trials, s, w)),
             1, 2 * BLOCK, "bsc24")
    code16 = E.gen_linear_code(16, 10, codes["bsc16"])
    sim_pair("simulate_bsc (16,10)",
             lambda trials, s, w: lambda: _tally(E.simulate_bsc(code16, SIM_P, SIM_T, trials, s, w)),
             4, 2 * BLOCK, "bsc16")
    cfg = AWGN_SIM
    book = E.SphericalCodebook.random(cfg["M"], cfg["n"], cfg["A"], codes["awgn"])
    sim_pair("simulate_awgn M=256 n=32",
             lambda trials, s, w: lambda: _tally(E.simulate_awgn(book, cfg["tau"], trials, s, w)),
             4, 2 * BLOCK, "awgn")

    cone_ch = E.AwgnChannel(CONE_A)
    for n in CONE_NS:
        sim_pair(f"simulate_cone_exit n={n}",
                 lambda trials, s, w, n=n: lambda: _exits(E.simulate_cone_exit(n, cone_ch, CONE_PHI, trials, s, w), trials),
                 5, 2 * BLOCK, f"cone{n}")

    def regression():
        # The exponent fit uses the pooled estimates of the workers=W chunks.
        pts, counts = [], []
        for n in CONE_NS:
            tally = [j for j in jobs if j.name.startswith(f"simulate_cone_exit n={n} w={W}")]
            exits = sum(results[j.name][1] for j in tally)
            trials = sum(j.meta["trials"] for j in tally)
            pts.append((float(n), exits / trials))
            counts.append(trials)
        reg = E.estimate_exponent(pts)
        return {"slope": reg.slope, "points": pts, "trials": counts}

    jobs.append(Job("estimate_exponent cone", regression, "regression", {"ref": "cone"}))

    config = os.path.join(workdir, f"simulate-{seed}.json")
    with open(config, "w") as fh:
        json.dump({"kind": "bsc", "n": [14], "k": 7, "code_seed": codes["cli14"], "p": SIM_P,
                   "t": SIM_T, "trials": 4 * BLOCK, "seed": rng.randrange(1 << 31), "workers": W}, fh)
    jobs.append(Job("cli simulate bsc (14,7)", lambda: _cli_json(["simulate", config]), "cli_tally",
                    {"ref": "cli14", "trials": 4 * BLOCK}, "array"))
    return jobs


BUILDERS = {"sweep": sweep_jobs, "finite": finite_jobs, "monte_carlo": mc_jobs}


def build(workload: str, seed: int, workdir: str, results: dict) -> list[Job]:
    """Job list of one pass. The runner stores each job's output in
    ``results`` under the job's name; a later job may read earlier ones."""
    return BUILDERS[workload](seed, workdir, results)
