"""Self-tests of the benchmark: statistics, self-time arithmetic, tracing and
the reference checker.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_self_times  # noqa: E402


def reference(workload, variant=0):
    with open(os.path.join(BENCH, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["variants"][str(variant)]


def job(output, check_kind, meta=None, error=None):
    return {"output": output, "error": error, "check": check_kind, "meta": meta or {}}


# -- percentile rule ------------------------------------------------------------


def test_percentile_interpolates():
    xs = list(range(101))
    assert run.percentile(xs, 0.9) == pytest.approx(90.0)
    assert run.percentile(xs, 0.5) == pytest.approx(50.0)
    assert run.percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)


@pytest.mark.parametrize("n, beyond", [(100, 10), (99, 10), (92, 10), (91, 9), (90, 9), (10, 1), (1, 0)])
def test_samples_beyond_p90(n, beyond):
    assert run.samples_beyond(n, 0.9) == beyond


def test_p90_needs_ten_samples_beyond_it():
    """The 90th percentile is reported from at least ten samples beyond it."""
    enough = [n for n in range(1, 200) if run.samples_beyond(n, 0.9) >= run.TAIL_BEYOND]
    assert min(enough) == 92 and all(n in enough for n in range(92, 200))


# -- speed calibration -------------------------------------------------------------


def test_job_factors_use_the_median_of_nearby_samples():
    ref, w = 4e-3, calibrate.WINDOW_S
    samples = [(0.0, ref), (0.1, 2 * ref), (0.2, 2 * ref), (10 * w, 4 * ref), (20 * w, 5 * ref)]
    jobs = [(0.15, 0.16), (0.3, 10 * w - 0.1), (10 * w + 0.1, 10 * w + 0.2)]
    # Job 0: the three samples within the window; job 1: those three and the
    # first one after it; job 2: only the one before and the one after it.
    assert calibrate.job_factors(samples, jobs, ref) == pytest.approx([0.5, 0.5, 2 / 9])


def test_every_gauge_has_a_kernel_and_every_job_a_gauge(tmp_path):
    kernels = calibrate.sample()
    assert set(kernels) == set(calibrate.REF_SECONDS)
    assert all(0.0 < k < 1.0 for k in kernels.values())
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, 3, str(tmp_path), {})
        assert {j.gauge for j in jobs} <= set(calibrate.REF_SECONDS)


# -- self-time arithmetic ---------------------------------------------------------


def test_self_times_add_up_to_wall():
    spans = [
        (0, "a", "x", 0.0, 10.0, -1),
        (1, "b", "y", 1.0, 4.0, 0),
        (2, "c", "x", 2.0, 3.0, 1),
        (3, "d", "y", 11.0, 12.0, -1),
    ]
    selfs, outside, ok = layer_self_times(spans, 13.0)
    assert ok
    assert selfs == pytest.approx({"x": 8.0, "y": 3.0})
    assert outside == pytest.approx(2.0)


def test_self_time_check_catches_overlap():
    child_too_long = [(0, "a", "x", 0.0, 1.0, -1), (1, "b", "y", 0.0, 2.0, 0)]
    assert not layer_self_times(child_too_long, 5.0)[2]
    roots_beyond_wall = [(0, "a", "x", 0.0, 3.0, -1)]
    assert not layer_self_times(roots_beyond_wall, 2.0)[2]


def test_tracer_catches_internal_calls_and_restores():
    import eebounds
    from eebounds import binary, numerics

    original = numerics.solve_bracketed
    tracer = Tracer()
    tracer.install()
    try:
        import time

        t0 = time.perf_counter()
        ch = eebounds.BscChannel(0.07)
        eebounds.tradeoff_bounds(0.3, ch, 0.03)
        eebounds.tradeoff_exponent(0.5, eebounds.AwgnChannel(4.0), 0.02, "error")
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert numerics.solve_bracketed is original and binary.h is numerics.binary_entropy
    metrics, ok = tracer.metrics(wall, 2)
    assert ok
    names = {s[1] for s in tracer.spans}
    # binary imports entropy_inverse by name; spherical imports solve_bracketed.
    assert {"tradeoff_bounds", "entropy_inverse", "solve_bracketed", "elias_theta",
            "decoding_radius", "spherical_landmarks"} <= names
    assert metrics["numerics.f_evals"] > metrics["numerics.solves"] > 0
    assert metrics["spherical.landmarks_cold_s"] > 0
    selfs = sum(metrics[f"{layer}.self_s"] for layer in ("numerics", "binary", "spherical"))
    assert selfs + metrics["trace.harness_frac"] * wall == pytest.approx(wall, rel=1e-9)


# -- checker -----------------------------------------------------------------------


def first_valid_bound(ref):
    for name, out in ref.items():
        if name.startswith("awgn A=4 "):
            for i, b in enumerate(out):
                if b[2]:
                    return name, i, out
    raise AssertionError("no valid spherical bound in the reference")


def test_checker_accepts_reference_and_flags_perturbed_value():
    ref = reference("sweep")
    name, i, out = first_valid_bound(ref)
    meta = {"tol": "spherical"}
    assert check.check_job(job(out, "bounds", meta), out, {}) is None
    perturbed = json.loads(json.dumps(out))
    perturbed[i][0] *= 1.0 + 1e-4
    assert check.check_job(job(perturbed, "bounds", meta), out, {}) is not None


def test_checker_flags_valid_becoming_invalid_and_accepts_the_reverse():
    assert not check.same_bound([0.2, "straight", True], [0.0, "sphere-packing", False], "spherical")
    assert check.same_bound([0.0, "sphere-packing", False], [0.31, "straight", True], "spherical")


def test_checker_flags_perturbed_finite_value():
    ref = reference("finite")
    name = next(n for n in ref if n.startswith("exact_margin_probability"))
    out = list(ref[name])
    out[1] += 1e-9
    assert check.check_job(job(out, "values", {"tol": "oracle"}), ref[name], {}) is not None


def test_checker_flags_biased_tally():
    probs = reference("monte_carlo")["bsc16"]["probs"]
    n = 2 * workloads.BLOCK
    fair = [round(n * p) for p in probs]
    fair[0] = n - fair[1] - fair[2]
    ref = {"probs": probs, "trials": None}
    assert check.check_job(job(fair, "tally"), ref, {}) is None
    shift = n // 50  # 2% of the trials move from correct to undetected
    biased = [fair[0] - shift, fair[1] + shift, fair[2]]
    assert check.check_job(job(biased, "tally"), ref, {}) is not None


def test_checker_accepts_changed_rng_stream_and_flags_twin_mismatch():
    """A fresh RNG seed stands in for a changed RNG stream: its tally is not the
    recorded one but is consistent with the exact oracle."""
    import eebounds

    codes = workloads.mc_codes(0)
    code = eebounds.gen_linear_code(16, 10, codes["bsc16"])
    tally = eebounds.simulate_bsc(code, workloads.SIM_P, workloads.SIM_T, 2 * workloads.BLOCK, 987654321, 2)
    out = [tally.correct, tally.undetected, tally.erasure]
    ref = reference("monte_carlo")["bsc16"]
    assert check.check_job(job(out, "tally"), ref, {}) is None
    other = [out[0] - 1, out[1] + 1, out[2]]
    meta = {"twin": "w2"}
    assert check.check_job(job(out, "tally", meta), ref, {"w2": out}) is None
    assert check.check_job(job(out, "tally", meta), ref, {"w2": other}) is not None


def test_checker_counts_errors_as_failures():
    assert check.check_job(job(None, "values", error="BracketError: no root"), [1.0], {}) is not None


# -- contract ------------------------------------------------------------------------


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       988 |      51648 |       numpy",
        "import time:       200 |        200 |         numpy.linalg",
        "import time:       642 |     462742 |       scipy.stats",
        "import time:      3409 |     274440 |     eebounds.numerics",
        "import time:       460 |     775634 |   eebounds",
        "import time:        50 |         50 | json",
    ])
    out = run.parse_importtime(text)
    assert out["setup.import_numpy_s"] == pytest.approx(1188e-6)
    assert out["setup.import_scipy_s"] == pytest.approx(642e-6)
    assert out["setup.import_numerics_s"] == pytest.approx(3409e-6)
    assert out["setup.import_eebounds_s"] == pytest.approx(460e-6)
    assert out["setup.import_other_s"] == pytest.approx(50e-6)
