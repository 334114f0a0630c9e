"""Compare job outputs with the reference recorded at the seed commit.

Deterministic outputs must match within the tolerances below. Tallies of
seeded simulations are checked statistically, never bit for bit, so a
change of RNG stream passes as long as the tallies stay consistent with the
exact oracle or with a high-trial reference estimate. The tallies of
workers=1 and workers=nproc must always be identical.
"""

from __future__ import annotations

import math

# (absolute, relative) tolerance per kind of value, taken from the tightest
# assertion the test suite makes on that kind.
TOLERANCES = {
    "binary": (1e-9, 1e-9),     # closed forms and entropy inverses (tests: 1e-9 .. 1e-12)
    "spherical": (1e-6, 1e-6),  # root-solver outputs (tests: tau=0 collapse within 1e-6)
    "specific": (1e-6, 1e-6),   # grid-plus-refinement maximum
    "finite": (1e-9, 1e-9),     # log-domain union bounds
    "oracle": (1e-12, 0.0),     # exact probabilities (tests: 1e-12)
    "exact": (0.0, 0.0),        # weight distributions
}
Z_MAX = 5.0  # two-sided, about 6e-7 false alarms per class


def close(expected: float, actual: float, tol: str) -> bool:
    abs_tol, rel_tol = TOLERANCES[tol]
    if math.isinf(expected) or math.isnan(expected):
        return expected == actual or (math.isnan(expected) and math.isnan(actual))
    return abs(actual - expected) <= abs_tol + rel_tol * abs(expected)


def same_values(expected, actual, tol: str) -> bool:
    """Nested lists/dicts of numbers and strings, numbers within ``tol``."""
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        return expected == actual
    if isinstance(expected, (int, float)):
        return isinstance(actual, (int, float)) and not isinstance(actual, bool) and close(
            float(expected), float(actual), tol)
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() == actual.keys()
                and all(same_values(expected[k], actual[k], tol) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(same_values(e, a, tol) for e, a in zip(expected, actual)))
    raise TypeError(f"unexpected reference value {expected!r}")


def same_bound(expected: list, actual: list, tol: str) -> bool:
    """A bound value ``[value, regime, valid]``. A valid reference point must
    stay valid with the same value and regime; an invalid one may become
    valid."""
    e_val, e_regime, e_valid = expected
    a_val, a_regime, a_valid = actual
    if not e_valid:
        return True
    return bool(a_valid) and a_regime == e_regime and close(e_val, a_val, tol)


def same_bounds(expected: list, actual: list, tol: str) -> bool:
    return len(expected) == len(actual) and all(same_bound(e, a, tol) for e, a in zip(expected, actual))


def tally_consistent(counts: list[int], probs: list[float], ref_trials) -> bool:
    """Each class count within Z_MAX standard deviations of its reference
    probability. ``ref_trials`` is None for an exact reference, else the
    trial count of the reference estimate, whose own variance is added."""
    n = sum(counts)
    if n <= 0:
        return False
    for c, p in zip(counts, probs):
        floor = 1.0 / (ref_trials or n)
        q = min(max(p, floor), 1.0 - floor)
        var = n * q * (1.0 - q) * (1.0 + (n / ref_trials if ref_trials else 0.0))
        if abs(c - n * p) > Z_MAX * math.sqrt(var) + 1.0:
            return False
    return True


def slope_consistent(ns: list, trials: list, slope: float, ref: dict) -> bool:
    """A least-squares slope of -ln(p_hat) against n, within Z_MAX delta-method
    standard deviations of the slope through the exact probabilities
    ``ref["probs"]`` (one per n)."""
    mean = sum(ns) / len(ns)
    sxx = sum((n - mean) ** 2 for n in ns)
    var = sum(((n - mean) / sxx) ** 2 * (1.0 - q) / (m * q)
              for n, m, q in zip(ns, trials, ref["probs"]))
    return abs(slope - ref["slope"]) <= Z_MAX * math.sqrt(var)


def check_job(job: dict, ref, outputs: dict) -> str | None:
    """None when the job's output agrees with the reference, else a reason.
    ``job`` is a worker record (output, error, check, meta); ``outputs`` maps
    the name of every job of the pass to its output."""
    if job["error"]:
        return job["error"]
    out, check, meta = job["output"], job["check"], job["meta"]
    tol = meta.get("tol")
    if check == "bounds":
        ok = same_bounds(ref, out, tol)
    elif check == "values":
        ok = same_values(ref, out, tol)
    elif check == "cli_json":
        ok = out["rc"] == ref["rc"] and same_values(ref["obj"], out["obj"], tol)
    elif check == "cli_curve":
        ok = out["rc"] == ref["rc"] and len(out["rows"]) == len(ref["rows"]) and all(
            close(e[0], a[0], "binary") and e[1] == a[1] and same_bound(e[2], a[2], tol)
            for e, a in zip(ref["rows"], out["rows"]))
    elif check == "cli_validate":
        ok = out == ref
    elif check == "tally":
        ok = tally_consistent(out, ref["probs"], ref["trials"])
        twin = meta.get("twin")
        if ok and twin is not None and outputs.get(twin) != out:
            return f"workers=1 tally {out} differs from {twin}: {outputs.get(twin)}"
    elif check == "cli_tally":
        counts = out["obj"]["counts"] if out["rc"] == 0 else None
        ok = counts is not None and tally_consistent(
            [counts["correct"], counts["undetected"], counts["erasure"]], ref["probs"], ref["trials"])
    elif check == "regression":
        ok = slope_consistent([p[0] for p in out["points"]], out["trials"], out["slope"], ref)
    else:
        raise ValueError(f"unknown check {check}")
    return None if ok else "differs from reference"

