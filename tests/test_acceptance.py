"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single "criterion NN: PASS/FAIL" line so the suite output
doubles as a checklist. Tolerances and runtime budgets are pinned; tests are
not loosened to force a pass.

Criteria 1, 2, 5, 6, 7, 9 and 10 run the checks of ``eebounds validate``'s
claims (``cli._CLAIMS``) on wider grids, against the same tolerances, and add
their own pinned values. Criteria 4, 8, 12, 14 and 15 are the only claims
on public functions and methods that no command calls;
``tests/test_facade.py`` runs them with every command to check that each
public function, method and property reaches a claim.
"""

import functools
import math
import tempfile
import time

import numpy as np
import pytest

from eebounds.binary import (
    BscChannel,
    WeightProfile,
    bz_bounds,
    gallager_exponent,
    nontrivial_rate_threshold,
    specific_code_bound,
    tradeoff_bounds,
)
from eebounds.cli import _CLAIMS, _worst, main
from eebounds.finite import (
    LinearCode,
    MarginParams,
    WeightDistribution,
    binary_union_bound,
    exact_margin_probability,
)
from eebounds.numerics import binary_entropy as h
from eebounds.simulate import (
    SphericalCodebook,
    estimate_exponent,
    simulate_awgn,
    simulate_bsc,
    simulate_cone_exit,
    wilson_interval,
)
from eebounds.spherical import (
    AwgnChannel,
    _radius_residual,
    DistanceProfile,
    big_g,
    decoding_radius,
    elias_theta,
    esp,
    profile_exponent,
    spherical_landmarks,
    theta_s,
    tradeoff_exponent,
    undetected_error_exponent,
)

HAMMING74 = LinearCode(7, 4, ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
# The extended Golay [24, 12, 8] code. Parity row i < 11 is the indicator of
# {0} and the quadratic residues {1, 3, 4, 5, 9} mod 11, shifted left by i,
# then a 1; row 11 is eleven 1s and a 0.
_QR11 = (1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0)
GOLAY24 = LinearCode(
    24, 12, tuple(_QR11[i:] + _QR11[:i] + (1,) for i in range(11)) + ((1,) * 11 + (0,),)
)
SNRS = (1.0, 4.0, 10.0)
# The GV profile's 2001 knots leave its specific-code bound about 1.5e-7 off E0.
GV_PROFILE_TOL = 1e-6


def assert_claim(name, **grid):
    """Run the check of ``validate``'s claim ``name`` on this grid."""
    claim = _CLAIMS[name]
    assert claim.check(**grid) <= claim.tol, name


def gv_profile_defect(ps=(0.02, 0.07, 0.15), rates=lambda cap: np.linspace(0.01, cap, 42)[1:-1]):
    """Largest |specific_code_bound - E0| of the GV ensemble's own weight
    profile, at each crossover probability of ``ps`` and rate of
    ``rates(capacity)``: inf if one is not finite."""
    defects = []
    for ch in map(BscChannel, ps):
        for R in map(float, rates(ch.capacity)):
            bound = specific_code_bound(WeightProfile.gv_ensemble(R), R, ch)
            defects.append(abs(bound - gallager_exponent(R, ch).value))
    return _worst(defects)


def reported(num):
    """Print one pass/fail line per criterion, then let pytest do its thing."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL")
                raise
            print(f"criterion {num:2d}: PASS")
            return out

        return wrapper

    return deco


@reported(1)
def test_criterion_01_zero_margin_binary_reduction():
    start = time.perf_counter()
    assert_claim(
        "binary tau=0 reduction",
        ps=(0.01, 0.05, 0.07, 0.1, 0.2, 0.3, 0.45),
        rates=lambda cap: np.linspace(1e-4, cap - 1e-4, 200),
    )
    assert time.perf_counter() - start < 5.0


@reported(2)
def test_criterion_02_dominance_over_symmetric_shift():
    ch = BscChannel(0.07)
    tau = 0.03
    mp = tradeoff_bounds(0.4, ch, tau)[0].value
    bz = bz_bounds(0.4, ch, tau)[0].value
    assert mp == pytest.approx(0.14009, abs=1e-3)
    assert bz == pytest.approx(0.12118, abs=1e-3)
    assert mp - bz == pytest.approx(0.0189, abs=0.002)
    assert_claim("binary trade-off dominance", rates=lambda cap: np.linspace(0.01, cap - 1e-6, 300))


@reported(3)
def test_criterion_03_validity_threshold():
    ch = BscChannel(0.07)
    lo, hi = 0.0, 0.02
    assert not tradeoff_bounds(lo, ch, 0.03)[0].valid
    assert tradeoff_bounds(hi, ch, 0.03)[0].valid
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tradeoff_bounds(mid, ch, 0.03)[0].valid:
            hi = mid
        else:
            lo = mid
    threshold = 1.0 - h(0.47)
    assert hi == pytest.approx(threshold, abs=1e-9)
    assert threshold == pytest.approx(0.0025, abs=1e-3)


@reported(4)
def test_criterion_04_erasure_bound_nontriviality():
    ch = BscChannel(0.07)
    r_th = nontrivial_rate_threshold(ch, 0.03)
    assert r_th == pytest.approx(1.0 - h(0.07 + 0.06), rel=1e-12)
    assert r_th == pytest.approx(0.4425, abs=1e-3)
    mm = tradeoff_bounds(r_th, ch, 0.03)[1]
    assert abs(mm.value) <= 1e-8
    # Heavy noise, wide margin: the symmetric shift dies outright while the
    # trade-off erasure bound survives at rates below its own threshold.
    ch2 = BscChannel(0.2)
    assert not bz_bounds(0.05, ch2, 0.09)[1].valid
    assert nontrivial_rate_threshold(ch2, 0.09) > 0.03
    mm2 = tradeoff_bounds(0.03, ch2, 0.09)[1]
    assert mm2.valid and mm2.value > 0.0


@reported(5)
def test_criterion_05_zero_margin_spherical_collapse():
    start = time.perf_counter()
    assert_claim("tau=0 landmark collapse", snrs=SNRS)
    assert_claim("spherical tau=0 reduction", snrs=SNRS,
                 rates=lambda cap: np.linspace(0.02, cap - 0.02, 100))
    for ch in map(AwgnChannel, SNRS):
        for R in map(float, np.linspace(0.02, ch.capacity - 0.02, 100)):
            assert decoding_radius(R, 0.0, ch) == pytest.approx(theta_s(R), abs=1e-9)
    lm4 = spherical_landmarks(0.0, AwgnChannel(4.0))
    assert lm4.theta_e == pytest.approx(0.904557, abs=1e-5)
    assert lm4.theta_c == pytest.approx(0.666239, abs=1e-5)
    assert lm4.R_star == pytest.approx(0.481212, abs=1e-5)
    assert time.perf_counter() - start < 10.0


@reported(6)
def test_criterion_06_implicit_equation_health():
    assert_claim("landmark residuals", snrs=SNRS, taus=(0.0, 0.02, 0.05))
    ch4 = AwgnChannel(4.0)
    for R in (0.1, 0.3, 0.5, 0.7):
        for tau in (0.0, 0.03):
            rho = decoding_radius(R, tau, ch4)
            assert abs(_radius_residual(elias_theta(rho, tau), rho, R, tau)) <= 1e-10
    assert_claim("tau=0 neighbor-angle identity", xs=np.linspace(0.2, 1.4, 15))
    assert_claim("Rankin rate identity", rates=np.linspace(0.05, 0.75, 15))


@reported(7)
def test_criterion_07_correction_term():
    assert_claim("G(phi, 0) = 0", snrs=SNRS, taus=np.linspace(0.005, 0.0995, 20))
    assert big_g(1.0, 0.04, AwgnChannel(4.0)) == pytest.approx(-0.037063, abs=1e-5)


@reported(8)
def test_criterion_08_profile_oracle_equivalence():
    start = time.perf_counter()
    ch = AwgnChannel(4.0)
    rates = np.linspace(0.05, 0.6, 10)
    for tau in (0.0, 0.01, 0.02, 0.04, 0.06):
        for R in rates:
            R = float(R)
            rho = decoding_radius(R, tau, ch)
            direct = tradeoff_exponent(R, ch, tau, "error")
            assert direct.valid
            via_profile = profile_exponent(DistanceProfile.packing(R), R, ch, tau, rho)
            assert via_profile == pytest.approx(direct.value, abs=1e-4)
    assert time.perf_counter() - start < 60.0


@reported(9)
def test_criterion_09_finite_n_vs_asymptotic():
    n, ch = 1024, BscChannel(0.07)
    for R in (0.15, 0.3, 0.45):
        wd = WeightDistribution.gv_ensemble(n, R)
        bound = binary_union_bound(wd, 0.07, MarginParams(0), "error")
        assert -bound / n == pytest.approx(gallager_exponent(R, ch).value, abs=0.05)
    rng = np.random.default_rng(20240817)
    cases = []
    for seed in range(50):
        nn = int(rng.integers(8, 15))
        kk = int(rng.integers(3, min(nn - 2, 9)))
        p = float(rng.choice([0.02, 0.05, 0.1]))
        t = int(rng.integers(0, 3))
        cases.append(((nn, kk, seed), (p,), (t,)))
    assert_claim("union bound dominates oracle", cases=cases)


@reported(10)
def test_criterion_10_combinatorial_ground_truth():
    assert_claim("triangle-count brute force", ns=range(1, 11))
    assert_claim(
        "oracle total probability",
        cases=[((12, 5, seed), (0.02, 0.1), (0, 1, 2)) for seed in range(5)],
    )
    p = 0.05
    pc, pu, pe = exact_margin_probability(HAMMING74, p, 0)
    covered = sum(math.comb(7, e) * p**e * (1 - p) ** (7 - e) for e in (0, 1))
    assert pe == 0.0
    assert pc == pytest.approx(covered, abs=1e-15)
    assert pu == pytest.approx(1.0 - covered, abs=1e-15)


@reported(11)
def test_criterion_11_monte_carlo():
    start = time.perf_counter()
    ch = AwgnChannel(4.0)
    phi = 0.55
    points = []
    for i, n in enumerate((100, 200, 400)):
        _, _, exits = simulate_cone_exit(n, ch, phi, 10_000_000, seed=i + 1, workers=4)
        assert exits > 0
        points.append((n, exits / 10_000_000))
    slope = estimate_exponent(points).slope
    assert slope == pytest.approx(0.028481, rel=0.15)
    assert esp(phi, ch) == pytest.approx(0.028481, abs=1e-4)

    _, pu, _ = exact_margin_probability(HAMMING74, 0.05, 0)
    covered = 0
    for seed in range(100):
        tally = simulate_bsc(HAMMING74, 0.05, 0, 200_000, seed=seed, workers=4)
        lo, hi = tally.wilson("undetected", confidence=0.999)
        covered += int(lo <= pu <= hi)
    assert covered >= 99
    assert time.perf_counter() - start < 300.0


@reported(12)
def test_criterion_12_detection_limit_asymptotics():
    assert undetected_error_exponent(math.pi / 4.0, 0.01).value == pytest.approx(
        1.262864, abs=1e-5
    )
    # The exponent is -1/2 log(arg) with arg = 8 tau / sin(2 theta), the
    # first-order term of the exact ratio 1 - tan^2(theta - tau)/tan^2(theta + tau).
    # With g = log tan and L = g(theta + tau) - g(theta - tau)
    # = 4 tau / sin(2 theta) + g'''(theta) tau^3 / 3 + O(tau^5),
    # 1 - exp(-2L) = arg - 32 tau^2 / sin^2(2 theta) + c(theta) tau^3 + O(tau^4),
    # c = (2/3) g''' + 256 / (3 sin^3(2 theta)). So the defect over tau^2 tends
    # to 32 / sin^2(2 theta), with a relative remainder below 3.4 tau on this grid.
    for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        for tau in (1e-2, 1e-3, 1e-4):
            arg = math.exp(-2.0 * undetected_error_exponent(theta, tau).value)
            exact = 1.0 - math.tan(theta - tau) ** 2 / math.tan(theta + tau) ** 2
            defect = (arg - exact) / tau**2
            limit = 32.0 / math.sin(2.0 * theta) ** 2
            assert defect == pytest.approx(limit, rel=4.0 * tau)


@reported(13)
def test_criterion_13_cli_determinism():
    curve = [
        "curve", "--channel", "bsc", "--p", "0.07", "--tau", "0.03",
        "--rmin", "0.05", "--rmax", "0.6", "--steps", "12",
    ]
    sim = [
        "simulate", "--kind", "bsc", "--n", "7", "--k", "4", "--p", "0.05",
        "--trials", "50000", "--seed", "17",
    ]
    cone = [
        "simulate", "--kind", "cone", "--n", "60", "120", "--snr", "4",
        "--phi", "0.6", "--trials", "20000", "--seed", "3",
    ]
    with tempfile.TemporaryDirectory() as d:
        def run(argv, name):
            path = f"{d}/{name}"
            assert main(argv + ["--out", path]) == 0
            with open(path, "rb") as fh:
                return fh.read()

        assert run(curve, "c1.csv") == run(curve, "c2.csv")
        base = run(sim, "s1.json")
        assert base == run(sim, "s2.json")
        assert base == run(sim + ["--workers", "1"], "s3.json")
        assert base == run(sim + ["--workers", "4"], "s4.json")
        cbase = run(cone, "k1.json")
        assert cbase == run(cone + ["--workers", "4"], "k2.json")


@reported(14)
def test_criterion_14_gv_profile_specific_code_bound():
    # The GV ensemble's profile has no excess over the rate-R ensemble, so
    # its specific-code bound is the classical exponent E0 at every rate.
    assert gv_profile_defect() <= GV_PROFILE_TOL


@reported(15)
def test_criterion_15_golay_bpsk_union_bound():
    # The BPSK image of the extended Golay code: from a point, the squared
    # distances are 4A times the code's weights, with its spectrum's counts.
    A = 2.0
    cb = SphericalCodebook.binary(GOLAY24, A)
    dist = np.sum((cb.points - cb.points[0]) ** 2, axis=1) / (4.0 * A)
    assert np.abs(dist - np.round(dist)).max() <= 1e-12
    weights, counts = np.unique(np.round(dist).astype(int), return_counts=True)
    assert weights.tolist() == [0, 8, 12, 16, 24]
    assert counts.tolist() == [1, 759, 2576, 759, 1]
    # At tau = 0 a trial fails only if another point is at least as close as
    # the sent one, which a weight-w point is with probability Q(sqrt(A w)):
    # the soft-decision union bound is an upper bound on the failure rate.
    union = sum(c * 0.5 * math.erfc(math.sqrt(A * w / 2.0))
                for w, c in zip(weights[1:].tolist(), counts[1:].tolist()))
    assert union == pytest.approx(0.025285, abs=1e-6)
    tally = simulate_awgn(cb, 0.0, 1 << 14, seed=1, workers=2)
    failures = tally.trials - tally.correct
    assert failures > 0
    assert wilson_interval(failures, tally.trials, 0.999)[1] < union
