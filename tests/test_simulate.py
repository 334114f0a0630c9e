import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import eebounds
from eebounds import finite
from eebounds.finite import LinearCode, exact_margin_probability, gen_linear_code, weight_distribution
from eebounds.simulate import (
    RegressionResult,
    SphericalCodebook,
    TrialTally,
    estimate_exponent,
    simulate_awgn,
    simulate_bsc,
    simulate_cone_exit,
    wilson_interval,
)
from eebounds.spherical import AwgnChannel

HAMMING74 = LinearCode(7, 4, ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
CH4 = AwgnChannel(4.0)


class TestLinearCode:
    def test_generator_shape_and_systematic_block(self):
        g = HAMMING74.generator
        assert g.shape == (4, 7)
        assert (g[:, :4] == np.eye(4, dtype=np.uint8)).all()

    def test_codewords_message_order(self):
        cws = HAMMING74.codewords()
        assert cws.shape == (16, 7)
        assert (cws[0] == 0).all()
        # Message 1 = unit vector on the first coordinate -> first row of G.
        assert (cws[1] == HAMMING74.generator[0]).all()

    def test_codewords_distinct(self):
        for code in (HAMMING74, gen_linear_code(70, 3, 0), LinearCode(8, 0, ())):
            assert len(np.unique(code.codewords(), axis=0)) == 1 << code.k

    def test_gen_deterministic(self):
        a = gen_linear_code(15, 5, 42)
        b = gen_linear_code(15, 5, 42)
        c = gen_linear_code(15, 5, 43)
        assert a == b
        assert a != c

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            gen_linear_code(40, 30, 0)


class TestCodebooks:
    def test_random_codebook_norms(self):
        cb = SphericalCodebook.random(32, 24, 4.0, 11)
        norms = (cb.points**2).sum(axis=1)
        assert np.allclose(norms, 4.0 * 24, rtol=1e-12)

    def test_random_codebook_deterministic(self):
        a = SphericalCodebook.random(8, 10, 2.0, 3)
        b = SphericalCodebook.random(8, 10, 2.0, 3)
        assert np.array_equal(a.points, b.points)

    def test_binary_codebook_energy(self):
        cb = SphericalCodebook.binary(HAMMING74, 4.0)
        assert cb.M == 16 and cb.n == 7
        assert np.allclose((cb.points**2).sum(axis=1), 28.0)

    def test_invalid_norms_rejected(self):
        with pytest.raises(ValueError):
            SphericalCodebook(2, 3, 4.0, np.ones((2, 3)))
        with pytest.raises(ValueError):
            SphericalCodebook(2, 3, 1.0, np.ones((3, 2)))


class TestTallies:
    def test_class_sum_invariant(self):
        with pytest.raises(ValueError):
            TrialTally(10, 5, 3, 1, seed=0)

    def test_negative_class_rejected(self):
        # The classes sum to the trial count, but one is negative.
        with pytest.raises(ValueError, match="must be nonnegative.*undetected=-2"):
            TrialTally(10, 12, -2, 0, 1)

    def test_wilson_basic(self):
        lo, hi = wilson_interval(50, 1000)
        assert 0.0 <= lo <= 0.05 <= hi <= 1.0
        lo99, hi99 = wilson_interval(50, 1000, confidence=0.999)
        assert lo99 <= lo and hi99 >= hi
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    @pytest.mark.parametrize("trials", [1, 10, 2000, 10**6])
    def test_wilson_contains_zero_and_full_proportions(self, trials):
        # Rounding put the lower end at 2.8e-17 for (0, 10) and the upper end
        # at 1 - 2^-52 for (2000, 2000): intervals that excluded the estimate.
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0

    @pytest.mark.parametrize("successes", [12, -1])
    def test_wilson_successes_out_of_range(self, successes):
        with pytest.raises(ValueError, match=r"successes must lie in \[0, trials=10\]"):
            wilson_interval(successes, 10)


# (code, p, t, trials, (correct, undetected, erasure)) at seed=1, recorded with
# the dense all-codeword decoder; the coset decoder must reproduce them exactly.
# The one-word (24,0) code lies past the coset table's budget: its lone
# codeword decodes every trial correctly, at any margin.
PINNED_BSC_TALLIES = [
    (HAMMING74, 0.05, 0, 50_000, (47800, 2200, 0)),
    (gen_linear_code(16, 10, 3), 0.05, 1, 32_768, (14392, 106, 18270)),
    (gen_linear_code(24, 12, 0), 0.05, 1, 32_768, (26853, 84, 5831)),
    (gen_linear_code(40, 8, 1), 0.1, 1, 32_768, (32375, 12, 381)),
    (LinearCode(24, 0, ()), 0.05, 0, 40_000, (40000, 0, 0)),
    (LinearCode(24, 0, ()), 0.05, 100, 40_000, (40000, 0, 0)),
]


# Codes with n - k > 64, whose parity bits span two uint64 words, at seed=1
# and 40,000 trials. Past the coset table, each block decodes its distinct
# packed received words (info word, then the parity words) once; that
# deduplication must reproduce them exactly. At p = 0.02 most words repeat.
PINNED_TWO_WORD_TALLIES = [
    (gen_linear_code(100, 4, 0), 0.3, 1, (38716, 294, 990)),
    (gen_linear_code(130, 3, 0), 0.35, 2, (35646, 319, 4035)),
    (gen_linear_code(100, 4, 0), 0.02, 0, (40000, 0, 0)),
]


class TestSimulateBsc:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize(
        "code,p,t,trials,expected",
        PINNED_BSC_TALLIES,
        ids=[f"{c.n}-{c.k}" for c, *_ in PINNED_BSC_TALLIES],
    )
    def test_pinned_tallies(self, code, p, t, trials, expected, workers):
        tally = simulate_bsc(code, p, t, trials, seed=1, workers=workers)
        assert (tally.correct, tally.undetected, tally.erasure) == expected

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize(
        "code,p,t,expected",
        PINNED_TWO_WORD_TALLIES,
        ids=[f"{c.n}-{c.k}-p{p}" for c, p, *_ in PINNED_TWO_WORD_TALLIES],
    )
    def test_pinned_two_word_syndromes(self, code, p, t, expected, workers):
        tally = simulate_bsc(code, p, t, 40_000, seed=1, workers=workers)
        assert (tally.correct, tally.undetected, tally.erasure) == expected

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("t", (0, 1))
    @pytest.mark.parametrize(
        "code",
        [gen_linear_code(24, 12, 0), gen_linear_code(16, 10, 3), gen_linear_code(14, 7, 0)],
        ids=lambda c: f"{c.n}-{c.k}",
    )
    def test_table_and_walk_agree(self, code, t, workers, monkeypatch):
        # Two blocks, the second partial: coset table lookups against the
        # walk over each block's distinct words, on the same draws.
        table = simulate_bsc(code, 0.05, t, 20_000, seed=3, workers=workers)
        monkeypatch.setattr(finite, "_tabulable", lambda code: False)
        assert simulate_bsc(code, 0.05, t, 20_000, seed=3, workers=workers) == table

    def test_error_draw_is_row_sliced(self):
        # One 16k-trial block of a (130,3) code: a (block x n) float64 draw
        # alone is 17 MB; row slices keep the whole call near 2.5 MB.
        code = gen_linear_code(130, 3, 0)
        tracemalloc.start()
        try:
            simulate_bsc(code, 0.35, 2, 2**14, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_pinned_24_12_tally_matches_exact_oracle(self):
        code, p, t, trials, counts = PINNED_BSC_TALLIES[2]
        assert (code.n, code.k) == (24, 12)
        for count, q in zip(counts, exact_margin_probability(code, p, t)):
            assert abs(count - trials * q) <= 5.0 * math.sqrt(trials * q * (1.0 - q))

    def test_deterministic_across_workers(self):
        one = simulate_bsc(HAMMING74, 0.05, 0, 50_000, seed=9, workers=1)
        four = simulate_bsc(HAMMING74, 0.05, 0, 50_000, seed=9, workers=4)
        assert one == four

    def test_seed_changes_tally(self):
        a = simulate_bsc(HAMMING74, 0.05, 0, 50_000, seed=1)
        b = simulate_bsc(HAMMING74, 0.05, 0, 50_000, seed=2)
        assert (a.correct, a.undetected) != (b.correct, b.undetected)

    def test_matches_exact_oracle_within_wilson(self):
        tally = simulate_bsc(HAMMING74, 0.05, 0, 200_000, seed=5)
        _, pu, _ = exact_margin_probability(HAMMING74, 0.05, 0)
        lo, hi = tally.wilson("undetected", confidence=0.999)
        assert lo <= pu <= hi

    def test_noiseless_channel(self):
        tally = simulate_bsc(HAMMING74, 0.0, 1, 10_000, seed=0)
        assert tally.correct == tally.trials

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            simulate_bsc(HAMMING74, 0.05, 0, 0, seed=1)

    def test_crossover_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"crossover must lie in \[0, 1\], got 1.5"):
            simulate_bsc(HAMMING74, 1.5, 0, 1000, seed=1)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin must be nonnegative, got -3"):
            simulate_bsc(HAMMING74, 0.05, -3, 1000, seed=1)

    def test_margin_must_be_an_integer(self):
        # 2t = 3 would match neither t = 1 nor t = 2.
        with pytest.raises(ValueError, match="margin must be an integer, got 1.5"):
            simulate_bsc(HAMMING74, 0.05, 1.5, 1000, seed=1)

    def test_numpy_integer_margin(self):
        # In uint8, 2t = 260 would wrap around to 4: the t = 2 tally.
        code = gen_linear_code(14, 2, 0)
        for t, same in ((np.uint8(130), 130), (np.int64(1), 1)):
            assert simulate_bsc(code, 0.05, t, 2000, seed=1) == simulate_bsc(
                code, 0.05, same, 2000, seed=1
            )
        assert simulate_bsc(code, 0.05, np.uint8(130), 2000, seed=1) != simulate_bsc(
            code, 0.05, 2, 2000, seed=1
        )

    def test_margin_increases_erasures(self):
        t0 = simulate_bsc(HAMMING74, 0.1, 0, 100_000, seed=4)
        t1 = simulate_bsc(HAMMING74, 0.1, 1, 100_000, seed=4)
        assert t1.erasure > t0.erasure
        assert t1.undetected < t0.undetected


# (name, codebook, tau, trials, (correct, undetected, erasure)) at seed=1. The
# 40,000-trial rows were recorded from the full (trials, M) angle matrix;
# deciding from the two largest inner products must reproduce them exactly.
# The codebook with a repeated point ties whenever that point wins, so the
# strict tie rule erases. The rows after them were recorded from one (rows x M)
# product per row slice, which the caller-thread GEMMs must reproduce: trials
# that are not a multiple of the 32-row group, codebooks split into column
# chunks (BPSK [24,12], M=1100) and wide n.
_M1 = SphericalCodebook.random(1, 8, 4.0, 5)
_M2 = SphericalCodebook.random(2, 6, 1.0, 7)
_REPEATED = SphericalCodebook(3, 6, 1.0, _M2.points[[0, 0, 1]])
_BPSK84 = SphericalCodebook.binary(gen_linear_code(8, 4, 0), 1.0)
_BPSK24 = SphericalCodebook.binary(gen_linear_code(24, 12, 0), 1.0)
PINNED_AWGN_TALLIES = [
    ("M256-n32", SphericalCodebook.random(256, 32, 1.0, 100), 0.05, 40_000, (37193, 61, 2746)),
    ("M1", _M1, 0.0, 40_000, (40000, 0, 0)),
    ("M1", _M1, 0.05, 40_000, (40000, 0, 0)),
    ("M2", _M2, 0.0, 40_000, (37574, 2426, 0)),
    ("M2", _M2, 0.05, 40_000, (36567, 1676, 1757)),
    ("repeated", _REPEATED, 0.0, 40_000, (12652, 1621, 25727)),
    ("repeated", _REPEATED, 0.05, 40_000, (12311, 1109, 26580)),
    ("bpsk-8-4", _BPSK84, 0.0, 40_000, (31967, 8033, 0)),
    ("bpsk-8-4", _BPSK84, 0.05, 40_000, (28250, 4240, 7510)),
    ("M256-n32-odd", SphericalCodebook.random(256, 32, 1.0, 100), 0.05, 2 * 2**14 + 77,
     (30557, 51, 2237)),
    ("M37-n11", SphericalCodebook.random(37, 11, 4.0, 3), 0.02, 40_001, (39731, 86, 184)),
    ("bpsk-24-12", _BPSK24, 0.02, 20_000, (11953, 2529, 5518)),
    ("M48-n600", SphericalCodebook.random(48, 600, 0.05, 4), 0.02, 20_000, (19554, 1, 445)),
    ("M1100-n256", SphericalCodebook.random(1100, 256, 0.1, 8), 0.01, 3_001, (2722, 51, 228)),
]

# One simulate_awgn call, then idle time: OpenBLAS threads that a large GEMM
# wakes keep spinning after the call returns. The first sleep lets the threads
# that OpenBLAS starts at import settle first.
ONE_CORE = """
import time
from eebounds.simulate import SphericalCodebook, simulate_awgn
book = SphericalCodebook.random(256, 32, 1.0, 100)
time.sleep(0.3)
cpu, wall = time.process_time(), time.perf_counter()
simulate_awgn(book, 0.05, 4 * 2**14, seed=1, workers=1)
wall = time.perf_counter() - wall
time.sleep(0.2)
print((time.process_time() - cpu) / wall)
"""
OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


class TestSimulateAwgn:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize(
        "name,codebook,tau,trials,expected",
        PINNED_AWGN_TALLIES,
        ids=[f"{name}-tau{tau}" for name, _, tau, *_ in PINNED_AWGN_TALLIES],
    )
    def test_pinned_tallies(self, name, codebook, tau, trials, expected, workers):
        tally = simulate_awgn(codebook, tau, trials, seed=1, workers=workers)
        assert (tally.correct, tally.undetected, tally.erasure) == expected

    @pytest.mark.skipif(not OPENBLAS, reason="numpy's BLAS is not OpenBLAS")
    def test_one_worker_keeps_one_core(self):
        # A product past OpenBLAS's single-thread GEMM size (2^18 multiply-adds)
        # wakes its thread pool, which then spins: about 3x the call's time.
        src = os.path.dirname(os.path.dirname(os.path.abspath(eebounds.__file__)))
        thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in thread_vars}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", ONE_CORE], env=env, capture_output=True, text=True, check=True
        )
        assert float(out.stdout) <= 1.3

    def test_deterministic_across_workers(self):
        cb = SphericalCodebook.random(16, 12, 4.0, 2)
        one = simulate_awgn(cb, 0.05, 40_000, seed=3, workers=1)
        three = simulate_awgn(cb, 0.05, 40_000, seed=3, workers=3)
        assert one == three

    def test_margin_increases_erasures(self):
        cb = SphericalCodebook.random(16, 12, 4.0, 2)
        t0 = simulate_awgn(cb, 0.0, 40_000, seed=3)
        t1 = simulate_awgn(cb, 0.1, 40_000, seed=3)
        assert t1.erasure > t0.erasure

    def test_zero_trials_rejected(self):
        cb = SphericalCodebook.random(16, 12, 4.0, 2)
        with pytest.raises(ValueError, match="trials must be positive"):
            simulate_awgn(cb, 0.05, 0, seed=3)

    def test_negative_margin_rejected(self):
        cb = SphericalCodebook.random(16, 12, 4.0, 2)
        with pytest.raises(ValueError, match="margin must be finite and nonnegative, got -0.1"):
            simulate_awgn(cb, -0.1, 1000, seed=3)

    def test_nan_margin_rejected(self):
        # NaN fails every comparison: a `tau < 0` check would let it erase every trial.
        cb = SphericalCodebook.random(16, 8, 2.0, 0)
        with pytest.raises(ValueError, match="margin must be finite and nonnegative, got nan"):
            simulate_awgn(cb, math.nan, 1000, seed=1)

    def test_infinite_margin_rejected(self):
        # An infinite margin would tally every trial as an erasure.
        cb = SphericalCodebook.random(16, 8, 2.0, 0)
        with pytest.raises(ValueError, match="margin must be finite and nonnegative, got inf"):
            simulate_awgn(cb, math.inf, 1000, seed=1)


def cone_exit_probability(n, A, phi):
    """Exact Q_n(phi) for phi < pi/2 (Shannon 1959): with x = sqrt(A n) + z1
    the point leaves the cone iff x <= 0 or |z_rest|^2 > x^2 tan^2(phi), and
    |z_rest|^2 is chi-square with n - 1 degrees of freedom."""
    r, t2, chi = math.sqrt(A * n), math.tan(phi) ** 2, stats.chi2(n - 1)
    lo, hi = max(-r, -12.0), 12.0
    inside, _ = integrate.quad(
        lambda z: stats.norm.pdf(z) * chi.sf((r + z) ** 2 * t2),
        lo, hi, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return float(stats.norm.cdf(lo) + inside)


class TestConeExit:
    @pytest.mark.parametrize("n,A,phi", [(20, 1.0, 0.8), (60, 4.0, 0.6), (100, 4.0, 0.55)])
    def test_matches_exact_probability(self, n, A, phi):
        trials = 1_000_000
        q = cone_exit_probability(n, A, phi)
        _, _, exits = simulate_cone_exit(n, AwgnChannel(A), phi, trials, seed=n, workers=2)
        z = (exits - trials * q) / math.sqrt(trials * q * (1.0 - q))
        assert abs(z) <= 5.0

    def test_cost_independent_of_dimension(self):
        tracemalloc.start()
        try:
            simulate_cone_exit(2000, CH4, 0.55, 2**14, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_deterministic_across_workers(self):
        a = simulate_cone_exit(60, CH4, 0.55, 100_000, seed=8, workers=1)
        b = simulate_cone_exit(60, CH4, 0.55, 100_000, seed=8, workers=4)
        assert a == b

    def test_decreasing_in_blocklength(self):
        ests = [
            simulate_cone_exit(n, CH4, 0.55, 200_000, seed=1)[0] for n in (50, 100, 200)
        ]
        assert ests[0] > ests[1] > ests[2] > 0.0

    def test_wide_cone_never_exits(self):
        est, (lo, hi), exits = simulate_cone_exit(40, CH4, 3.1, 10_000, seed=0)
        assert exits == 0 and est == 0.0 and lo == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_cone_exit(1, CH4, 0.5, 100, seed=0)
        with pytest.raises(ValueError, match="trials must be positive"):
            simulate_cone_exit(10, CH4, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_cone_exit(10, CH4, 4.0, 100, seed=0)


class TestEstimateExponent:
    def test_exact_exponential(self):
        pts = [(n, math.exp(-0.3 * n + 1.0)) for n in (100, 200, 400)]
        out = estimate_exponent(pts)
        assert isinstance(out, RegressionResult)
        assert out.slope == pytest.approx(0.3, abs=1e-12)
        assert out.intercept == pytest.approx(-1.0, abs=1e-10)
        assert out.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_exponent([(100, 0.5), (200, 0.1)])
        with pytest.raises(ValueError):
            estimate_exponent([(100, 0.5), (200, 0.0), (300, 0.1)])
        with pytest.raises(ValueError):
            estimate_exponent([(100, 0.5), (100, 0.4), (100, 0.3)])


class TestWeightDistributionHelper:
    def test_random_code_total(self):
        code = gen_linear_code(14, 6, 5)
        wd = weight_distribution(code)
        total = sum(round(2.0**c) for c in wd.log2_counts if c > -math.inf)
        assert total == 1 << 6
        assert wd.log2_counts[0] == 0.0
