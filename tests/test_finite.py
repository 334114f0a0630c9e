import math
import tracemalloc

import numpy as np
import pytest

from eebounds.binary import BscChannel, gallager_exponent
from eebounds.finite import (
    MarginParams,
    WeightDistribution,
    awgn_union_bound,
    binary_union_bound,
    exact_margin_probability,
    triangle_count,
)
from eebounds.numerics import LN2, log_sum
from eebounds.spherical import AwgnChannel, esp, f_exponent
from eebounds.simulate import LinearCode, gen_linear_code, margin_decode, weight_distribution

HAMMING74 = LinearCode(7, 4, ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)))


def _spectrum(code):
    return [round(2.0**c) if c > -math.inf else 0 for c in weight_distribution(code).log2_counts]


# (id, weight counts) of small codes for the direct-summation reference.
DIRECT_SUM_SPECTRA = [
    ("n10k4s3", _spectrum(gen_linear_code(10, 4, 3))),
    ("n12k5s1", _spectrum(gen_linear_code(12, 5, 1))),
    ("n12k8s2", _spectrum(gen_linear_code(12, 8, 2))),
    ("hamming74", _spectrum(HAMMING74)),
    ("n8k0", _spectrum(gen_linear_code(8, 0, 0))),
    ("zero-only-n9", [1] + [0] * 9),
]


# log2 binary_union_bound(gv_ensemble(n, 0.3), p=0.07, MarginParams(t), mode),
# recorded from the per-weight evaluation; each n spans several row blocks.
PINNED_GV_BOUNDS = {
    (1024, "error", 0): -120.05979778627626,
    (1024, "error", 2): -126.70354664997595,
    (1024, "erasure", 0): -120.05979778627626,
    (1024, "erasure", 2): -113.55521022890653,
    (2048, "error", 0): -234.72815647653462,
    (2048, "error", 2): -241.31947607984227,
    (2048, "erasure", 0): -234.72815647653462,
    (2048, "erasure", 2): -228.2081113326227,
    (4096, "error", 0): -463.13733819557484,
    (4096, "error", 2): -469.7021993599513,
    (4096, "erasure", 0): -463.13733819557484,
    (4096, "erasure", 2): -456.6086109861701,
}


def _peak_mb(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def brute_triangle(n, k, i, j):
    """Count z with |z| ... wt(z)=i and wt(z^x)=j for a fixed x of weight k."""
    x = (1 << k) - 1
    cnt = 0
    for z in range(1 << n):
        if bin(z).count("1") == i and bin(z ^ x).count("1") == j:
            cnt += 1
    return cnt


class TestTriangleCount:
    def test_endpoint(self):
        for n in (3, 5, 9):
            for k in range(n + 1):
                assert triangle_count(n, k, 0, k) == 1

    def test_reference(self):
        assert triangle_count(5, 2, 1, 1) == 2
        assert triangle_count(5, 2, 1, 2) == 0

    def test_brute_force(self):
        for n in (4, 6, 8):
            for k in range(n + 1):
                for i in range(n + 1):
                    for j in range(n + 1):
                        assert triangle_count(n, k, i, j) == brute_triangle(n, k, i, j)

    def test_out_of_range(self):
        assert triangle_count(5, 2, 7, 1) == 0
        assert triangle_count(5, -1, 1, 1) == 0


class TestHammingCode:
    def test_weight_distribution(self):
        wd = weight_distribution(HAMMING74)
        counts = [round(2.0**c) if c > -math.inf else 0 for c in wd.log2_counts]
        assert counts == [1, 0, 0, 7, 7, 0, 0, 1]

    def test_perfect_code_closed_form(self):
        p = 0.05
        pc, pu, pe = exact_margin_probability(HAMMING74, p, 0)
        covered = sum(math.comb(7, e) * p**e * (1 - p) ** (7 - e) for e in (0, 1))
        assert pe == 0.0
        assert pu == pytest.approx(1.0 - covered, abs=1e-15)
        assert pc == pytest.approx(covered, abs=1e-15)


class TestBinaryUnionBound:
    def test_dominates_exact_oracle(self):
        for seed in range(6):
            code = gen_linear_code(12, 5, seed)
            wd = weight_distribution(code)
            for p in (0.01, 0.05, 0.1):
                for t in (0, 1, 2):
                    pc, pu, pe = exact_margin_probability(code, p, t)
                    b_err = binary_union_bound(wd, p, MarginParams(t), "error")
                    b_era = binary_union_bound(wd, p, MarginParams(t), "erasure")
                    if pu > 0:
                        assert b_err >= math.log2(pu) - 1e-9
                    if pu + pe > 0:
                        assert b_era >= math.log2(pu + pe) - 1e-9

    def test_hamming_within_factor_ten(self):
        wd = weight_distribution(HAMMING74)
        _, pu, _ = exact_margin_probability(HAMMING74, 0.05, 0)
        bound = binary_union_bound(wd, 0.05, MarginParams(0), "error")
        assert math.log2(pu) <= bound <= math.log2(10.0 * pu)

    def test_zero_codeword_only_gives_tail(self):
        wd = WeightDistribution.from_counts([1] + [0] * 9)
        n, p = 9, 0.1
        bound = binary_union_bound(wd, p, MarginParams(0, r=3), "error")
        tail = sum(math.comb(n, e) * p**e * (1 - p) ** (n - e) for e in range(4, n + 1))
        assert 2.0**bound == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.2])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", ["error", "erasure"])
    @pytest.mark.parametrize("spectrum", DIRECT_SUM_SPECTRA, ids=lambda c: c[0])
    def test_matches_direct_summation(self, spectrum, mode, t, p):
        # Independent linear-domain evaluation of the same finite sum, over
        # (e, i) as the bound is defined, at the default radius and at an
        # override.
        counts = spectrum[1]
        n = len(counts) - 1
        wd = WeightDistribution.from_counts(counts)
        sign = 1 if mode == "error" else -1
        d = next((w for w in range(1, n + 1) if counts[w] > 0), None)
        for r_override in (None, n // 3):
            if r_override is not None:
                r = r_override
            else:
                r = n if d is None else d + sign * 2 * t
            r = max(min(r, n), -1)
            total = 0.0
            for w in range(1, n + 1):
                if counts[w] == 0:
                    continue
                lo = max(math.ceil(w / 2) + sign * t, 0)
                for e in range(lo, r + 1):
                    inner = sum(
                        math.comb(w, i) * math.comb(n - w, e - i)
                        for i in range(lo, min(e, w) + 1)
                        if 0 <= e - i <= n - w
                    )
                    total += counts[w] * inner * p**e * (1 - p) ** (n - e)
            total += sum(math.comb(n, e) * p**e * (1 - p) ** (n - e) for e in range(r + 1, n + 1))
            bound = binary_union_bound(wd, p, MarginParams(t, r_override), mode)
            if total == 0.0:
                assert bound == -math.inf
            else:
                assert 2.0**bound == pytest.approx(total, rel=1e-12)

    def test_monotone_in_counts_and_p(self):
        code = gen_linear_code(12, 5, 1)
        wd = weight_distribution(code)
        bumped = list(wd.log2_counts)
        w = wd.min_distance
        bumped[w] = bumped[w] + 1.0
        wd2 = WeightDistribution(wd.n, tuple(bumped))
        m = MarginParams(1)
        assert binary_union_bound(wd2, 0.05, m) >= binary_union_bound(wd, 0.05, m)
        assert binary_union_bound(wd, 0.08, m) >= binary_union_bound(wd, 0.05, m)

    def test_gv_ensemble_floor(self):
        wd = WeightDistribution.gv_ensemble(64, 0.3)
        assert wd.log2_counts[0] == 0.0
        # Expected counts below one are floored away.
        assert wd.log2_counts[1] == -math.inf
        assert wd.min_distance is not None and wd.min_distance > 1

    def test_gv_exponent_near_asymptote(self):
        n, p, R = 1024, 0.07, 0.3
        wd = WeightDistribution.gv_ensemble(n, R)
        bound = binary_union_bound(wd, p, MarginParams(0), "error")
        assert -bound / n == pytest.approx(gallager_exponent(R, BscChannel(p)).value, abs=0.05)

    @pytest.mark.parametrize("key", sorted(PINNED_GV_BOUNDS), ids=str)
    def test_pinned_gv_values(self, key):
        n, mode, t = key
        wd = WeightDistribution.gv_ensemble(n, 0.3)
        bound = binary_union_bound(wd, 0.07, MarginParams(t), mode)
        assert bound == pytest.approx(PINNED_GV_BOUNDS[key], rel=1e-12)

    def test_peak_memory_bounded(self):
        wd = WeightDistribution.gv_ensemble(4096, 0.3)
        for mode in ("error", "erasure"):
            assert _peak_mb(lambda: binary_union_bound(wd, 0.07, MarginParams(2), mode)) < 2.0

    def test_mode_validation(self):
        wd = weight_distribution(HAMMING74)
        with pytest.raises(ValueError):
            binary_union_bound(wd, 0.05, MarginParams(0), "both")
        with pytest.raises(ValueError):
            binary_union_bound(wd, 0.6, MarginParams(0))
        with pytest.raises(ValueError):
            MarginParams(-1)


class TestAwgnUnionBound:
    CH = AwgnChannel(4.0)

    def test_empty_spectrum_is_tail_only(self):
        n, rho = 200, 1.0
        wd = WeightDistribution.from_counts([1] + [0] * n)
        bound = awgn_union_bound(wd, self.CH, 0.0, rho)
        assert bound == pytest.approx(-n * esp(rho, self.CH), abs=1e-12)

    def test_single_weight_matches_pairwise_exponent(self):
        n = 600
        w = 180
        counts = [0] * (n + 1)
        counts[0] = 1
        counts[w] = 1
        wd = WeightDistribution.from_counts(counts)
        rho = math.pi / 2.0 - 1e-3
        theta_w = math.acos(1.0 - 2.0 * w / n)
        bound = awgn_union_bound(wd, self.CH, 0.0, rho)
        target = f_exponent(theta_w, 0.0, self.CH, rho)[0]
        assert -bound / n == pytest.approx(target, abs=0.02)

    def test_binomial_spectrum_recovers_random_coding(self):
        n, R = 800, 0.2
        wd = WeightDistribution.binomial_spherical(n, R)
        rho = math.pi / 2.0 - 1e-3
        bound = awgn_union_bound(wd, self.CH, 0.0, rho)
        r0 = math.log(2.0) - math.log(1.0 + math.exp(-self.CH.A / 2.0))
        assert r0 == pytest.approx(0.566219, abs=1e-6)
        assert -bound / n == pytest.approx(r0 - R, abs=0.05)

    def test_radius_validation(self):
        wd = WeightDistribution.from_counts([1, 0, 1])
        with pytest.raises(ValueError):
            awgn_union_bound(wd, self.CH, 0.0, 2.0)

    def test_radius_below_capacity_angle_raises(self):
        # esp(0.3) > 0 at A = 4, but the cone-exit probability is near 1 there.
        wd = WeightDistribution.binomial_spherical(256, 0.5)
        with pytest.raises(ValueError, match="capacity angle"):
            awgn_union_bound(wd, self.CH, 0.0, 0.3)

    def test_input_validation(self):
        wd = WeightDistribution.binomial_spherical(64, 0.3)
        for q in (0, -3):
            with pytest.raises(ValueError, match="quad_points"):
                awgn_union_bound(wd, self.CH, 0.0, 1.0, quad_points=q)
        with pytest.raises(ValueError, match="dimension n"):
            awgn_union_bound(WeightDistribution.from_counts([1, 1]), self.CH, 0.0, 1.0)
        # Weight 1 of n = 64 starts its cone at acos(1 - 2/64)/2 ~ 0.125.
        light = WeightDistribution.from_counts([1, 1] + [0] * 63)
        with pytest.raises(ValueError, match="tau"):
            awgn_union_bound(light, self.CH, -0.2, 1.0)

    @staticmethod
    def _per_weight_reference(wd, ch, tau, rho, quad_points):
        """The bound evaluated one weight at a time: a midpoint rule per weight."""
        n = wd.n
        log_cap_pref = (
            math.lgamma(n / 2.0)
            - math.lgamma((n - 1) / 2.0)
            - 0.5 * math.log(math.pi)
            - math.log(n - 1)
        )

        def log_f(theta):
            half = theta / 2.0 + tau
            phis = half + (np.arange(quad_points) + 0.5) * (rho - half) / quad_points
            tan_ratio = math.tan(half) / np.tan(phis)
            sin_x = np.sqrt(np.maximum(1.0 - tan_ratio**2, 0.0))
            with np.errstate(divide="ignore"):
                log_omega = log_cap_pref + (n - 1) * np.log(sin_x) - np.log(tan_ratio)
            integrand = log_omega - n * esp(phis, ch)
            return log_sum(list(integrand), base=math.e) + math.log((rho - half) / quad_points)

        pieces = []
        d = wd.min_distance
        if d is not None:
            w_hi = min(n, math.floor(n * (1.0 - math.cos(2.0 * rho)) / 2.0))
            for w in range(d, w_hi + 1):
                law = wd.log2_counts[w]
                if law == -math.inf:
                    continue
                theta_w = math.acos(1.0 - 2.0 * w / n)
                if theta_w / 2.0 + tau >= rho - 1e-12:
                    continue
                pieces.append(law * LN2 + log_f(theta_w))
        pieces.append(-n * esp(rho, ch))
        return log_sum(pieces, base=math.e)

    @pytest.mark.parametrize("quad_points", [1, 3, 2048])
    @pytest.mark.parametrize("tau", [-0.02, 0.0, 0.05])
    @pytest.mark.parametrize("rate", [0.2, 0.45])
    @pytest.mark.parametrize("n", [2, 64, 256, 1024])
    def test_matches_per_weight_loop(self, n, rate, tau, quad_points):
        wd = WeightDistribution.binomial_spherical(n, rate)
        rho = 1.3
        bound = awgn_union_bound(wd, self.CH, tau, rho, quad_points)
        ref = self._per_weight_reference(wd, self.CH, tau, rho, quad_points)
        assert bound == pytest.approx(ref, rel=1e-12)

    def test_peak_memory_bounded(self):
        wd = WeightDistribution.binomial_spherical(4096, 0.275)
        assert _peak_mb(lambda: awgn_union_bound(wd, self.CH, 0.02, 1.2)) < 2.0


class TestExactOracle:
    def test_probabilities_sum_to_one(self):
        for seed in range(4):
            code = gen_linear_code(11, 6, seed)
            for p in (0.02, 0.11):
                for t in (0, 1):
                    pc, pu, pe = exact_margin_probability(code, p, t)
                    assert pc + pu + pe == pytest.approx(1.0, abs=1e-12)
                    assert min(pc, pu, pe) >= 0.0

    def test_noiseless_limit(self):
        pc, pu, pe = exact_margin_probability(HAMMING74, 0.0, 1)
        assert pc == 1.0 and pu == 0.0 and pe == 0.0

    def test_huge_margin_erases_everything(self):
        pc, pu, pe = exact_margin_probability(HAMMING74, 0.05, 7)
        assert pe == pytest.approx(1.0, abs=1e-12)
        assert pu == 0.0

    def test_tie_at_zero_margin_erases(self):
        # Repetition code of length 2: y = (1, 0) ties between both codewords.
        rep = LinearCode(2, 1, ((1,),))
        pc, pu, pe = exact_margin_probability(rep, 0.3, 0)
        # Exactly the words 01 and 10 are equidistant ties.
        assert pe == pytest.approx(2.0 * 0.3 * 0.7, abs=1e-15)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exact_margin_probability(gen_linear_code(17, 4, 0), 0.05, 0)
        with pytest.raises(ValueError):
            exact_margin_probability(gen_linear_code(16, 11, 0), 0.05, 0)
        with pytest.raises(ValueError):
            exact_margin_probability(HAMMING74, 1.5, 0)
        with pytest.raises(ValueError):
            exact_margin_probability(HAMMING74, 0.05, -1)


def reference_codewords(code):
    """Codewords of a systematic code as Python ints, message order: bit j is
    coordinate j, and message u is the XOR of the generator rows set in u."""
    n, k = code.n, code.k
    rows = [(1 << i) | sum(b << (k + j) for j, b in enumerate(code.parity[i])) for i in range(k)]
    cws = []
    for u in range(1 << k):
        c = 0
        for i in range(k):
            if u >> i & 1:
                c ^= rows[i]
        cws.append(c)
    return cws


def reference_margin_decode(cws, y, t):
    """Margin winner for the integer word y by sorting Hamming distances to
    every codeword (stable, so ties rank by message index), or None."""
    dist = [bin(y ^ c).count("1") for c in cws]
    ranked = sorted(range(len(cws)), key=dist.__getitem__)
    if len(ranked) == 1 or dist[ranked[1]] - dist[ranked[0]] >= max(2 * t, 1):
        return ranked[0]
    return None


REFERENCE_CODES = [
    gen_linear_code(10, 4, 0),
    gen_linear_code(9, 5, 1),
    gen_linear_code(10, 6, 2),
    gen_linear_code(8, 0, 3),
    gen_linear_code(8, 8, 4),
    HAMMING74,
]


class TestPurePythonReference:
    """Every received word decoded by sorting integer distances, independent
    of the coset kernel that the oracle, margin_decode and the simulator share."""

    @pytest.mark.parametrize("code", REFERENCE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_oracle_and_margin_decode(self, code):
        n = code.n
        cws = reference_codewords(code)
        for t in (0, 1, 2, 7):
            outcomes = [reference_margin_decode(cws, y, t) for y in range(1 << n)]
            for y, want in enumerate(outcomes):
                assert margin_decode(code, [(y >> j) & 1 for j in range(n)], t) == want
            for p in (0.0, 0.1, 1.0):
                probs = [0.0, 0.0, 0.0]
                for y, out in enumerate(outcomes):
                    w = bin(y).count("1")
                    probs[0 if out == 0 else 2 if out is None else 1] += p**w * (1 - p) ** (n - w)
                got = exact_margin_probability(code, p, t)
                assert got == pytest.approx(tuple(probs), abs=1e-12)

    @pytest.mark.parametrize("code", REFERENCE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_weight_distribution(self, code):
        counts = [0] * (code.n + 1)
        for c in reference_codewords(code):
            counts[bin(c).count("1")] += 1
        assert weight_distribution(code) == WeightDistribution.from_counts(counts)
