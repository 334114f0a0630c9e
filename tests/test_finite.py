import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from eebounds import finite
from eebounds.binary import BscChannel, gallager_exponent, tradeoff_bounds
from eebounds.cli import _CLAIMS
from eebounds.finite import (
    LinearCode,
    MarginParams,
    WeightDistribution,
    _coset_table,
    _coset_weights,
    _cosets,
    _decided,
    _nearest,
    _walk,
    _words,
    awgn_union_bound,
    binary_union_bound,
    exact_margin_probability,
    gen_linear_code,
    triangle_count,
    weight_distribution,
)
from eebounds.numerics import LN2, log_sum
from eebounds.spherical import AwgnChannel, decoding_radius, esp, f_exponent
from eebounds.simulate import SphericalCodebook, simulate_awgn, simulate_bsc
from test_acceptance import GOLAY24

HAMMING74 = LinearCode(7, 4, ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)))


def _min_distance(wd):
    """The least present weight w >= 1 of ``wd``, None if it has none."""
    return next((w for w in range(1, wd.n + 1) if wd.log2_counts[w] > -math.inf), None)


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


# Spectra near p = 1/2 at n >= 1500, where CDF entries lie more than 1074
# bits below their row's maximum: GV ensembles (low rate gives the widest
# rows), and erasure spectra of a few small weights, whose lo lies below the
# binomial(w, p) mode at t = 7. At n = 2048 the small weights' rows read CDFs
# far below 2^-1074 (the tail dominates their total); at n = 48 they show.
NEAR_HALF_CASES = [
    (f"gv{n}-R{rate}-p{p}-{mode}-t{t}", n, ("gv", rate), p, mode, t)
    for n in (2048, 4096)
    for rate in (0.05, 0.3)
    for p in (0.45, 0.4999)
    for mode in ("error", "erasure")
    for t in (0, 7)
] + [
    (f"small{n}-w{'-'.join(map(str, weights))}-p{p}", n, ("counts", weights), p, "erasure", 7)
    for n in (48, 2048)
    for weights in ((20, 23, 26, 40), (24, 29, 31, 44))
    for p in (0.3, 0.45, 0.4999)
]


def _near_half_spectrum(n, spec):
    if spec[0] == "gv":
        return WeightDistribution.gv_ensemble(n, spec[1])
    counts = [1] + [0] * n
    for k, w in enumerate(spec[1]):
        counts[w] = 5**k
    return WeightDistribution.from_counts(counts)


def _log_domain_union_bound(wd, p, t, mode):
    """The binary union bound one weight at a time in the log domain: each
    binomial(n - w, p) CDF by a prefix log-sum-exp, which loses no entry to
    underflow however far below its row's maximum it lies."""
    n = wd.n
    sign = 1 if mode == "error" else -1
    lp, lq = math.log2(p), math.log2(1.0 - p)
    lf = np.array([math.lgamma(k + 1) for k in range(n + 1)]) / LN2

    def log_pmf(m, j):
        return lf[m] - lf[j] - lf[m - j] + j * lp + (m - j) * lq

    d = _min_distance(wd)
    r = n if d is None else max(min(d + sign * 2 * t, n), -1)
    pieces = []
    for w in range(1, n + 1):
        lo, hi = max((w + 1) // 2 + sign * t, 0), min(r, w)
        if wd.log2_counts[w] == -math.inf or lo > hi:
            continue
        log_cdf = np.logaddexp2.accumulate(log_pmf(n - w, np.arange(min(r - lo, n - w) + 1)))
        i = np.arange(lo, hi + 1)
        pieces.append(wd.log2_counts[w] + log_sum(log_pmf(w, i) + log_cdf[np.minimum(r - i, n - w)]))
    if r < n:
        pieces.append(log_sum(log_pmf(n, np.arange(r + 1, n + 1))))
    return log_sum(pieces)


def _three_gather_union_bound(wd, p, t, mode):
    """The binary union bound with every pmf entry gathered element by
    element, the reference for the window reads of the row builder: each
    entry gathers the log-factorial table at m, j and m - j, the CDF rows are
    clipped at their last read entry and the i-terms past hi masked to -inf,
    then the same row-scaled linear-domain sums."""
    n = wd.n
    sign = 1 if mode == "error" else -1
    lp, lq = math.log2(p), math.log2(1.0 - p)
    lf = np.array([math.lgamma(k + 1) for k in range(n + 1)]) / LN2

    def log_pmf(m, j):
        return lf[m] - lf[j] - lf[m - j] + j * lp + (m - j) * lq

    counts = np.array(wd.log2_counts)
    present = counts[1:] > -math.inf
    r = max(min(int(present.argmax()) + 1 + sign * 2 * t, n), -1) if present.any() else n
    w = np.arange(1, n + 1)
    lo = np.maximum((w + 1) // 2 + sign * t, 0)
    hi = np.minimum(r, w)
    keep = present & (lo <= hi)
    w, lo, hi = w[keep], lo[keep], hi[keep]
    off = n - w
    last = np.minimum(r - lo, off)
    rows = max(1, 2**14 // (int(max(last.max(initial=0), (hi - lo).max(initial=0))) + 1))
    pieces = []
    for s in range(0, len(w), rows):
        b = slice(s, s + rows)
        jc = np.minimum(np.arange(int(last[b].max()) + 1), last[b, None])
        lpmf = log_pmf(off[b, None], jc)
        top = lpmf.max(axis=1)
        cdf = np.cumsum(np.exp2(lpmf - top[:, None]), axis=1)
        i = lo[b, None] + np.arange(int((hi - lo)[b].max()) + 1)
        ic = np.minimum(i, hi[b, None])
        lw = log_pmf(w[b, None], ic)
        lw[i > hi[b, None]] = -math.inf
        lead = lw.max(axis=1)
        terms = np.exp2(lw - lead[:, None])
        terms *= np.take_along_axis(cdf, np.minimum(r - ic, off[b, None]), axis=1)
        pieces.extend(counts[w[b]] + lead + top + np.log2(terms.sum(axis=1)))
    if r < n:
        pieces.append(log_sum(log_pmf(n, np.arange(r + 1, n + 1))))
    return log_sum(pieces)


def _assert_close_to_three_gather(got, want, case):
    if want == -math.inf:
        assert got == -math.inf, case
    else:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (case, got, want)


# Spectra whose rows read the pmf tables' padding: weights at n - 1 and n
# have n - w < r - lo, so their CDF rows run past their last pmf entry.
PADDED_ROW_SPECTRA = [
    (n, weights)
    for n in (8, 9, 64, 1023)
    for weights in ((n - 1, n), (n - 1,), (n,), (n // 2 + 3, n - 1, n))
]


def _peak_mb(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestTriangleCount:
    def test_endpoint(self):
        for n in (3, 5, 9):
            for k in range(n + 1):
                assert triangle_count(n, k, 0, k) == 1

    def test_reference(self):
        assert triangle_count(5, 2, 1, 1) == 2
        assert triangle_count(5, 2, 1, 2) == 0

    def test_brute_force(self):
        assert _CLAIMS["triangle-count brute force"].check(ns=(4, 6, 8)) == 0.0

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
        claim = _CLAIMS["union bound dominates oracle"]
        cases = [((12, 5, seed), (0.01, 0.05, 0.1), (0, 1, 2)) for seed in range(6)]
        assert claim.check(cases=cases) <= claim.tol

    def test_hamming_within_factor_ten(self):
        wd = weight_distribution(HAMMING74)
        _, pu, _ = exact_margin_probability(HAMMING74, 0.05, 0)
        bound = binary_union_bound(wd, 0.05, MarginParams(0), "error")
        assert math.log2(pu) <= bound <= math.log2(10.0 * pu)

    @pytest.mark.parametrize("p", [0.05, 0.2])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", ["error", "erasure"])
    @pytest.mark.parametrize("spectrum", DIRECT_SUM_SPECTRA, ids=lambda c: c[0])
    def test_matches_direct_summation(self, spectrum, mode, t, p):
        # Independent linear-domain evaluation of the same finite sum, over
        # (e, i) as the bound is defined, at the radius d + 2t (d - 2t for
        # erasure), or n for a code with no nonzero codeword.
        counts = spectrum[1]
        n = len(counts) - 1
        wd = WeightDistribution.from_counts(counts)
        sign = 1 if mode == "error" else -1
        d = next((w for w in range(1, n + 1) if counts[w] > 0), None)
        r = n if d is None else max(min(d + sign * 2 * t, n), -1)
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
        bound = binary_union_bound(wd, p, MarginParams(t), mode)
        if total == 0.0:
            assert bound == -math.inf
        else:
            assert 2.0**bound == pytest.approx(total, rel=1e-12)

    def test_monotone_in_counts_and_p(self):
        code = gen_linear_code(12, 5, 1)
        wd = weight_distribution(code)
        bumped = list(wd.log2_counts)
        w = _min_distance(wd)
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
        d = _min_distance(wd)
        assert d is not None and d > 1

    @pytest.mark.parametrize("rate", [1.5, -0.5, 1.0 + 1e-12, -1e-300, math.nan])
    def test_gv_ensemble_rejects_rate_outside_unit_interval(self, rate):
        # At 1.5 the counts exceed C(n, w) (log2 bound 33.57 at n = 64); at
        # -0.5 every count is floored away and the bound reads -inf.
        with pytest.raises(ValueError, match=r"rate must lie in \[0, 1\] bits"):
            WeightDistribution.gv_ensemble(64, rate)
        with pytest.raises(ValueError, match=r"rate must lie in \[0, ln 2\] nats"):
            WeightDistribution.binomial_spherical(64, rate * LN2)

    def test_rate_interval_ends_accepted(self):
        assert _min_distance(WeightDistribution.gv_ensemble(64, 0.0)) is None
        assert _min_distance(WeightDistribution.gv_ensemble(64, 1.0)) == 1
        assert WeightDistribution.binomial_spherical(64, LN2) == WeightDistribution.gv_ensemble(64, 1.0)

    def test_gv_exponent_near_asymptote(self):
        n, p, R = 1024, 0.07, 0.3
        wd = WeightDistribution.gv_ensemble(n, R)
        bound = binary_union_bound(wd, p, MarginParams(0), "error")
        assert -bound / n == pytest.approx(gallager_exponent(R, BscChannel(p)).value, abs=0.05)

    @pytest.mark.parametrize("p, tau, R, mode", [
        (0.07, 0.02, 0.15, "error"), (0.07, 0.02, 0.15, "erasure"),
        (0.05, 0.01, 0.2, "error"), (0.05, 0.01, 0.2, "erasure"),
        (0.1, 0.03, 0.1, "error"), (0.1, 0.03, 0.1, "erasure"),
        (0.07, 0.02, 0.25, "error"),
    ])
    def test_gv_regime_b_exponent(self, p, tau, R, mode):
        # In regime (b) the GV ensemble's bound at margin t = tau n is
        # 2^-n(E + a log2(n)/n + c/n) to within what three lengths resolve:
        # the fit gives the trade-off member's exponent E and a = 1/2. The
        # rates keep clear of the regime splits, where the fit converges
        # slowly (2.1e-6 off at p, tau, R = 0.07, 0.02, 0.1).
        ns = (3200, 6400, 12800)
        ys = [-binary_union_bound(WeightDistribution.gv_ensemble(n, R), p,
                                  MarginParams(round(tau * n)), mode) / n for n in ns]
        E, a, _ = np.linalg.solve([[1.0, math.log2(n) / n, 1.0 / n] for n in ns], ys)
        member = tradeoff_bounds(R, BscChannel(p), tau)[0 if mode == "error" else 1]
        assert member.valid and member.regime == "b"
        assert abs(E - member.value) <= 1e-6
        assert a == pytest.approx(0.5, abs=1e-3)

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

    @pytest.mark.parametrize("case", NEAR_HALF_CASES, ids=lambda c: c[0])
    def test_matches_log_domain_reference_near_half(self, case):
        # Each linear-domain row is rescaled by its maximum. Without that, a
        # row whose pmf lies wholly below 2^-1074 sums to 0, and its log2
        # warns; such rows are too small to move these totals.
        _, n, spec, p, mode, t = case
        wd = _near_half_spectrum(n, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = binary_union_bound(wd, p, MarginParams(t), mode)
        assert bound == pytest.approx(_log_domain_union_bound(wd, p, t, mode), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("rate", [0.05, 0.3, 0.5])
    @pytest.mark.parametrize("n", [64, 256, 512, 1024, 2048, 4096])
    def test_matches_three_gather_formula(self, n, rate):
        wd = WeightDistribution.gv_ensemble(n, rate)
        for p in (0.01, 0.07, 0.2, 0.45):
            for mode in ("error", "erasure"):
                for t in (0, 2, 7):
                    want = _three_gather_union_bound(wd, p, t, mode)
                    got = binary_union_bound(wd, p, MarginParams(t), mode)
                    _assert_close_to_three_gather(got, want, (p, mode, t))

    @pytest.mark.parametrize("spec", PADDED_ROW_SPECTRA, ids=lambda s: f"n{s[0]}-w{'-'.join(map(str, s[1]))}")
    def test_padded_rows_match_three_gather_formula(self, spec):
        n, weights = spec
        counts = [1] + [0] * n
        for k, w in enumerate(weights):
            counts[w] = 3**k
        wd = WeightDistribution.from_counts(counts)
        for p in (0.07, 0.3, 0.45):
            for mode in ("error", "erasure"):
                for t in (1, 7):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        got = binary_union_bound(wd, p, MarginParams(t), mode)
                    want = _three_gather_union_bound(wd, p, t, mode)
                    _assert_close_to_three_gather(got, want, (p, mode, t))

    def test_mode_validation(self):
        wd = weight_distribution(HAMMING74)
        with pytest.raises(ValueError):
            binary_union_bound(wd, 0.05, MarginParams(0), "both")
        with pytest.raises(ValueError):
            binary_union_bound(wd, 0.6, MarginParams(0))
        with pytest.raises(ValueError):
            MarginParams(-1)

    @pytest.mark.parametrize("t", [1.5, 2.0, "1", None])
    def test_margin_must_be_an_integer(self, t):
        # A float margin would otherwise fail later, as an array index in the bound.
        with pytest.raises(ValueError, match="margin must be an integer"):
            MarginParams(t)

    def test_numpy_integer_margin(self):
        wd = WeightDistribution.gv_ensemble(256, 0.3)
        for t in (np.int64(2), np.int32(2), np.uint8(2)):
            assert type(MarginParams(t).t) is int
            for mode in ("error", "erasure"):
                assert binary_union_bound(wd, 0.07, MarginParams(t), mode) == binary_union_bound(
                    wd, 0.07, MarginParams(2), mode
                )

    @pytest.mark.parametrize("counts", [[1, -3, 0, 2], [1, math.nan, 0, 2], [1, math.inf, 0, 2]])
    def test_malformed_counts_rejected(self, counts):
        # Read as absent weights they would lower the bound: log2 -6.108 for
        # the negative count at p = 0.05, t = 0.
        with pytest.raises(ValueError, match="weight counts must be finite and nonnegative"):
            WeightDistribution.from_counts(counts)


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
        with pytest.raises(ValueError, match="dimension n"):
            awgn_union_bound(WeightDistribution.from_counts([1, 1]), self.CH, 0.0, 1.0)
        # Weight 1 of n = 64 starts its cone at acos(1 - 2/64)/2 ~ 0.125.
        light = WeightDistribution.from_counts([1, 1] + [0] * 63)
        with pytest.raises(ValueError, match="tau"):
            awgn_union_bound(light, self.CH, -0.2, 1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_margin_raises(self, tau):
        # A non-finite tau fails every cone-start test, which would leave the
        # tail alone: -47.97 for this spectrum, whatever its pair terms.
        wd = WeightDistribution.binomial_spherical(64, 0.3)
        with pytest.raises(ValueError, match=f"tau must be finite, got {tau}"):
            awgn_union_bound(wd, AwgnChannel(4.0), tau, 1.0)

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
        for w in range(1, n + 1):
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
    def test_matches_per_weight_loop(self, n, rate, tau, quad_points, monkeypatch):
        # 2048 is the bound's node count. One or three nodes put thousands of
        # weights in one row block, a shape the default never reaches.
        monkeypatch.setattr(finite, "_QUAD_POINTS", quad_points)
        wd = WeightDistribution.binomial_spherical(n, rate)
        rho = 1.3
        bound = awgn_union_bound(wd, self.CH, tau, rho)
        ref = self._per_weight_reference(wd, self.CH, tau, rho, quad_points)
        assert bound == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("tau", [-0.02, 0.05])
    @pytest.mark.parametrize("n", [2, 64, 1024])
    @pytest.mark.parametrize(
        "A, rho",
        [(1.0, 1.3), (64.0, 1.3)] + [(A, math.pi / 2.0 - 1e-3) for A in (1.0, 4.0, 64.0)],
    )
    def test_matches_per_weight_loop_across_channels(self, A, rho, n, tau):
        # The check above at SNRs 1 and 64, and at a radius next to pi/2,
        # where tan(phi) reaches about 1000 at the last nodes.
        wd = WeightDistribution.binomial_spherical(n, 0.45)
        ch = AwgnChannel(A)
        bound = awgn_union_bound(wd, ch, tau, rho)
        ref = self._per_weight_reference(wd, ch, tau, rho, finite._QUAD_POINTS)
        assert bound == pytest.approx(ref, rel=1e-12)

    def test_erasure_window_keeps_every_cone_start_below_rho(self):
        # tau < 0 starts weights 2, 3 and 4 (38 codewords) inside rho = 0.418,
        # though theta_w / 2 > rho for each: a weight window blind to tau
        # dropped them and read the tail alone, -4.666403101694927.
        ch, tau = AwgnChannel(16.0), -0.2
        wd = WeightDistribution.binomial_spherical(12, 0.44)
        rho = decoding_radius(0.44, tau, ch)
        bound = awgn_union_bound(wd, ch, tau, rho)
        ref = self._per_weight_reference(wd, ch, tau, rho, finite._QUAD_POINTS)
        assert bound == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(-4.591891415794306, rel=1e-12)

    def test_peak_memory_bounded(self):
        wd = WeightDistribution.binomial_spherical(4096, 0.275)
        assert _peak_mb(lambda: awgn_union_bound(wd, self.CH, 0.02, 1.2)) < 2.0


class TestExactOracle:
    def test_probabilities_sum_to_one(self):
        claim = _CLAIMS["oracle total probability"]
        cases = [((11, 6, seed), (0.02, 0.11), (0, 1)) for seed in range(4)]
        assert claim.check(cases=cases) <= claim.tol  # inf if a probability is negative

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
        # The coset table's element budget: n - k <= 20 and k <= 20.
        with pytest.raises(ValueError):
            exact_margin_probability(gen_linear_code(25, 4, 0), 0.05, 0)
        with pytest.raises(ValueError):
            exact_margin_probability(gen_linear_code(22, 21, 0), 0.05, 0)
        with pytest.raises(ValueError):
            exact_margin_probability(HAMMING74, 1.5, 0)
        with pytest.raises(ValueError):
            exact_margin_probability(HAMMING74, 0.05, -1)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: WeightDistribution(3, (0.0, 0.0)), "expected 4 counts, got 2"),
            # gv_ensemble reads its factorial table at n before it builds the spectrum.
            (lambda: WeightDistribution.gv_ensemble(-5, 0.3), "n must be at least 1, got -5"),
            (lambda: WeightDistribution.gv_ensemble(0, 0.3), "n must be at least 1, got 0"),
            (lambda: WeightDistribution.binomial_spherical(0, 0.3), "n must be at least 1, got 0"),
            (lambda: WeightDistribution.from_counts([1]), "n must be at least 1, got 0"),
            (lambda: LinearCode(3, 4, ((),) * 4), "need 0 <= k <= n, got k=4, n=3"),
            (lambda: LinearCode(3, -1, ()), "need 0 <= k <= n, got k=-1, n=3"),
            (lambda: LinearCode(3, 1, ((1,),)), r"parity block must be k x \(n - k\)"),
            (lambda: LinearCode(3, 2, ((1,),)), r"parity block must be k x \(n - k\)"),
        ],
        ids=["counts", "gv-n<0", "gv-n=0", "binomial-n=0", "from-counts-n=0", "k>n", "k<0",
             "row-length", "row-count"],
    )
    def test_shape_checks(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_margin_must_be_an_integer(self):
        # 2t = 3 would match neither t = 1 nor t = 2.
        with pytest.raises(ValueError, match="margin must be an integer, got 1.5"):
            exact_margin_probability(HAMMING74, 0.05, 1.5)

    def test_numpy_integer_margin(self):
        # In uint8, 2t = 260 would wrap around to 4: the t = 2 result.
        code = gen_linear_code(14, 2, 0)
        for t, same in ((np.uint8(130), 130), (np.int64(1), 1)):
            assert exact_margin_probability(code, 0.05, t) == exact_margin_probability(
                code, 0.05, same
            )
        assert exact_margin_probability(code, 0.05, np.uint8(130)) != exact_margin_probability(
            code, 0.05, 2
        )


# Shapes for the coset table: no parity bits, no information bits, one word
# of each, and codes whose tables take several passes.
TABLE_CODES = [
    gen_linear_code(8, 0, 0),
    gen_linear_code(8, 8, 0),
    LinearCode(2, 1, ((1,),)),
    HAMMING74,
    gen_linear_code(14, 7, 0),
    gen_linear_code(24, 12, 0),
]


class TestExtendedGolay:
    """The extended Golay [24, 12, 8] code on the walk, the coset table, the
    exact oracle and the BSC simulator."""

    def test_weight_distribution(self):
        assert _spectrum(GOLAY24) == [
            {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}.get(w, 0) for w in range(25)
        ]

    def test_coset_leaders(self):
        # Every word within 3 of a codeword has a unique leader, the next
        # coset word lying 8 - 2 d1 farther; the 1771 weight-4 cosets hold
        # six weight-4 words each, so their d2 ties d1.
        d1, d2 = (d.astype(int) for d in _cosets(GOLAY24)[1:3])
        assert np.bincount(d1).tolist() == [1, 24, 276, 2024, 1771]
        assert (d2 - d1 == np.where(d1 <= 3, 8 - 2 * d1, 0)).all()

    @pytest.mark.parametrize("p", (0.01, 0.05, 0.1))
    @pytest.mark.parametrize("t", (0, 1, 2, 3))
    def test_oracle_correct_probability(self, p, t):
        # A coset decodes when 8 - 2 d1 >= max(2t, 1), i.e. d1 <= min(3, 4 - t),
        # and correctly when the error is its leader.
        pc = exact_margin_probability(GOLAY24, p, t)[0]
        leaders = range(min(3, 4 - t) + 1)
        exact = sum(math.comb(24, i) * p**i * (1 - p) ** (24 - i) for i in leaders)
        assert pc == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("t", (0, 1))
    def test_table_and_walk_agree(self, t, monkeypatch):
        table = simulate_bsc(GOLAY24, 0.05, t, 20_000, seed=3)
        monkeypatch.setattr(finite, "_tabulable", lambda code: False)
        assert simulate_bsc(GOLAY24, 0.05, t, 20_000, seed=3) == table


class TestCosetTable:
    """``_coset_table`` against the popcount walk and its reduction run on
    every syndrome."""

    @pytest.mark.parametrize("code", TABLE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_matches_kernel(self, code):
        n, m, lone = code.n, code.n - code.k, code.k == 0
        # The received word with no info bits and parity bits s lies in coset s.
        cosets = np.zeros((1 << m, 2), dtype=np.uint64)
        cosets[:, 1] = np.arange(1 << m)
        near1, near2 = _nearest(code, cosets)
        d1, d2, prob = _coset_table(code, 0.1)
        assert np.array_equal(d1, near1)
        if not lone:
            assert np.array_equal(d2, near2)
        for t in (0, 1, 7):
            assert np.array_equal(_decided(d1, d2, 2 * t, lone), _decided(near1, near2, 2 * t, lone))
        prob_w = 0.1 ** np.arange(n + 1) * 0.9 ** np.arange(n, -1, -1)
        walked = np.zeros(1 << m)
        for rows, block in _walk(code, cosets):
            walked[rows] += prob_w[block].sum(axis=1)
        assert prob == pytest.approx(walked, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("code", TABLE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_per_word_reads_match_nearest(self, code):
        # The table branch of ``_coset_weights`` against the walk on the same
        # words. At k = 0 the d2 sentinels differ (2n + 1, 0xFFFF): compare
        # the decisions there.
        assert finite._tabulable(code)
        words = _words(code, np.random.default_rng(code.n).integers(0, 2, size=(300, code.n)))
        d1, d2 = _coset_weights(code, words)
        near1, near2 = _nearest(code, words)
        lone = code.k == 0
        assert np.array_equal(d1, near1)
        if not lone:
            assert np.array_equal(d2, near2)
        for t in (0, 1, 7):
            assert np.array_equal(_decided(d1, d2, 2 * t, lone), _decided(near1, near2, 2 * t, lone))

    def test_one_word_cosets_always_decode(self):
        # k = 0: each coset is its own leader, so no margin erases it. A
        # sentinel d2 of n + 1 would erase the all-ones word at t = 1. No
        # other word exists, so P_u is exactly 0 (it was once a few ulps).
        n8 = gen_linear_code(8, 0, 0)
        for code, p, t in ((n8, 0.03, 0), (n8, 0.03, 1), (n8, 1.0, 1), (n8, 0.03, 100),
                           (LinearCode(20, 0, ()), 0.1, 0)):
            pc, pu, pe = exact_margin_probability(code, p, t)
            assert (pc, pe) == pytest.approx((1.0, 0.0), abs=1e-15) and pu == 0.0


class TestCosetMemo:
    """``_cosets`` builds a code's p-free table once; the oracle and the BSC
    simulator read it, and a warm call gives the cold call's values."""

    SWEEP = [(p, t) for p in (0.0, 0.01, 0.07, 0.13, 0.5, 1.0) for t in (0, 1, 3)]

    @pytest.mark.parametrize("code", TABLE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_warm_calls_match_cold_calls(self, code):
        cold = []
        for p, t in self.SWEEP:
            _cosets.cache_clear()
            cold.append(exact_margin_probability(code, p, t))
        warm = [exact_margin_probability(code, p, t) for p, t in self.SWEEP]
        assert warm == cold  # bit for bit
        assert _cosets.cache_info().hits == len(self.SWEEP)

    @pytest.mark.parametrize("code", TABLE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_memo_is_read_only(self, code):
        for a in _cosets(code):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_simulator_reuses_the_oracle_table(self):
        _cosets.cache_clear()
        exact_margin_probability(gen_linear_code(24, 12, 0), 0.05, 1)
        # An equal code built anew: the memo is keyed by value.
        simulate_bsc(gen_linear_code(24, 12, 0), 0.05, 1, 1000, seed=3)
        info = _cosets.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cold_worker_threads_build_the_table_once(self):
        # Six worker threads, every one starting its block on a cold table,
        # with thread switches forced often: one build, and the one-worker
        # tally.
        code = gen_linear_code(32, 16, 0)
        interval = sys.getswitchinterval()
        _cosets.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            tally = simulate_bsc(code, 0.05, 1, 6 * 2**14, seed=2, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert _cosets.cache_info().misses == 1
        assert tally == simulate_bsc(code, 0.05, 1, 6 * 2**14, seed=2, workers=1)

    def test_memo_entry_is_compact(self):
        # A (40,20) entry: su (4 MiB of uint32), d1 and d2 (1 MiB each) and
        # at most 2^20 runs of a uint32 syndrome, a uint8 weight and a uint32
        # count (9 MiB). int64 arrays would hold about twice as much.
        code = gen_linear_code(40, 20, 0)
        _cosets.cache_clear()
        tracemalloc.start()
        try:
            exact_margin_probability(code, 0.05, 1)
            held = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
            _cosets.cache_clear()
        assert held < 16.0


class TestPack:
    """``_pack`` against bits placed one by one into Python ints."""

    @pytest.mark.parametrize("dtype", (bool, np.uint8, np.uint64))
    @pytest.mark.parametrize("rows", (0, 1, 3))
    @pytest.mark.parametrize("m", (0, 1, 63, 64, 65, 130))
    def test_matches_bitwise_reference(self, m, rows, dtype):
        bits = np.random.default_rng(m).integers(0, 2, size=(rows, m)).astype(dtype)
        if rows:
            bits[0] = 1  # every bit of a word set, the top one included
        words = max(1, -(-m // 64))
        want = np.zeros((rows, words), dtype=np.uint64)
        for i, row in enumerate(bits.tolist()):
            value = sum(int(b) << j for j, b in enumerate(row))
            want[i] = [value >> (64 * w) & (2**64 - 1) for w in range(words)]
        got = finite._pack(bits)
        assert got.shape == (rows, words) and np.array_equal(got, want)


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
    LinearCode(2, 1, ((1,),)),  # the words 01 and 10 tie
]


class TestPurePythonReference:
    """Every received word decoded by sorting integer distances, independent
    of the coset table (the oracle) and the popcount kernel (``_nearest``)."""

    @pytest.mark.parametrize("code", REFERENCE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_oracle_and_nearest(self, code):
        n, k = code.n, code.k
        cws = reference_codewords(code)
        # Bit j of the integer word y is coordinate j: k info bits, then parity.
        ys = np.arange(1 << n, dtype=np.uint64)
        words = np.column_stack([ys & np.uint64((1 << k) - 1), ys >> np.uint64(k)])
        d1, d2 = _nearest(code, words)
        ranked = [sorted(bin(y ^ c).count("1") for c in cws) for y in range(1 << n)]
        assert d1.tolist() == [r[0] for r in ranked]
        if k:
            assert d2.tolist() == [r[1] for r in ranked]
        for t in (0, 1, 2, 7):
            outcomes = [reference_margin_decode(cws, y, t) for y in range(1 << n)]
            decided = _decided(d1, d2, 2 * t, k == 0)
            assert decided.tolist() == [
                len(r) == 1 or r[1] - r[0] >= max(2 * t, 1) for r in ranked
            ]
            for p in (0.0, 0.1, 1.0):
                probs = [0.0, 0.0, 0.0]
                for y, out in enumerate(outcomes):
                    w = bin(y).count("1")
                    probs[0 if out == 0 else 2 if out is None else 1] += p**w * (1 - p) ** (n - w)
                got = exact_margin_probability(code, p, t)
                assert got == pytest.approx(tuple(probs), abs=1e-12)

    @pytest.mark.parametrize("code", REFERENCE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_coset_weights(self, code):
        # Every received word through the per-word reader, which takes the
        # coset table for each of these codes.
        n, k = code.n, code.k
        assert finite._tabulable(code)
        cws = reference_codewords(code)
        ys = np.arange(1 << n, dtype=np.uint64)
        words = np.column_stack([ys & np.uint64((1 << k) - 1), ys >> np.uint64(k)])
        d1, d2 = _coset_weights(code, words)
        ranked = [sorted(bin(y ^ c).count("1") for c in cws) for y in range(1 << n)]
        assert d1.tolist() == [r[0] for r in ranked]
        if k:
            assert d2.tolist() == [r[1] for r in ranked]

    @pytest.mark.parametrize("code", REFERENCE_CODES, ids=lambda c: f"{c.n}-{c.k}")
    def test_weight_distribution(self, code):
        counts = [0] * (code.n + 1)
        for c in reference_codewords(code):
            counts[bin(c).count("1")] += 1
        assert weight_distribution(code) == WeightDistribution.from_counts(counts)


class TestNearest:
    """``_nearest`` past the element budget, where the walk splits the 2^22
    messages at the 2^20 chunk boundary, against codewords built as integers."""

    def test_matches_integer_codewords_past_budget(self):
        n, k = 30, 22
        code = gen_linear_code(n, k, 0)
        # Message u's codeword is the XOR of the generator rows set in u.
        cws = np.zeros(1, dtype=np.uint64)
        for i, row in enumerate(code.parity):
            g = (1 << i) | sum(b << (k + j) for j, b in enumerate(row))
            cws = np.concatenate([cws, cws ^ np.uint64(g)])
        # Nearest at distance 1 in the third chunk and runner-up only in the
        # fourth; a tie at distance 2 between the first and the fourth chunk;
        # the last codeword with one error; random words.
        rng = np.random.default_rng(5)
        ys = [1029825122, 124264387, int(cws[-1]) ^ 8, *rng.integers(0, 1 << n, 5)]
        ys = np.array(ys, dtype=np.uint64)
        want, winner = [], []
        for y in ys:
            dist = np.bitwise_count(cws ^ y)
            want.append(tuple(np.partition(dist, 1)[:2].tolist()))
            winner.append(int(dist.argmin()))
        words = np.column_stack([ys & np.uint64((1 << k) - 1), ys >> np.uint64(k)])
        d1, d2 = _nearest(code, words)
        assert list(zip(d1.tolist(), d2.tolist())) == want
        decided = _decided(d1, d2, 0, False)
        assert not decided.all()  # a tie: an erasure
        assert (decided & (np.array(winner) >= 1 << 20)).any()  # a winner past the chunk boundary


def _refuses(f):
    with pytest.raises(ValueError):
        f()


_K20, _K22 = gen_linear_code(26, 20, 0), gen_linear_code(28, 22, 0)
_N45K21, _N26K18 = gen_linear_code(45, 21, 0), gen_linear_code(26, 18, 0)
_M48N600 = SphericalCodebook.random(48, 600, 0.05, 4)
# (entry point, call, tracemalloc peak bound in MB) for each entry point that
# takes a code, at a size past the element budget of 2^_BUDGET_BITS elements,
# and for one 2^14-trial AWGN block with n > M.
# Each bound lies below what a whole message span or distance matrix takes:
# 108 MB for _nearest at k = 22, 40.5 MB for codewords() and 106 MB for
# its BPSK image at (26,18), about 1.1 GB for the (words x 2^21) distances
# of the (45,21) simulation, and 150.6 MiB for the block's whole (2^14 x 600)
# noise and its gathered points.
MEMORY_BOUNDS = [
    ("_nearest-k20", lambda: _nearest(_K20, _words(_K20, np.zeros((1, 26)))), 28.0),
    ("_nearest-k22", lambda: _nearest(_K22, _words(_K22, np.zeros((1, 28)))), 48.0),
    ("weight_distribution-k22", lambda: weight_distribution(_K22), 32.0),
    ("simulate_bsc-45-21", lambda: simulate_bsc(_N45K21, 0.05, 1, 300, seed=6), 32.0),
    ("codewords-26-18", lambda: _N26K18.codewords(), 12.0),
    ("binary_codebook-26-18", lambda: SphericalCodebook.binary(_N26K18, 1.0), 64.0),
    ("simulate_awgn-48-600", lambda: simulate_awgn(_M48N600, 0.02, 2**14, seed=1), 8.0),
    # Past the coset table's budget: ValueError before any table is built.
    ("exact_margin_probability-45-21",
     lambda: _refuses(lambda: exact_margin_probability(_N45K21, 0.05, 1)), 1.0),
]


class TestMemoryContract:
    @pytest.mark.parametrize(
        "call,limit", [m[1:] for m in MEMORY_BOUNDS], ids=[m[0] for m in MEMORY_BOUNDS]
    )
    def test_peak_within_bound(self, call, limit):
        assert _peak_mb(call) < limit
