import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, xlogy

from eebounds import binary as binary_module
from eebounds.binary import (
    BscChannel,
    WeightProfile,
    bounded_distance_exponent,
    bz_bounds,
    delta_gv,
    entropy_family,
    gallager_exponent,
    landmarks,
    nontrivial_rate_threshold,
    specific_code_bound,
    tradeoff_bounds,
    tradeoff_case_b_alternative,
    typical_error_geometry,
)
from eebounds.numerics import LN2, binary_entropy as h, entropy_inverse

CH = BscChannel(0.07)


def entropy_vec(x):
    x = np.asarray(x, dtype=float)
    return -(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)) / LN2


def tradeoff_grid_oracle(R, p, tau, sign, n_omega=400, n_ij=300):
    """Exponent of the asymptotic union bound by brute grid minimization over
    (codeword weight, on-support errors, off-support errors), plus the tail
    beyond the decoding radius. Independent of the closed-form regimes."""
    dgv = delta_gv(R)
    r = dgv + sign * 2.0 * tau
    lp, lq = math.log2(p), math.log2(1.0 - p)

    def T(x):
        return -x * lp - (1.0 - x) * lq

    best = math.inf
    for w in np.linspace(dgv, 1.0, n_omega):
        w = float(w)
        i_lo = max(w / 2.0 + sign * tau, 0.0)
        i_hi = min(w, r)
        if i_lo > i_hi or w <= 0.0:
            continue
        i = np.linspace(i_lo, i_hi, n_ij)[:, None]
        j = np.linspace(0.0, 1.0 - w, n_ij)[None, :]
        cnt = w * entropy_vec(i / w)
        if w < 1.0:
            cnt = cnt + (1.0 - w) * entropy_vec(j / (1.0 - w))
        val = T(i + j) - cnt - h(w) + (1.0 - R)
        val = np.where(i + j <= r + 1e-12, val, np.inf)
        best = min(best, float(np.min(val)))
    if r < 1.0:
        if r < p:
            return 0.0
        best = min(best, T(r) - h(min(r, 1.0)))
    return max(best, 0.0)


class TestChannelAndLandmarks:
    def test_channel_validation(self):
        with pytest.raises(ValueError):
            BscChannel(0.0)
        with pytest.raises(ValueError):
            BscChannel(0.5)
        assert BscChannel(0.07).capacity == pytest.approx(1.0 - h(0.07))

    def test_saddle_weights(self):
        lm = landmarks(CH, 0.0)
        # Closed form sqrt(p) / (sqrt(p) + sqrt(1-p)) at p = 0.07.
        sp, sq = math.sqrt(0.07), math.sqrt(0.93)
        assert lm.rho0 == pytest.approx(sp / (sp + sq), abs=1e-14)
        assert lm.rho0 == pytest.approx(0.215287, abs=1e-6)
        assert lm.omega0 == pytest.approx(2.0 * lm.rho0 * (1.0 - lm.rho0), abs=1e-14)
        assert lm.R_c == pytest.approx(1.0 - h(lm.rho0), abs=1e-14)
        assert lm.R_c == pytest.approx(0.248529, abs=1e-5)
        assert lm.R_e == pytest.approx(0.077, abs=1e-3)

    def test_shifted_saddles_collapse_at_zero_margin(self):
        lm = landmarks(CH, 0.0)
        assert lm.rho0_plus == pytest.approx(lm.rho0, abs=1e-14)
        assert lm.rho0_minus == pytest.approx(lm.rho0, abs=1e-14)
        assert lm.omega0_tau == pytest.approx(lm.omega0, abs=1e-12)

    def test_shifted_saddles_at_margin(self):
        lm = landmarks(CH, 0.03)
        # Verify against the defining quadratics rather than decimals.
        p, u = 0.07, 0.07 * 0.93
        root = math.sqrt(u + 0.03**2 * (1.0 - 2.0 * p) ** 2)
        for rho, s in ((lm.rho0_plus, +1), (lm.rho0_minus, -1)):
            assert rho * (1.0 - 2.0 * p) + p * (1.0 + s * 2.0 * 0.03) - s * 0.03 == pytest.approx(
                root, abs=1e-12
            )
        w = lm.omega0_tau
        assert (w * (1.0 - 4.0 * u) / 2.0 + 2.0 * u) ** 2 == pytest.approx(
            u + 0.03**2 * (1.0 - 4.0 * u), abs=1e-14
        )

    def test_gv_distance(self):
        assert delta_gv(0.0) == 0.5
        assert delta_gv(1.0) == 0.0
        assert h(delta_gv(0.4)) == pytest.approx(0.6, abs=1e-12)

    def test_gv_distance_solved_once_per_rate(self, monkeypatch):
        solves = []

        def counted(y):
            solves.append(y)
            return entropy_inverse(y)

        monkeypatch.setattr(binary_module, "entropy_inverse", counted)
        delta_gv.cache_clear()
        rates = (0.05, 0.2, 0.4)
        for R in rates:
            gallager_exponent(R, CH)
            bz_bounds(R, CH, 0.03)
            tradeoff_bounds(R, CH, 0.03)
            assert delta_gv(R) == entropy_inverse(1.0 - R)
        assert len(solves) == len(rates)
        delta_gv.cache_clear()


class TestEntropyFamily:
    def test_divergence_zero_on_diagonal(self):
        for x in (0.1, 0.3, 0.5):
            _, _, d = entropy_family(x, x)
            assert d == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_reference(self):
        _, t, d = entropy_family(0.3, 0.0)
        assert t == math.inf and d == math.inf
        _, t, d = entropy_family(0.0, 0.0)
        assert t == 0.0 and d == 0.0

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_divergence_nonnegative(self, x, y):
        _, _, d = entropy_family(x, y)
        assert d >= -1e-12


class TestGallagerExponent:
    def test_zero_rate_value(self):
        # E0(0, p) = -log2(2 sqrt(u)) / 2 evaluated through the GV weight 1/2.
        val = gallager_exponent(0.0, CH).value
        expected = -0.5 * math.log2(2.0 * math.sqrt(0.07 * 0.93))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.48530, abs=1e-4)

    def test_zero_at_capacity(self):
        assert gallager_exponent(CH.capacity, CH).value == pytest.approx(0.0, abs=1e-10)
        assert not gallager_exponent(CH.capacity + 0.01, CH).valid

    def test_regime_continuity(self):
        lm = landmarks(CH, 0.0)
        for Rb in (lm.R_e, lm.R_c):
            lo = gallager_exponent(Rb - 1e-9, CH).value
            hi = gallager_exponent(Rb + 1e-9, CH).value
            assert abs(lo - hi) < 1e-7

    def test_regime_labels(self):
        lm = landmarks(CH, 0.0)
        assert gallager_exponent(lm.R_e / 2.0, CH).regime == "a"
        assert gallager_exponent((lm.R_e + lm.R_c) / 2.0, CH).regime == "b"
        assert gallager_exponent((lm.R_c + CH.capacity) / 2.0, CH).regime == "c"

    def test_monotone_nonincreasing(self):
        vals = [gallager_exponent(float(r), CH).value for r in np.linspace(0.0, CH.capacity, 50)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBzBounds:
    def test_symmetric_shift(self):
        ee, ex = bz_bounds(0.15, CH, 0.02)
        base = gallager_exponent(0.15, CH).value
        assert ee.value - base == pytest.approx(base - ex.value, abs=1e-12)

    def test_zero_margin_reduces_to_base(self):
        ee, ex = bz_bounds(0.3, CH, 0.0)
        base = gallager_exponent(0.3, CH).value
        assert ee.value == ex.value == pytest.approx(base, abs=1e-14)

    def test_low_rate_slope_is_nu(self):
        ee, _ = bz_bounds(0.1, CH, 0.01)
        base = gallager_exponent(0.1, CH).value
        assert ee.value - base == pytest.approx(CH.nu * 0.01, abs=1e-12)

    def test_erasure_clamped_invalid(self):
        _, ex = bz_bounds(0.05, BscChannel(0.2), 0.09)
        assert not ex.valid and ex.value == 0.0

    def test_reference_point(self):
        ee, _ = bz_bounds(0.4, CH, 0.03)
        assert ee.value == pytest.approx(0.12118, abs=1e-3)


class TestTradeoffBounds:
    def test_zero_margin_reduction(self):
        for p in (0.01, 0.05, 0.07, 0.1, 0.2, 0.3, 0.45):
            ch = BscChannel(p)
            for r in np.linspace(1e-3, ch.capacity - 1e-9, 50):
                e0 = gallager_exponent(float(r), ch).value
                m_plus, m_minus = tradeoff_bounds(float(r), ch, 0.0)
                assert abs(m_plus.value - e0) < 1e-9
                assert abs(m_minus.value - e0) < 1e-9

    def test_dominates_linear_bounds(self):
        for r in np.linspace(0.01, CH.capacity - 1e-9, 80):
            ee, ex = bz_bounds(float(r), CH, 0.03)
            m_plus, m_minus = tradeoff_bounds(float(r), CH, 0.03)
            if ee.valid and m_plus.valid:
                assert m_plus.value >= ee.value - 1e-12
            if ex.valid and m_minus.valid:
                assert m_minus.value >= ex.value - 1e-12

    def test_reference_gap(self):
        m_plus, _ = tradeoff_bounds(0.4, CH, 0.03)
        ee, _ = bz_bounds(0.4, CH, 0.03)
        assert m_plus.value == pytest.approx(0.14009, abs=1e-3)
        assert m_plus.value - ee.value == pytest.approx(0.0189, abs=2e-3)

    def test_grid_oracle_agreement(self):
        # Independent brute-force minimization of the union-bound exponent.
        for tau in (0.0, 0.03):
            for R in (0.15, 0.3, 0.45):
                m_plus, m_minus = tradeoff_bounds(R, CH, tau)
                assert tradeoff_grid_oracle(R, 0.07, tau, +1) == pytest.approx(
                    m_plus.value, abs=2e-3
                )
                assert tradeoff_grid_oracle(R, 0.07, tau, -1) == pytest.approx(
                    m_minus.value, abs=2e-3
                )

    def test_grid_oracle_low_rate(self):
        # Case (a) territory, where the saddle sits on the constraint boundary.
        m_plus, _ = tradeoff_bounds(0.05, CH, 0.03)
        assert tradeoff_grid_oracle(0.05, 0.07, 0.03, +1, n_omega=800, n_ij=500) == pytest.approx(
            m_plus.value, abs=2e-3
        )

    def test_regime_continuity(self):
        lm = landmarks(CH, 0.03)
        boundaries = {
            +1: [1.0 - h(lm.omega0_tau), 1.0 - h(lm.rho0_plus - 0.06)],
            -1: [1.0 - h(lm.omega0_tau), 1.0 - h(lm.rho0_minus + 0.06)],
        }
        for sign, rbs in boundaries.items():
            for rb in rbs:
                lo, hi = tradeoff_bounds(rb - 1e-9, CH, 0.03), tradeoff_bounds(rb + 1e-9, CH, 0.03)
                idx = 0 if sign > 0 else 1
                assert abs(lo[idx].value - hi[idx].value) < 1e-7

    def test_case_b_alternative_identity(self):
        lm = landmarks(CH, 0.03)
        for sign in (+1, -1):
            rho = lm.rho0_plus if sign > 0 else lm.rho0_minus
            r_lo = 1.0 - h(lm.omega0_tau)
            r_hi = 1.0 - h(rho - 2.0 * sign * 0.03)
            for r in np.linspace(r_lo + 1e-6, r_hi - 1e-6, 7):
                direct = tradeoff_bounds(float(r), CH, 0.03)[0 if sign > 0 else 1].value
                alt = tradeoff_case_b_alternative(CH, 0.03, sign, float(r))
                assert direct == pytest.approx(alt, abs=1e-6)

    def test_validity_threshold(self):
        thr = 1.0 - h(0.5 - 0.03)
        assert thr == pytest.approx(0.0025984, abs=1e-6)
        assert tradeoff_bounds(thr + 1e-6, CH, 0.03)[0].valid
        assert not tradeoff_bounds(thr - 1e-6, CH, 0.03)[0].valid

    def test_erasure_nontrivial_threshold(self):
        thr = nontrivial_rate_threshold(CH, 0.03)
        assert thr == pytest.approx(0.4425, abs=1e-3)
        assert tradeoff_bounds(thr, CH, 0.03)[1].value == pytest.approx(0.0, abs=1e-8)
        past = tradeoff_bounds(thr + 0.02, CH, 0.03)[1]
        assert not past.valid
        assert nontrivial_rate_threshold(BscChannel(0.3), 0.12) == 0.0

    def test_erasure_exceeds_linear_where_linear_dies(self):
        # At p=0.2, tau=0.09 the linear bound is invalid at every rate where
        # it applies, while the trade-off bound survives at small rates.
        ch = BscChannel(0.2)
        _, ex = bz_bounds(0.05, ch, 0.09)
        assert not ex.valid
        assert nontrivial_rate_threshold(ch, 0.09) > 0.03
        _, m_minus = tradeoff_bounds(0.03, ch, 0.09)
        assert m_minus.valid and m_minus.value > 0.0

    def test_invalid_states_a_reason(self):
        for p, tau in ((0.07, 0.03), (0.2, 0.09), (0.3, 0.12)):
            ch = BscChannel(p)
            for r in np.linspace(0.0, 1.0, 41):
                R = float(r)
                vals = [gallager_exponent(R, ch), *bz_bounds(R, ch, tau)]
                vals += tradeoff_bounds(R, ch, tau)
                assert all(v.valid == (v.reason is None) for v in vals)
        assert "above capacity" in gallager_exponent(CH.capacity + 0.01, CH).reason

    @given(
        st.floats(min_value=0.02, max_value=0.45),
        st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=40, deadline=None)
    def test_error_bound_at_least_erasure_bound(self, R, tau):
        m_plus, m_minus = tradeoff_bounds(R, CH, tau)
        if m_plus.valid and m_minus.valid:
            assert m_plus.value >= m_minus.value - 1e-12


class TestTypicalGeometry:
    def test_matches_regime(self):
        rho, omega, regime = typical_error_geometry(0.4, CH, 0.03)
        assert regime == "c"
        dgv = delta_gv(0.4)
        assert rho == pytest.approx(dgv, abs=1e-12)
        assert omega == pytest.approx(2 * dgv * (1 - dgv) + 2 * 0.03 * (1 - 2 * dgv), abs=1e-12)

    def test_case_b_weights(self):
        lm = landmarks(CH, 0.03)
        rho, omega, regime = typical_error_geometry(0.15, CH, 0.03)
        assert regime == "b"
        assert rho == pytest.approx(lm.rho0_plus, abs=1e-12)
        assert omega == pytest.approx(lm.omega0_tau, abs=1e-12)


class TestWeightProfile:
    def test_support_and_interpolation(self):
        wp = WeightProfile((0.2, 0.4), (-1.0, 0.0))
        assert wp(0.3) == pytest.approx(-0.5)
        assert wp(0.1) == -math.inf
        assert wp(0.5) == -math.inf

    def test_gv_profile_zero_at_gv_distance(self):
        wp = WeightProfile.gv_ensemble(0.3)
        assert wp(delta_gv(0.3)) == pytest.approx(0.0, abs=1e-9)
        assert wp(0.5) == pytest.approx(0.3, abs=1e-6)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            WeightProfile((0.3, 0.2), (0.0, 0.0))


class TestSpecificCodeBound:
    def test_gv_profile_recovers_classical_bound(self):
        for R in (0.1, 0.3, 0.5):
            wp = WeightProfile.gv_ensemble(R)
            val = specific_code_bound(wp, R, CH)
            assert val == pytest.approx(gallager_exponent(R, CH).value, abs=1e-4)

    def test_single_weight_code(self):
        # One codeword weight omega with zero rate of growth: the distance
        # term is -omega/2 log2(4u) and kappa = 0.
        wp = WeightProfile.single_weight(0.4)
        val = specific_code_bound(wp, 0.2, CH)
        d_term = -(0.4 / 2.0) * math.log2(4.0 * 0.07 * 0.93)
        assert val >= d_term - 1e-9
        assert val == pytest.approx(
            max(d_term, gallager_exponent(0.2, CH).value), abs=1e-6
        )

    def test_worse_profile_never_raises_bound(self):
        base = WeightProfile.gv_ensemble(0.3)
        worse = WeightProfile(base.omegas, tuple(a + 0.1 for a in base.alphas))
        assert specific_code_bound(worse, 0.3, CH) <= specific_code_bound(base, 0.3, CH) + 1e-9

    def test_matches_dense_scan(self):
        # Random piecewise-linear profiles against both terms of the bound
        # scanned on 10^5 points of the support with np.interp. The scan can
        # only miss a peak, so it never gives a smaller bound, and it misses
        # by at most the largest step between neighboring grid values.
        rng = np.random.default_rng(7)
        for _ in range(12):
            knots = int(rng.integers(2, 9))
            omegas = np.sort(rng.uniform(0.0, 1.0, knots))
            wp = WeightProfile(tuple(omegas.tolist()), tuple(rng.uniform(-0.6, 0.4, knots).tolist()))
            R, ch = float(rng.uniform(0.05, 0.7)), BscChannel(float(rng.uniform(0.01, 0.3)))
            w = np.linspace(max(omegas[0], 1e-9), omegas[-1], 100_001)
            alpha = np.interp(w, omegas, wp.alphas)
            bhatta = alpha + (w / 2.0) * math.log2(4.0 * ch.u)
            excess = alpha - np.maximum(0.0, h(w) - (1.0 - R))
            scan = max(-bhatta.max(), gallager_exponent(R, ch).value - max(0.0, excess.max()))
            resolution = max(np.abs(np.diff(bhatta)).max(), np.abs(np.diff(excess)).max())
            exact = specific_code_bound(wp, R, ch)
            assert exact <= scan + 1e-12
            assert scan - exact <= resolution


class TestBoundedDistance:
    def test_zero_margin_is_complete_decoding_distance_term(self):
        val = bounded_distance_exponent(0.3, CH, 0.0).value
        dgv = delta_gv(0.3)
        _, t, _ = entropy_family(dgv, 0.07)
        assert val == pytest.approx(t, abs=1e-12)

    def test_high_rate_closed_form(self):
        p, tau = 0.07, 0.05
        R = 0.9
        val = bounded_distance_exponent(R, CH, tau).value
        assert val == pytest.approx(1.0 - R - h(tau) - tau * math.log2(1.0 - p), abs=1e-12)

    def test_split_continuity(self):
        p, tau = 0.07, 0.05
        split = 1.0 - h(p + tau * (1.0 - p))
        lo = bounded_distance_exponent(split - 1e-9, CH, tau).value
        hi = bounded_distance_exponent(split + 1e-9, CH, tau).value
        assert abs(lo - hi) < 1e-6

    def test_dominance_hypothesis_flag(self):
        # Zero margin: the double sum has a single term, trivially maximal.
        ok = bounded_distance_exponent(0.3, CH, 0.0, check_n=64).diagnostics["hypothesis_ok"]
        assert ok
        # At tau=0.05 the off-support term with ell=t exceeds ell=0 (the
        # per-term ratio (n-w)p/(1-p) > 1), so the flag must report failure.
        ok = bounded_distance_exponent(0.3, CH, 0.05, check_n=96).diagnostics["hypothesis_ok"]
        assert not ok

    def test_outline_sum_oracle(self):
        # Finite-n log-domain evaluation of the single-term sum behind the
        # bound: (t+1)^2 2^{-n(1-R)} sum_w C(n,w) C(w,w-t) p^(w-t) q^(n-w+t).
        R, p, tau = 0.3, 0.07, 0.05
        val = bounded_distance_exponent(R, CH, tau).value

        def sum_exponent(n):
            t = int(round(tau * n))
            d = max(1, int(math.floor(delta_gv(R) * n)))
            w = np.arange(d, n + 1, dtype=float)
            lb = lambda a, b: (gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1)) / LN2
            lt = (
                2.0 * math.log2(t + 1.0)
                - n * (1.0 - R)
                + lb(n, w)
                + lb(w, w - t)
                + (w - t) * math.log2(p)
                + (n - w + t) * math.log2(1.0 - p)
            )
            m = lt.max()
            return -(m + math.log2(float(np.exp2(lt - m).sum()))) / n

        ns = np.array([512, 1024, 2048], dtype=float)
        es = np.array([sum_exponent(int(n)) for n in ns])
        slope = np.polyfit(ns, ns * es, 1)[0]
        assert val <= slope + 0.02
        assert val == pytest.approx(slope, abs=0.02)

    def test_decreasing_in_margin(self):
        vals = [bounded_distance_exponent(0.3, CH, t).value for t in (0.0, 0.02, 0.05, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_exponent_is_invalid(self):
        # Above the split the closed form 1 - R - h(tau) - tau log2(1 - p)
        # goes negative at high rate: no bound, so valid=False with a reason.
        b = bounded_distance_exponent(0.9, CH, 0.05)
        assert b.value < 0.0 and b.regime == "b"
        assert not b.valid and "negative exponent" in b.reason
        assert isinstance(b.diagnostics["hypothesis_ok"], bool)
        ok = bounded_distance_exponent(0.3, CH, 0.05)
        assert ok.valid and ok.regime == "a" and ok.reason is None
        assert ok.value > 0.0
