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
    beyond the decoding radius. Independent of the closed-form regimes.

    One array pass over all weights: T is affine, so the objective at (w, i,
    j) is a(w, i) + b(w, j) + c(w), and the constraint i + j <= r keeps a
    prefix of each weight's j grid, whose minimum is a running minimum of b."""
    dgv = delta_gv(R)
    r = dgv + sign * 2.0 * tau
    lp, lq = math.log2(p), math.log2(1.0 - p)

    def T(x):
        return -x * lp - (1.0 - x) * lq

    w = np.linspace(dgv, 1.0, n_omega)
    i_lo = np.maximum(w / 2.0 + sign * tau, 0.0)
    i_hi = np.minimum(w, r)
    keep = (i_lo <= i_hi) & (w > 0.0)
    w = w[keep, None]
    i = np.linspace(i_lo[keep], i_hi[keep], n_ij, axis=1)
    t = np.linspace(0.0, 1.0, n_ij)  # the j grid of weight w is (1 - w) t
    a = T(i) - T(0.0) - w * entropy_vec(i / w)
    b = T((1.0 - w) * t) - (1.0 - w) * entropy_vec(t)
    c = (1.0 - R) - entropy_vec(w)
    # The prefix holds j = 0 at least, since i <= r; at w = 1 every j is 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.searchsorted(t, (r + 1e-12 - i) / (1.0 - w), side="right")
    b_min = np.take_along_axis(np.minimum.accumulate(b, axis=1), k - 1, axis=1)
    best = float(np.min(a + b_min + c, initial=math.inf))
    if r < 1.0:
        if r < p:
            return 0.0
        best = min(best, T(r) - h(min(r, 1.0)))
    return max(best, 0.0)


def bounded_distance_grid_oracle(R, p, tau, n=33, rounds=14):
    """Minimum of the bounded-distance union exponent (1 - R) - h(w) + T(w -
    a + b, p) - w h(a / w) - (1 - w) h(b / (1 - w)) over codeword weights w
    in [delta_gv(R), 1/2] and every type (a, b) of the ball, a + b <= tau.
    The grid runs over (w, s, f) with a = f s, b = (1 - f) s, s in [0, tau],
    so the face a + b = tau lies on it. The objective is convex in (w, a, b)
    (T is affine in its first argument, and h and its perspectives are
    concave), so it has no local minimum but the global one, and each round
    zooms the grid onto two cells either side of its best point."""
    lp, lq = math.log2(p), math.log2(1.0 - p)
    lo0, hi0 = np.array([delta_gv(R), 0.0, 0.0]), np.array([0.5, tau, 1.0])
    lo, hi = lo0, hi0
    best = math.inf
    for _ in range(rounds):
        axes = [np.linspace(l, u, n) for l, u in zip(lo, hi)]
        w, s, f = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        a, b = f * s, (1.0 - f) * s
        x = w - a + b
        e = (
            (1.0 - R) - entropy_vec(w) - x * lp - (1.0 - x) * lq
            - w * entropy_vec(a / w) - (1.0 - w) * entropy_vec(b / (1.0 - w))
        )
        e[(a > w) | (b > 1.0 - w)] = math.inf
        k = int(np.argmin(e))
        best = min(best, float(e[k]))
        step = (hi - lo) / (n - 1)
        centre = np.array([w[k], s[k], f[k]])
        lo, hi = np.maximum(lo0, centre - 2.0 * step), np.minimum(hi0, centre + 2.0 * step)
    return best


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

    def test_memo_is_invisible(self, monkeypatch):
        # Every bound on a (p, tau, R) grid equals its value with the
        # per-(channel, tau) constants recomputed on each call.
        grid = [
            (BscChannel(p), tau, float(R))
            for p in (0.02, 0.07, 0.2, 0.45)
            for tau in (0.0, 0.01, 0.03, 0.1)
            for R in np.linspace(0.0, 1.0, 41)
        ]

        def bounds():
            return [
                (gallager_exponent(R, ch), *bz_bounds(R, ch, tau), *tradeoff_bounds(R, ch, tau))
                for ch, tau, R in grid
            ]

        landmarks.cache_clear()
        binary_module._breakpoints.cache_clear()
        memoized = bounds()
        for ch, tau, _ in grid[::41]:
            assert landmarks.__wrapped__(ch, tau) == landmarks(ch, tau)
        monkeypatch.setattr(binary_module, "landmarks", landmarks.__wrapped__)
        monkeypatch.setattr(
            binary_module, "_breakpoints", binary_module._breakpoints.__wrapped__
        )
        assert bounds() == memoized

    def test_channel_constants_computed_once_per_curve(self, monkeypatch):
        # The capacity h(p), the M+ floor h(1/2 - tau), and the regime splits
        # h(omega0), h(omega0_tau) and h(rho0 -/+ 2 tau) enter the first rate
        # point of a curve only; later points evaluate h at their own rate.
        args = []

        def counted(x):
            args.append(x)
            return h(x)

        monkeypatch.setattr(binary_module, "h", counted)
        landmarks.cache_clear()
        binary_module._breakpoints.cache_clear()
        tau = 0.03
        per_point = []
        for R in np.linspace(0.01, 0.6, 60):
            args.clear()
            gallager_exponent(float(R), CH)
            bz_bounds(float(R), CH, tau)
            tradeoff_bounds(float(R), CH, tau)
            per_point.append(list(args))
        lm = landmarks(CH, tau)
        constants = {
            CH.p, 0.5 - tau, landmarks(CH).omega0, lm.omega0_tau,
            lm.rho0_plus - 2 * tau, lm.rho0_minus + 2 * tau,
        }
        assert constants <= set(per_point[0])
        assert all(constants.isdisjoint(point) for point in per_point[1:])
        assert max(len(point) for point in per_point[1:]) <= 6
        landmarks.cache_clear()
        binary_module._breakpoints.cache_clear()


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

    @pytest.mark.parametrize("R", [-0.2, -1e-9, 1.0 + 1e-9, 1.5])
    def test_rate_outside_unit_interval_invalid(self, R):
        # Clamping would report the value at the nearest end as computed.
        for m in tradeoff_bounds(R, CH, 0.03):
            assert not m.valid
            assert "[0, 1]" in m.reason

    def test_rates_in_unit_interval_unchanged(self):
        # (R, M+ value, M+ valid, M- value, M- valid) before the range check.
        # At R = 1e-9, h is flat near delta_gv = 1/2: every x within about
        # 1e-12 of it is an exact zero of h(x) - (1 - R), so that row pins the
        # solver's path, not only the root.
        for R, vp, okp, vm, okm in [
            (0.0, 0.6024600176564384, False, 0.3785517843134128, True),
            (1e-9, 0.6024421432964512, False, 0.3785339099534256, True),
            (0.5, 0.08143950761276142, True, 0.0, False),
            (1.0 - 1e-9, 0.001160692848732714, True, 0.0, False),
            (1.0, 0.0011606928552427287, True, 0.0, False),
        ]:
            m_plus, m_minus = tradeoff_bounds(R, CH, 0.03)
            assert (m_plus.value, m_plus.valid, m_minus.value, m_minus.valid) == (vp, okp, vm, okm)

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

    @pytest.mark.parametrize("R, regime", [(0.0, "a"), (0.0045, "b"), (0.0072, "b")])
    def test_erasure_radius_below_crossover_is_invalid(self, R, regime):
        # At p = 0.45, tau = 0.1 the decoding radius delta_gv(R) - 2 tau is at
        # most 0.3 < p. M- once reported 0.0284 in regime (b) at R = 0.0045,
        # where E0 is 3.2e-4, and 0.0257 at capacity 0.00722. The radius check
        # applies in every regime and keeps the regime's diagnostics.
        ch = BscChannel(0.45)
        lm = landmarks(ch, 0.1)
        dgv = delta_gv(R)
        m_minus = tradeoff_bounds(R, ch, 0.1)[1]
        assert (m_minus.value, m_minus.regime, m_minus.valid) == (0.0, regime, False)
        assert m_minus.reason == (
            f"decoding radius {dgv - 0.2} below the crossover probability 0.45"
        )
        assert m_minus.diagnostics == (
            {"rho_typ": (1.0 - dgv) * 0.45 + dgv / 2.0 - 0.1, "omega_typ": dgv}
            if regime == "a" else {"rho_typ": lm.rho0_minus, "omega_typ": lm.omega0_tau}
        )
        assert gallager_exponent(R, ch).valid

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
        # Regime (c) has its typical error weight at the decoding radius
        # dgv + 2 tau, where the bound D(dgv + 2 tau || p) is evaluated.
        rho, omega, regime = typical_error_geometry(0.4, CH, 0.03)
        assert regime == "c"
        dgv = delta_gv(0.4)
        assert rho == pytest.approx(dgv + 2 * 0.03, abs=1e-12)
        assert omega == pytest.approx(2 * dgv * (1 - dgv) + 2 * 0.03 * (1 - 2 * dgv), abs=1e-12)
        value = tradeoff_bounds(0.4, CH, 0.03)[0].value
        assert value == pytest.approx(entropy_family(rho, CH.p)[2], abs=1e-12)

    @pytest.mark.parametrize("tau", [0.01, 0.03])
    def test_is_the_error_bound_diagnostics(self, tau):
        # One copy of the geometry: the error member's rho_typ, omega_typ and
        # regime, in every regime.
        regimes = set()
        for R in np.linspace(0.01, 0.6, 60):
            m_plus = tradeoff_bounds(float(R), CH, tau)[0]
            d = m_plus.diagnostics
            geometry = typical_error_geometry(float(R), CH, tau)
            assert geometry == (d["rho_typ"], d["omega_typ"], m_plus.regime), R
            regimes.add(m_plus.regime)
        assert regimes == {"a", "b", "c"}

    def test_invalid_regime_a_keeps_its_diagnostics(self):
        # tau > dgv / 2 puts the entropy argument 1/2 + tau/dgv above 1.
        m_plus, m_minus = tradeoff_bounds(0.02, CH, 0.3)
        dgv = delta_gv(0.02)
        for m, sign in ((m_plus, 1), (m_minus, -1)):
            assert (m.regime, m.valid) == ("a", False)
            assert m.diagnostics == {
                "rho_typ": (1.0 - dgv) * CH.p + dgv / 2.0 + sign * 0.3, "omega_typ": dgv
            }
        assert typical_error_geometry(0.02, CH, 0.3)[:2] == (
            m_plus.diagnostics["rho_typ"], dgv
        )

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
        # Above the split the value is the ball-volume exponent; the type is
        # omega* = p + tau (1 - 2p), a = tau (1 - p), b = tau p.
        p, tau = 0.07, 0.05
        R = 0.9
        b = bounded_distance_exponent(R, CH, tau)
        assert b.regime == "b"
        assert b.value == pytest.approx(1.0 - R - h(tau), abs=1e-12)
        assert b.diagnostics == pytest.approx(
            {"omega": p + tau * (1.0 - 2.0 * p), "a": tau * (1.0 - p), "b": tau * p}, abs=1e-15
        )

    def test_split_continuity(self):
        p, tau = 0.07, 0.05
        split = 1.0 - h(p + tau * (1.0 - 2.0 * p))
        lo = bounded_distance_exponent(split - 1e-9, CH, tau)
        hi = bounded_distance_exponent(split + 1e-9, CH, tau)
        assert (lo.regime, hi.regime) == ("a", "b")
        assert abs(lo.value - hi.value) < 1e-6
        assert lo.diagnostics == pytest.approx(hi.diagnostics, abs=1e-6)

    @pytest.mark.parametrize("R, p, tau", [
        (0.3, 0.07, 0.05), (0.8, 0.07, 0.02), (0.2, 0.1, 0.04), (0.05745, 0.4805, 0.3273),
    ])
    def test_grid_oracle(self, R, p, tau):
        # The closed forms against a brute-force minimum over every weight
        # and every type of the ball, a + b <= tau included. The b = 0 term
        # alone misses it by 2.7e-4 or more at these points.
        val = bounded_distance_exponent(R, BscChannel(p), tau).value
        assert val == pytest.approx(bounded_distance_grid_oracle(R, p, tau), abs=1e-5)

    def test_outline_sum_oracle(self):
        # Finite-n log-domain union sum over the whole decoding ball, GV
        # spectrum: 2^{-n(1-R)} sum_{w >= d} C(n, w) sum_{a + j <= t}
        # C(w, a) C(n - w, j) p^(w - a + j) q^(n - w + a - j), where a of the
        # codeword's ones stay unflipped and j of its zeros flip. tau n is an
        # integer at each length.
        R, p, tau = 0.3, 0.07, 0.05
        val = bounded_distance_exponent(R, CH, tau).value
        lp, lq = math.log2(p), math.log2(1.0 - p)

        def sum_exponent(n):
            t = int(round(tau * n))
            d = max(1, int(math.floor(delta_gv(R) * n)))
            lf = gammaln(np.arange(n + 1) + 1.0) / LN2
            w = np.arange(d, n + 1)[:, None]
            terms = []
            for a in range(t + 1):
                j = np.arange(t - a + 1)
                aw, jw = np.minimum(a, w), np.minimum(j, n - w)
                lt = (
                    lf[n] - lf[w] - lf[n - w]
                    + lf[w] - lf[aw] - lf[w - aw]
                    + lf[n - w] - lf[jw] - lf[n - w - jw]
                    + (w - a + j) * lp
                    + (n - w + a - j) * lq
                )
                terms.append(np.where((a <= w) & (j <= n - w), lt, -np.inf).ravel())
            lt = np.concatenate(terms) - n * (1.0 - R)
            m = lt.max()
            return -(m + math.log2(float(np.exp2(lt - m).sum()))) / n

        ns = np.array([500, 1000, 2000], dtype=float)
        es = np.array([sum_exponent(int(n)) for n in ns])
        slope = np.polyfit(ns, ns * es, 1)[0]
        assert val <= slope + 0.005
        assert val == pytest.approx(slope, abs=0.005)

    def test_decreasing_in_margin(self):
        vals = [bounded_distance_exponent(0.3, CH, t).value for t in (0.0, 0.02, 0.05, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_exponent_is_invalid(self):
        # Above the split the closed form 1 - R - h(tau) goes negative at
        # high rate: no bound, so valid=False with a reason.
        b = bounded_distance_exponent(0.9, CH, 0.05)
        assert b.value < 0.0 and b.regime == "b"
        assert not b.valid and "negative exponent" in b.reason
        ok = bounded_distance_exponent(0.3, CH, 0.05)
        assert ok.valid and ok.regime == "a" and ok.reason is None
        assert ok.value > 0.0

    @pytest.mark.parametrize("R, p, tau", [(0.03, 0.3, 0.45), (0.01, 0.2, 0.47)])
    def test_gv_distance_below_margin_is_invalid(self, R, p, tau):
        # delta_gv(R) < tau lies below omega* = p + tau (1 - 2p), so the rate
        # is above the split: regime "b", whose exponent 1 - R - h(tau) is
        # negative here (-0.0228 and -0.0074).
        b = bounded_distance_exponent(R, BscChannel(p), tau)
        assert delta_gv(R) < tau
        assert not b.valid and b.regime == "b"
        assert b.value == pytest.approx(1.0 - R - h(tau), abs=1e-15) and b.value < -0.007
        assert b.reason.startswith("negative exponent")
