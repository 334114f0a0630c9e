import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import xlogy

from eebounds import binary as binary_module
from eebounds.binary import (
    BscChannel,
    WeightProfile,
    bz_bounds,
    delta_gv,
    gallager_exponent,
    landmarks,
    nontrivial_rate_threshold,
    specific_code_bound,
    tradeoff_bounds,
)
from eebounds.cli import _CLAIMS
from eebounds.numerics import LN2, binary_entropy as h, entropy_inverse
from test_acceptance import GV_PROFILE_TOL, gv_profile_defect

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


class TestChannelAndLandmarks:
    def test_channel_validation(self):
        with pytest.raises(ValueError):
            BscChannel(0.0)
        with pytest.raises(ValueError):
            BscChannel(0.5)
        assert BscChannel(0.07).capacity == pytest.approx(1.0 - h(0.07))

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: delta_gv(1.5), r"rate must lie in \[0, 1\], got 1.5"),
            (lambda: landmarks(CH, 0.5), r"tau must lie in \[0, 1/2\), got 0.5"),
            (lambda: bz_bounds(0.3, CH, -0.01), r"tau must lie in \[0, 1/2\), got -0.01"),
            (lambda: tradeoff_bounds(0.3, CH, -0.01), r"tau must lie in \[0, 1/2\), got -0.01"),
            (lambda: WeightProfile((0.3,), (0.0, 0.0)), "nonempty and of equal length"),
            (lambda: WeightProfile((), ()), "nonempty and of equal length"),
            (
                lambda: specific_code_bound(WeightProfile((0.0,), (0.0,)), 0.3, CH),
                "support must contain positive weights",
            ),
            (lambda: bz_bounds(0.3, CH, math.nan), r"tau must lie in \[0, 1/2\), got nan"),
            (lambda: tradeoff_bounds(0.3, CH, math.nan), r"tau must lie in \[0, 1/2\), got nan"),
            # Past 1/2 bz_bounds would return a valid Ee growing without bound in tau.
            (lambda: bz_bounds(0.1, CH, 0.5), r"tau must lie in \[0, 1/2\), got 0.5"),
            (lambda: bz_bounds(0.1, CH, math.inf), r"tau must lie in \[0, 1/2\), got inf"),
            (lambda: tradeoff_bounds(0.1, CH, 0.5), r"tau must lie in \[0, 1/2\), got 0.5"),
            (lambda: tradeoff_bounds(0.1, CH, math.inf), r"tau must lie in \[0, 1/2\), got inf"),
        ],
        ids=["delta_gv", "landmarks", "bz", "tradeoff", "grids", "empty", "support", "bz-nan",
             "tradeoff-nan", "bz-half", "bz-inf", "tradeoff-half", "tradeoff-inf"],
    )
    def test_input_checks(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

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
        # per-(channel, tau) constants, landmarks included, recomputed on
        # each call.
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

        binary_module._breakpoints.cache_clear()
        memoized = bounds()
        for ch, tau, _ in grid[::41]:
            assert binary_module._breakpoints(ch, tau).lm == landmarks(ch, tau)
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
        binary_module._breakpoints.cache_clear()


class TestEntropyFamily:
    def test_divergence_zero_on_diagonal(self):
        for x in (0.1, 0.3, 0.5):
            assert binary_module._D(x, x) == pytest.approx(0.0, abs=1e-14)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_divergence_nonnegative(self, x, y):
        assert binary_module._D(x, y) >= -1e-12


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
        claim = _CLAIMS["binary tau=0 reduction"]
        ps = (0.01, 0.05, 0.07, 0.1, 0.2, 0.3, 0.45)
        assert claim.check(ps=ps, rates=lambda cap: np.linspace(1e-3, cap - 1e-9, 50)) < claim.tol

    def test_dominates_linear_bounds(self):
        claim = _CLAIMS["binary trade-off dominance"]
        assert claim.check(rates=lambda cap: np.linspace(0.01, cap - 1e-9, 80)) <= claim.tol

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
            # M+'s radius delta_gv(R) + 2 tau is about 0.06 here, below p = 0.07.
            (1.0 - 1e-9, 0.0, False, 0.0, False),
            (1.0, 0.0, False, 0.0, False),
        ]:
            m_plus, m_minus = tradeoff_bounds(R, CH, 0.03)
            assert (m_plus.value, m_plus.valid, m_minus.value, m_minus.valid) == (vp, okp, vm, okm)
        assert tradeoff_bounds(1.0, CH, 0.03)[0].reason.startswith("decoding radius 0.06 below")

    @pytest.mark.parametrize("p", [0.02, 0.07, 0.15, 0.3, 0.455])
    def test_zero_margin_plus_is_e0(self, p):
        # At tau = 0 M+ is E0 on all of [0, 1]: the same value where both are
        # valid, and invalid together above capacity, where the radius
        # delta_gv(R) falls below p. M+ once stayed valid there (0.0532 at
        # p = 0.07, R = 0.9).
        ch = BscChannel(p)
        for R in np.linspace(0.0, 1.0, 401):
            m_plus, e0 = tradeoff_bounds(float(R), ch, 0.0)[0], gallager_exponent(float(R), ch)
            assert m_plus.valid == e0.valid, (R, m_plus, e0)
            if e0.valid:
                assert m_plus.value == pytest.approx(e0.value, rel=1e-12, abs=1e-15)

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
        # validate's claim at p = 0.07, tau = 0.03, on 7 rates inside each member's regime (b).
        claim = _CLAIMS["binary case-b identity"]
        assert claim.check(rates=lambda lo, hi: np.linspace(lo + 1e-6, hi - 1e-6, 7)) <= claim.tol

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
    """The typical error and codeword weights of the undetected-error event:
    the ``rho_typ`` and ``omega_typ`` diagnostics of the error member."""

    def test_matches_regime(self):
        # Regime (c) has its typical error weight at the decoding radius
        # dgv + 2 tau, where the bound D(dgv + 2 tau || p) is evaluated.
        m_plus = tradeoff_bounds(0.4, CH, 0.03)[0]
        rho, omega = m_plus.diagnostics["rho_typ"], m_plus.diagnostics["omega_typ"]
        assert m_plus.regime == "c"
        dgv = delta_gv(0.4)
        assert rho == pytest.approx(dgv + 2 * 0.03, abs=1e-12)
        assert omega == pytest.approx(2 * dgv * (1 - dgv) + 2 * 0.03 * (1 - 2 * dgv), abs=1e-12)
        assert m_plus.value == pytest.approx(binary_module._D(rho, CH.p), abs=1e-12)

    def test_invalid_regime_a_keeps_its_diagnostics(self):
        # tau > dgv / 2 puts the entropy argument 1/2 + tau/dgv above 1.
        m_plus, m_minus = tradeoff_bounds(0.02, CH, 0.3)
        dgv = delta_gv(0.02)
        for m, sign in ((m_plus, 1), (m_minus, -1)):
            assert (m.regime, m.valid) == ("a", False)
            assert m.diagnostics == {
                "rho_typ": (1.0 - dgv) * CH.p + dgv / 2.0 + sign * 0.3, "omega_typ": dgv
            }

    def test_case_b_weights(self):
        lm = landmarks(CH, 0.03)
        m_plus = tradeoff_bounds(0.15, CH, 0.03)[0]
        assert m_plus.regime == "b"
        assert m_plus.diagnostics["rho_typ"] == pytest.approx(lm.rho0_plus, abs=1e-12)
        assert m_plus.diagnostics["omega_typ"] == pytest.approx(lm.omega0_tau, abs=1e-12)


class TestWeightProfile:
    def test_gv_profile_zero_at_gv_distance(self):
        wp = WeightProfile.gv_ensemble(0.3)
        assert wp.support == (delta_gv(0.3), 1.0)
        assert wp.alphas[0] == pytest.approx(0.0, abs=1e-9)
        assert np.interp(0.5, wp.omegas, wp.alphas) == pytest.approx(0.3, abs=1e-6)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            WeightProfile((0.3, 0.2), (0.0, 0.0))


class TestSpecificCodeBound:
    def test_gv_profile_recovers_classical_bound(self):
        assert gv_profile_defect(ps=(0.07,), rates=lambda cap: (0.1, 0.3, 0.5)) <= GV_PROFILE_TOL

    def test_single_weight_code(self):
        # One codeword weight omega with zero rate of growth: the distance
        # term is -omega/2 log2(4u) and kappa = 0.
        wp = WeightProfile((0.4 - 1e-12, 0.4, 0.4 + 1e-12), (0.0, 0.0, 0.0))
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
