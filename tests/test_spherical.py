import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eebounds.cli import _CLAIMS
from eebounds.numerics import BracketError
from eebounds.spherical import (
    AwgnChannel,
    DistanceProfile,
    big_g,
    decoding_radius,
    elias_theta,
    esp,
    f_exponent,
    profile_exponent,
    rankin_rate,
    shannon_exponent,
    spherical_landmarks,
    theta_s,
    tradeoff_exponent,
    undetected_error_exponent,
)
import eebounds.spherical as spherical
from eebounds.spherical import (
    _elias_c2,
    _elias_x,
    _g_cos,
    _phi0,
    _radius_residual,
)

CH4 = AwgnChannel(4.0)


def rate_of_angle(theta):
    return -math.log(math.sin(theta))  # the inverse of theta_s


# (A, tau, R, rho) from the nested-scan solver (a 48-point scan in rho, each
# point running a 160-point sign scan for elias_theta) that decoding_radius
# used before the closed-form inverse made it one bracketed solve in theta;
# rho is None where that solver raised BracketError.
NESTED_SCAN_RADII = [
    (1.0, 0.0, 0.0347, 1.3088784076696507),
    (1.0, 0.0, 0.1386, 1.0563721465487612),
    (1.0, 0.0, 0.2426, 0.9020269712836515),
    (1.0, 0.0, 0.3292, 0.8030808076744365),
    (1.0, 0.02, 0.0347, 1.3187219523860265),
    (1.0, 0.02, 0.1386, 1.0737577635998505),
    (1.0, 0.02, 0.2426, 0.922815677294724),
    (1.0, 0.02, 0.3292, 0.8256067451393982),
    (1.0, -0.02, 0.0347, 1.2986595303129427),
    (1.0, -0.02, 0.1386, 1.0384278429407563),
    (1.0, -0.02, 0.2426, 0.8806487680177155),
    (1.0, -0.02, 0.3292, 0.7799620496186275),
    (1.0, 0.05, 0.0347, 1.3328399578281975),
    (1.0, 0.05, 0.1386, 1.0988577657540155),
    (1.0, 0.05, 0.2426, 0.9529603397616061),
    (1.0, 0.05, 0.3292, 0.8583514347316202),
    (1.0, -0.05, 0.0347, 1.2825642535909256),
    (1.0, -0.05, 0.1386, 1.0103878076930712),
    (1.0, -0.05, 0.2426, 0.847402056073419),
    (1.0, -0.05, 0.3292, 0.7440964376357484),
    (1.0, 0.1, 0.0347, 1.354832470850536),
    (1.0, 0.1, 0.1386, 1.1383177248716887),
    (1.0, 0.1, 0.2426, 1.0006598202014012),
    (1.0, 0.1, 0.3292, 0.910366424245605),
    (1.0, -0.1, 0.0347, 1.2534159891464594),
    (1.0, -0.1, 0.1386, 0.9603316169072016),
    (1.0, -0.1, 0.2426, 0.7885230825523626),
    (1.0, -0.1, 0.3292, 0.6808132856170191),
    (1.0, 0.15, 0.0347, 1.3751648502768385),
    (1.0, 0.15, 0.1386, 1.1751458139862283),
    (1.0, 0.15, 0.2426, 1.045505292753567),
    (1.0, 0.15, 0.3292, 0.959497026618725),
    (1.0, -0.15, 0.0347, 1.220821634445239),
    (1.0, -0.15, 0.1386, 0.9055006025813648),
    (1.0, -0.15, 0.2426, 0.7246773930099155),
    (1.0, -0.15, 0.3292, 0.612445906203412),
    (4.0, 0.0, 0.0805, 1.1749093971527658),
    (4.0, 0.0, 0.3219, 0.8107014775077006),
    (4.0, 0.0, 0.5633, 0.6056872187253449),
    (4.0, 0.0, 0.7645, 0.4842747835905338),
    (4.0, 0.02, 0.0805, 1.1890582239953884),
    (4.0, 0.02, 0.3219, 0.8331049764977367),
    (4.0, 0.02, 0.5633, 0.6307968838424665),
    (4.0, 0.02, 0.7645, 0.510480071224694),
    (4.0, -0.02, 0.0805, 1.1602633147788675),
    (4.0, -0.02, 0.3219, 0.7877052035855301),
    (4.0, -0.02, 0.5633, 0.57997861004967),
    (4.0, -0.02, 0.7645, 0.4574410667842382),
    (4.0, 0.05, 0.0805, 1.209416764088672),
    (4.0, 0.05, 0.3219, 0.8656659411916705),
    (4.0, 0.05, 0.5633, 0.6674220257487864),
    (4.0, 0.05, 0.7645, 0.5487247024873441),
    (4.0, -0.05, 0.0805, 1.1372869029889228),
    (4.0, -0.05, 0.3219, 0.7520237162159787),
    (4.0, -0.05, 0.5633, 0.5401912550728347),
    (4.0, -0.05, 0.7645, 0.4158630239441333),
    (4.0, 0.1, 0.0805, 1.2412706826027864),
    (4.0, 0.1, 0.3219, 0.9173744226030468),
    (4.0, 0.1, 0.5633, 0.7259528843158176),
    (4.0, 0.1, 0.7645, 0.6099654916952821),
    (4.0, -0.1, 0.0805, 1.0959825957140925),
    (4.0, -0.1, 0.3219, 0.6890508739377789),
    (4.0, -0.1, 0.5633, 0.4701073016084749),
    (4.0, -0.1, 0.7645, 0.34219851345771923),
    (4.0, 0.15, 0.0805, 1.2708501318303433),
    (4.0, 0.15, 0.3219, 0.9661984925153284),
    (4.0, 0.15, 0.5633, 0.7816839438510488),
    (4.0, 0.15, 0.7645, 0.668487324523501),
    (4.0, -0.15, 0.0805, 1.0502944067904547),
    (4.0, -0.15, 0.3219, 0.6210061879006303),
    (4.0, -0.15, 0.5633, 0.39407357608666166),
    (4.0, -0.15, 0.7645, 0.2606451994318485),
    (10.0, 0.0, 0.1199, 1.0908271008900963),
    (10.0, 0.0, 0.4796, 0.6675082258634792),
    (10.0, 0.0, 0.8393, 0.44672343003829734),
    (10.0, 0.0, 1.139, 0.3258762063909494),
    (10.0, 0.02, 0.1199, 1.1073289022575732),
    (10.0, 0.02, 0.4796, 0.691923411604755),
    (10.0, 0.02, 0.8393, 0.47320078838132584),
    (10.0, 0.02, 1.139, 0.35302661333875623),
    (10.0, -0.02, 0.1199, 1.0737804087715852),
    (10.0, -0.02, 0.4796, 0.6424988129925626),
    (10.0, -0.02, 0.8393, 0.4195995929718074),
    (10.0, -0.02, 1.139, 0.2979657534239436),
    (10.0, 0.05, 0.1199, 1.1311291727580035),
    (10.0, 0.05, 0.4796, 0.727507349968121),
    (10.0, 0.05, 0.8393, 0.5118357721488376),
    (10.0, 0.05, 1.139, 0.3925535721579495),
    (10.0, -0.05, 0.1199, 1.047112425159621),
    (10.0, -0.05, 0.4796, 0.6037816501896874),
    (10.0, -0.05, 0.8393, 0.37752713609326405),
    (10.0, -0.05, 1.139, 0.2543351614858287),
    (10.0, 0.1, 0.1199, 1.1684922285056958),
    (10.0, 0.1, 0.4796, 0.7842847927855185),
    (10.0, 0.1, 0.8393, 0.5737173686533186),
    (10.0, 0.1, 1.139, 0.4558156595399915),
    (10.0, -0.1, 0.1199, 0.9994100156290837),
    (10.0, -0.1, 0.4796, 0.535618772731611),
    (10.0, -0.1, 0.8393, 0.30269598549162097),
    (10.0, -0.1, 1.139, 0.17442132437878094),
    (10.0, 0.15, 0.1199, 1.2033092347139824),
    (10.0, 0.15, 0.4796, 0.8382237060147167),
    (10.0, 0.15, 0.8393, 0.6329017894671527),
    (10.0, 0.15, 1.139, 0.5164257775808399),
    (10.0, -0.15, 0.1199, 0.9470139824632223),
    (10.0, -0.15, 0.4796, 0.46193904877390934),
    (10.0, -0.15, 0.8393, 0.21873234038303213),
    (10.0, -0.15, 1.139, None),
    (64.0, 0.0, 0.2087, 0.9469518830599797),
    (64.0, 0.0, 0.8349, 0.4488368344460003),
    (64.0, 0.0, 1.461, 0.23413755052264656),
    (64.0, 0.0, 1.9828, 0.13812193957724336),
    (64.0, 0.02, 0.2087, 0.9668410225516213),
    (64.0, 0.02, 0.8349, 0.47529968354982977),
    (64.0, 0.02, 1.461, 0.26158497058321606),
    (64.0, 0.02, 1.9828, 0.16561069573722698),
    (64.0, -0.02, 0.2087, 0.9264779713614872),
    (64.0, -0.02, 0.8349, 0.42172867813319564),
    (64.0, -0.02, 1.461, 0.2057249246137),
    (64.0, -0.02, 1.9828, 0.10908121106171398),
    (64.0, 0.05, 0.2087, 0.9956457807118815),
    (64.0, 0.05, 0.8349, 0.5139140803192414),
    (64.0, 0.05, 1.461, 0.30135552006534755),
    (64.0, 0.05, 1.9828, 0.2049806513476406),
    (64.0, -0.05, 0.2087, 0.8945962338833613),
    (64.0, -0.05, 0.8349, 0.3796835686719852),
    (64.0, -0.05, 1.461, 0.16056477345935438),
    (64.0, -0.05, 1.9828, 0.05945819965796144),
    (64.0, 0.1, 0.2087, 1.0411400596904241),
    (64.0, 0.1, 0.8349, 0.5757621445044867),
    (64.0, 0.1, 1.461, 0.36482517829286093),
    (64.0, 0.1, 1.9828, 0.2674123899502128),
    (64.0, -0.1, 0.2087, 0.8380160736082068),
    (64.0, -0.1, 0.8349, 0.3049203617509045),
    (64.0, -0.1, 1.461, None),
    (64.0, -0.1, 1.9828, None),
    (64.0, 0.15, 0.2087, 1.0838200514133738),
    (64.0, 0.15, 0.8349, 0.6349118835523841),
    (64.0, 0.15, 1.461, 0.4256489482914555),
    (64.0, 0.15, 1.9828, None),
    (64.0, -0.15, 0.2087, 0.7765099685609385),
    (64.0, -0.15, 0.8349, 0.2211095441181788),
    (64.0, -0.15, 1.461, None),
    (64.0, -0.15, 1.9828, None),
    (10.0, -0.15, 1.0, None),
    (64.0, -0.15, 0.97, None),
    (64.0, 0.1, 2.06, None),
    (64.0, 0.15, 1.8, None),
    (64.0, -0.1, 1.5, None),
]


class TestAngleRate:
    def test_zero_rate(self):
        assert theta_s(0.0) == pytest.approx(math.pi / 2.0)

    def test_capacity_angle(self):
        R = 0.5 * math.log(5.0)
        assert theta_s(R) == pytest.approx(math.atan(0.5), abs=1e-12)
        assert theta_s(R) == pytest.approx(0.463648, abs=1e-6)

    def test_roundtrip(self):
        for R in np.linspace(0.1, 1.0, 10):
            assert rate_of_angle(theta_s(float(R))) == pytest.approx(float(R), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            theta_s(-0.1)


class TestSpherePacking:
    def test_zero_at_capacity_angle(self):
        for A in (1.0, 4.0, 10.0):
            ch = AwgnChannel(A)
            assert esp(ch.capacity_angle, ch) == pytest.approx(0.0, abs=1e-12)

    def test_reference_values(self):
        assert _g_cos(math.cos(0.55), CH4.A) == pytest.approx(2.166602, abs=1e-4)
        assert esp(0.55, CH4) == pytest.approx(0.028481, abs=1e-4)
        assert _g_cos(math.cos(1.2), CH4.A) == pytest.approx(1.425985, abs=1e-4)
        assert esp(1.2, CH4) == pytest.approx(1.198777, abs=1e-4)

    def test_positive_below_capacity_angle(self):
        ch = AwgnChannel(4.0)
        for phi in np.linspace(0.05, ch.capacity_angle - 1e-3, 20):
            assert esp(float(phi), ch) > 0.0

    def test_g_satisfies_quadratic(self):
        # g is the positive root of g^2 - sqrt(A) g cos(phi) - 1 = 0.
        for phi in (0.3, 0.9, 1.4):
            g = _g_cos(math.cos(phi), CH4.A)
            assert g * g - 2.0 * g * math.cos(phi) - 1.0 == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            esp(0.0, CH4)
        with pytest.raises(ValueError):
            esp(math.pi, CH4)
        for bad in ([0.5, 0.0], [math.pi, 0.5], [0.5, math.nan, 1.0], [[0.5], [-0.1]]):
            with pytest.raises(ValueError):
                esp(np.array(bad), CH4)

    def test_array_matches_scalar(self):
        for ch in (AwgnChannel(1.0), CH4, AwgnChannel(64.0)):
            phis = np.linspace(0.01, math.pi - 0.01, 997)
            vals = esp(phis, ch)
            gs = _g_cos(np.cos(phis), ch.A)
            assert vals.shape == phis.shape
            for phi, v, g in zip(phis, vals, gs):
                assert abs(v - esp(float(phi), ch)) <= 1e-15
                assert abs(g - _g_cos(math.cos(phi), ch.A)) <= 1e-15
        assert type(esp(0.55, CH4)) is float
        assert type(_g_cos(math.cos(0.55), CH4.A)) is float

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            AwgnChannel(0.0)
        with pytest.raises(ValueError):
            AwgnChannel(math.inf)


class TestShannonExponent:
    def test_zero_rate(self):
        assert shannon_exponent(0.0, CH4).value == pytest.approx(1.0, abs=1e-12)
        assert shannon_exponent(0.0, CH4).regime == "expurgation"

    def test_reference_point(self):
        out = shannon_exponent(0.3, CH4)
        assert out.regime == "straight"
        assert out.value == pytest.approx(0.322573, abs=1e-4)

    def test_angles_golden_ratio(self):
        # At A=4 the csc^2 closed forms hit golden-ratio values.
        lm = spherical_landmarks(0.0, CH4)
        te, tc = lm.theta_e, lm.theta_c
        assert te == pytest.approx(0.904557, abs=1e-5)
        assert tc == pytest.approx(0.666239, abs=1e-5)
        assert math.cos(te) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-9)
        assert 1.0 / math.sin(te) ** 2 == pytest.approx(
            0.5 * (1.0 + math.sqrt(1.0 + 4.0)), abs=1e-10
        )

    def test_continuity_at_boundaries(self):
        lm = spherical_landmarks(0.0, CH4)
        for theta in (lm.theta_e, lm.theta_c):
            R = rate_of_angle(theta)
            lo = shannon_exponent(R - 1e-9, CH4).value
            hi = shannon_exponent(R + 1e-9, CH4).value
            assert abs(lo - hi) < 1e-6

    def test_above_capacity_invalid(self):
        assert not shannon_exponent(CH4.capacity + 0.01, CH4).valid

    def test_monotone(self):
        vals = [shannon_exponent(float(r), CH4).value for r in np.linspace(0.01, 0.8, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBigG:
    def test_zero_margin(self):
        grid = dict(snrs=(1.0, 4.0, 10.0), phis=(0.3, 0.7, 1.2), taus=())
        assert _CLAIMS["G(phi, 0) = 0"].check(**grid) == 0.0

    def test_reference_point(self):
        assert big_g(1.0, 0.04, CH4) == pytest.approx(-0.037063, abs=1e-5)

    def test_nonpositive_on_grid(self):
        # The defect is |G(phi, 0)|, or inf where G(phi, tau) > 0.
        grid = dict(phis=np.linspace(0.2, 1.4, 13), taus=np.linspace(1e-3, 0.1, 8))
        assert _CLAIMS["G(phi, 0) = 0"].check(snrs=(1.0, 4.0, 10.0), **grid) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            big_g(3.0, 0.2, CH4)
        # Inside the domain, but A = 10 drives the log argument below zero.
        with pytest.raises(ValueError, match="log argument nonpositive"):
            big_g(1.0, 0.3, AwgnChannel(10.0))


class TestEliasTheta:
    def test_zero_margin_closed_form(self):
        claim = _CLAIMS["tau=0 neighbor-angle identity"]
        assert claim.check(xs=np.linspace(0.1, 1.5, 15)) <= claim.tol

    def test_reference_point(self):
        assert elias_theta(math.pi / 3.0, 0.0) == pytest.approx(1.318116, abs=1e-6)

    def test_right_angle(self):
        assert elias_theta(math.pi / 2.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_margin_shrinks_angle(self):
        # The unique root of the neighbor-angle equation decreases with the
        # margin (verified by exhaustive sign scan; single root).
        assert elias_theta(0.8, 0.04) < elias_theta(0.8, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            elias_theta(0.0, 0.0)

    def test_principal_root_below_small_negative_margin(self):
        # x < |tau| has its principal angle on (0, |tau|), the first piece of
        # the branch rule, which a coarse grid over (0, pi/2] can miss: the
        # 160-point sign scan elias_theta once ran returned the non-principal
        # 2.875 here.
        th = elias_theta(1e-3, -0.005)
        assert th == pytest.approx(0.0046277, abs=1e-7)
        assert abs(_elias_x(th, -0.005) - 1e-3) <= 1e-12

    @pytest.mark.parametrize("tau", [0.2, -0.2, 0.05, -0.05])
    @pytest.mark.parametrize("gap", [1e-15, 1e-12, 1e-10, 1e-9])
    def test_root_next_to_margin(self, tau, gap):
        # x within 1e-9 of |tau| (above tau > 0, below |tau| for tau < 0) has
        # its root near 4/3 |x - |tau||, below 1e-9, where both brackets once
        # started: such an x raised BracketError.
        x = abs(tau) + (gap if tau > 0.0 else -gap)
        th = elias_theta(x, tau)
        assert 0.0 < th < 2e-9
        assert abs(_elias_c2(th, tau) - math.cos(x) ** 2) <= 2.3e-16
        if gap >= 1e-12:
            assert abs(th / (4.0 / 3.0 * abs(x - abs(tau))) - 1.0) < 1e-2

    def test_one_bracketed_solve_per_angle(self, monkeypatch):
        # Each angle, the decoding radius's theta too, has a bracket holding
        # exactly one root: one solve, no sign scan.
        solves = []
        real = spherical.solve_bracketed

        def counted(f, lo, hi):
            solves.append((lo, hi))
            return real(f, lo, hi)

        monkeypatch.setattr(spherical, "solve_bracketed", counted)
        for x, tau in ((0.8, 0.04), (1e-3, -0.005), (0.5, -0.2), (math.pi / 2.0, 0.0)):
            solves.clear()
            elias_theta(x, tau)
            assert len(solves) == 1, (x, tau)
        spherical._expurgation_angle.cache_clear()
        for tau in (0.0, 0.03, -0.03):
            solves.clear()
            spherical._expurgation_angle(tau, CH4)
            assert len(solves) == 1, tau
        spherical._expurgation_angle.cache_clear()
        for R, tau, A in ((0.3, 0.04, 4.0), (0.3, -0.04, 4.0), (0.6, 0.0, 4.0), (4.5, 0.0, 1e4)):
            solves.clear()
            decoding_radius(R, tau, AwgnChannel(A))
            a = max(-tau, 0.0)
            assert solves == [(max(2.0 * a + 1e-6, theta_s(R)), math.pi / 2.0)], (R, tau, A)

    def test_expurgation_angle_is_the_only_root(self):
        # tan(x) sin(x + 2 tau) = 4/A has one root on (0, pi/2): a dense grid
        # of the stationarity residual changes sign exactly once, and the
        # residual changes sign within 1e-14 of the solved angle.
        xs = np.linspace(1e-6, math.pi / 2.0 - 1e-6, 1 << 14)
        for A in np.geomspace(1e-2, 1e4, 9):
            for tau in np.linspace(-0.78, 0.78, 13):
                A, tau = float(A), float(tau)

                def resid(x):
                    return np.cos(x) / np.sin(x) - (A / 4.0) * np.sin(x + 2.0 * tau)

                v = resid(xs)
                changes = np.count_nonzero((v[:-1] == 0.0) | (v[:-1] * v[1:] < 0.0))
                assert changes == 1, (A, tau, changes)
                theta_1 = spherical._expurgation_angle.__wrapped__(tau, AwgnChannel(A))[0]
                lo, hi = resid(np.array([theta_1 - 1e-14, theta_1 + 1e-14]))
                assert lo * hi <= 0.0, (A, tau, lo, hi)

    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.1])
    def test_no_root_up_to_margin(self, tau, monkeypatch):
        # For tau > 0 the inverse x(theta) tends to tau as theta -> 0, so
        # x <= tau has no root: a ValueError naming the domain, raised before
        # the solve runs (a BracketError would mean the solve ran and failed).
        assert _elias_x(1e-9, tau) == pytest.approx(tau, abs=1e-8)
        solves = []
        monkeypatch.setattr(spherical, "solve_bracketed", lambda *args: solves.append(args))
        for x in np.linspace(0.0, tau, 26)[1:]:
            with pytest.raises(ValueError, match="x > tau") as err:
                elias_theta(float(x), tau)
            assert not isinstance(err.value, BracketError)
        assert solves == []

    def test_closed_form_inverse_round_trip(self):
        # elias_theta has no root for x <= tau, so the grid starts above tau.
        for tau in (0.0, 0.02, -0.02, 0.05, -0.05, 0.1, -0.1):
            for x in np.linspace(0.05, math.pi / 2.0, 400)[1:]:
                if x > tau:
                    assert abs(_elias_x(elias_theta(float(x), tau), tau) - x) <= 1e-12
        for x in np.linspace(0.1, 1.5, 15):
            assert _elias_x(float(x), 0.0) == pytest.approx(math.acos(math.sqrt(math.cos(x))))

    @given(
        st.floats(min_value=1e-3, max_value=math.pi / 2.0),
        st.floats(min_value=-0.2, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    @example(1e-3, -0.005)
    @example(0.15, -0.2)
    def test_residual_always_small(self, x, tau):
        # The cleared form carries cot(theta), and near x = |tau| theta is
        # about 4/3 |x - |tau||, so its rounding there grows like 1e-16 / theta.
        assume(abs(x - abs(tau)) >= 1e-4 and (tau <= 0.0 or x > tau))
        th = elias_theta(x, tau)
        assert abs(_elias_c2(th, tau) - math.cos(x) ** 2) <= 1e-14
        lhs = (math.cos(th) / math.sin(th)) * (math.cos(th + 2 * tau) - math.cos(2 * x))
        rhs = math.cos(x) ** 2 * math.tan(th / 2.0 + tau)
        assert lhs - rhs == pytest.approx(0.0, abs=1e-10)


class TestDecodingRadius:
    def test_zero_margin_is_theta_s(self):
        for R in (0.1, 0.3, 0.6):
            assert decoding_radius(R, 0.0, CH4) == pytest.approx(theta_s(R), abs=1e-9)

    def test_margin_root_in_bracket(self):
        rho = decoding_radius(0.3, 0.04, CH4)
        ts = theta_s(0.3)
        assert ts <= rho <= 2.0 * ts
        th = elias_theta(rho, 0.04)
        t2 = math.tan(th / 2.0 + 0.04) ** 2 / math.tan(rho) ** 2
        resid = 0.3 + math.log(math.sin(th)) + 0.5 * math.log(1.0 - t2)
        assert abs(resid) < 1e-10

    def test_erasure_root_below_theta_s(self):
        rho = decoding_radius(0.3, -0.04, CH4)
        assert rho < theta_s(0.3)
        th = elias_theta(rho, -0.04)
        t2 = math.tan(th / 2.0 - 0.04) ** 2 / math.tan(rho) ** 2
        assert 0.3 + math.log(math.sin(th)) + 0.5 * math.log(1.0 - t2) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_zero_rate_degenerates(self):
        with pytest.raises(ValueError):
            decoding_radius(0.0, 0.04, CH4)

    @pytest.mark.parametrize("R,tau", [(1e-20, 0.0), (7.0, -0.01)])
    def test_empty_bracket_is_degenerate(self, R, tau):
        # [theta_s, pi/2 - 1e-9] is empty once theta_s(R) rounds to pi/2, and
        # [1e-3, theta_s] once theta_s(R) falls below 1e-3.
        with pytest.raises(BracketError, match="degenerate decoding-radius bracket"):
            decoding_radius(R, tau, CH4)

    @pytest.mark.parametrize("A", [1.0, 4.0, 64.0, 1e4])
    def test_zero_margin_root_is_theta_s_up_to_capacity(self, A):
        # At tau = 0 the root is theta_s itself, at every SNR. A grid starting
        # near theta = 0 lost it at high SNR: x(theta) is 0 there in floats.
        ch = AwgnChannel(A)
        for R in np.linspace(0.0, ch.capacity, 21)[1:]:
            assert abs(decoding_radius(float(R), 0.0, ch) - theta_s(float(R))) <= 1e-12, R

    @pytest.mark.parametrize("tau", [-0.785, -0.8, -1.5])
    def test_empty_piece_has_no_root(self, tau):
        # For tau <= -pi/4 the rising piece (2|tau|, pi/2] is empty.
        with pytest.raises(BracketError, match="no sign change of the decoding-radius"):
            decoding_radius(0.1, tau, CH4)

    def test_residual_increases_on_the_solved_piece(self):
        # The premise of the one solve: with rho = x(theta), the residual
        # increases strictly in theta on (2a, pi/2], a = max(-tau, 0), up to
        # R (here 0) at pi/2.
        for tau in np.linspace(-0.5, 0.5, 101).tolist():
            a = max(-tau, 0.0)
            vals = [
                _radius_residual(th, _elias_x(th, tau), 0.0, tau)
                for th in np.linspace(2.0 * a + 1e-4, math.pi / 2.0, 2001).tolist()
            ]
            assert (np.diff(vals) > 0.0).all(), tau
            assert abs(vals[-1]) <= 1e-15, tau

    def test_matches_nested_scan(self):
        # A raise of the nested scan may become a radius only where the
        # equation in rho holds there.
        for A, tau, R, rho in NESTED_SCAN_RADII:
            ch = AwgnChannel(A)
            if rho is not None:
                assert abs(decoding_radius(R, tau, ch) - rho) <= 1e-12
                continue
            try:
                got = decoding_radius(R, tau, ch)
            except BracketError:
                continue
            assert abs(_radius_residual(elias_theta(got, tau), got, R, tau)) < 1e-10

    @pytest.mark.parametrize(
        "tau", [0.1, 0.05, 0.02, 0.0, -0.001, -0.005, -0.02, -0.05, -0.1, -0.2]
    )
    def test_principal_branch_rule(self, tau):
        # decoding_radius keeps a root theta only if elias_theta maps its
        # radius x(theta) back to it: theta < a or x(theta) >= a, a =
        # max(-tau, 0). For tau < 0, x falls from |tau| to 0 on (0, |tau|),
        # is 0 up to 2|tau|, then rises to pi/2; where it is below |tau| again,
        # elias_theta returns the angle on the first stretch instead.
        a = max(-tau, 0.0)
        thetas = np.linspace(1e-3, math.pi / 2.0, 801)
        if a > 0.0:
            # Three angles on (0, a) too: at tau = -0.001 the grid has none.
            thetas = np.concatenate([a * np.array([0.25, 0.5, 0.75]), thetas])
        rule = []
        for th in thetas:
            th = float(th)
            x = _elias_x(th, tau)
            if x == 0.0:
                continue  # no neighbor angle: elias_theta needs x > 0
            principal = abs(elias_theta(x, tau) - th) <= 1e-9
            assert principal == (th < a or x >= a), (th, x)
            rule.append(principal)
        assert all(rule) == (tau >= 0.0)

    def test_roots_solve_equation_in_rho(self):
        # The runtime checks the closed-form inverse dropped, on a grid: each
        # kept root is the neighbor angle of its radius, and the equation in
        # rho holds.
        kept = 0
        for A in (0.5, 4.0, 64.0):
            ch = AwgnChannel(A)
            for tau in (0.0, 0.01, -0.01, 0.05, -0.05, 0.2, -0.2):
                for R in np.linspace(0.0, ch.capacity, 13)[1:]:
                    try:
                        rho, theta = spherical._radius_and_angle(float(R), tau, ch)
                    except BracketError:
                        continue
                    kept += 1
                    th = elias_theta(rho, tau)
                    assert abs(th - theta) <= 1e-12, (A, tau, R)
                    assert abs(_radius_residual(th, rho, float(R), tau)) <= 1e-10, (A, tau, R)
        assert kept >= 200

    def test_no_nested_scan(self, monkeypatch):
        # decoding_radius solves for the neighbor angle through the closed-
        # form inverse and keeps the root by the branch rule: no elias_theta
        # call.
        calls = []
        inner = spherical.elias_theta

        def counted(x, tau, *args):
            calls.append(x)
            return inner(x, tau, *args)

        monkeypatch.setattr(spherical, "elias_theta", counted)
        for A, tau, R, _ in NESTED_SCAN_RADII:
            try:
                decoding_radius(R, tau, AwgnChannel(A))
            except BracketError:
                pass
        assert calls == []
        # A sphere-packing point of the trade-off bound takes its theta_star
        # diagnostic from the decoding-radius solve. The first call warms the
        # memoized landmarks, whose R* residual takes one elias_theta.
        for kind in ("error", "erasure"):
            tradeoff_exponent(0.7, CH4, 0.02, kind)
            calls.clear()
            v = tradeoff_exponent(0.7, CH4, 0.02, kind)
            assert v.valid and v.regime == "sphere-packing", (kind, v)
            assert calls == [], kind
            t = 0.02 if kind == "error" else -0.02
            assert v.diagnostics["theta_star"] == pytest.approx(
                inner(v.diagnostics["rho"], t), abs=1e-12
            )


# (function, arguments, value) recorded at commit 6ab1abf, when a sign scan
# still called each residual once per grid point. The solvers since have
# moved some of them, each within 4e-15 (the REPINS below).
PINNED_PER_POINT_SCAN = [
    ("elias_theta", (0.5, 0.0), 0.6917182407210487),
    ("elias_theta", (0.8, 0.04), 1.019309947231298),
    ("elias_theta", (1.2, -0.05), 1.4592646803035452),
    ("elias_theta", (1.5, 0.1), 1.5631941471855884),
    ("decoding_radius", (0.208, 0.03, 1.0), 0.9775193182396057),
    ("decoding_radius", (0.208, -0.03, 1.0), 0.917015595571439),
    ("decoding_radius", (0.483, 0.03, 4.0), 0.7012948137164166),
    ("decoding_radius", (0.483, -0.03, 4.0), 0.6270381215629967),
    ("decoding_radius", (0.85, 0.03, 16.0), 0.4811758627093458),
    ("decoding_radius", (0.85, -0.03, 16.0), 0.40062208586951525),
    ("tradeoff_exponent", (0.035, 1.0, "error"), 0.1993227085130656),
    ("tradeoff_exponent", (0.173, 1.0, "error"), 0.06589948539238788),
    ("tradeoff_exponent", (0.295, 1.0, "error"), 0.009497692850184147),
    ("tradeoff_exponent", (0.035, 1.0, "erasure"), 0.17018547215778437),
    ("tradeoff_exponent", (0.173, 1.0, "erasure"), 0.03995156373456457),
    ("tradeoff_exponent", (0.295, 1.0, "erasure"), 0.0005485263533645621),
    ("tradeoff_exponent", (0.08, 4.0, "error"), 0.6715249293083091),
    ("tradeoff_exponent", (0.402, 4.0, "error"), 0.2685368681014326),
    ("tradeoff_exponent", (0.684, 4.0, "error"), 0.04056622140394456),
    ("tradeoff_exponent", (0.08, 4.0, "erasure"), 0.5608174201562901),
    ("tradeoff_exponent", (0.402, 4.0, "erasure"), 0.17421629152737755),
    ("tradeoff_exponent", (0.684, 4.0, "erasure"), 0.0026061129865655383),
    ("tradeoff_exponent", (0.142, 16.0, "error"), 2.2227805041556397),
    ("tradeoff_exponent", (0.708, 16.0, "error"), 0.6434648265367526),
    ("tradeoff_exponent", (1.204, 16.0, "error"), 0.14127200910447396),
    ("tradeoff_exponent", (0.142, 16.0, "erasure"), 1.8065721309906375),
    ("tradeoff_exponent", (0.708, 16.0, "erasure"), 0.40714055683008976),
    ("tradeoff_exponent", (1.204, 16.0, "erasure"), 0.004687093826648656),
    ("R_star", (1.0,), 0.13767326432664911),
    ("theta_1", (1.0,), 1.329670411494781),
    ("R_star", (4.0,), 0.5069336567333714),
    ("theta_1", (4.0,), 0.8884662753133155),
    ("R_star", (16.0,), 1.151357501268994),
    ("theta_1", (16.0,), 0.4636276235316317),
]

# The pins above that the Illinois step rule of solve_bracketed moved, each by
# at most 4.0e-15 (its tolerance was then 1e-14): (function, arguments) -> value.
ILLINOIS_REPINS = {
    ("elias_theta", (0.5, 0.0)): 0.6917182407210459,
    ("elias_theta", (0.8, 0.04)): 1.019309947231302,
    ("elias_theta", (1.2, -0.05)): 1.459264680303545,
    ("elias_theta", (1.5, 0.1)): 1.5631941471855906,
    ("decoding_radius", (0.208, -0.03, 1.0)): 0.9170155955714391,
    ("decoding_radius", (0.483, 0.03, 4.0)): 0.7012948137164191,
    ("decoding_radius", (0.483, -0.03, 4.0)): 0.6270381215629955,
    ("decoding_radius", (0.85, 0.03, 16.0)): 0.48117586270934626,
    ("tradeoff_exponent", (0.035, 1.0, "error")): 0.19932270851306566,
    ("tradeoff_exponent", (0.173, 1.0, "error")): 0.06589948539238781,
    ("tradeoff_exponent", (0.295, 1.0, "error")): 0.009497692850183807,
    ("tradeoff_exponent", (0.173, 1.0, "erasure")): 0.03995156373456639,
    ("tradeoff_exponent", (0.295, 1.0, "erasure")): 0.0005485263533647079,
    ("tradeoff_exponent", (0.684, 4.0, "error")): 0.04056622140394503,
    ("tradeoff_exponent", (0.402, 4.0, "erasure")): 0.17421629152737766,
    ("tradeoff_exponent", (1.204, 16.0, "erasure")): 0.0046870938266478784,
    ("R_star", (1.0,)): 0.13767326432664725,
    ("theta_1", (1.0,)): 1.329670411494784,
}

# The pins that the decoding radius's former 96-point scan in theta (refined
# to 1e-15) moved, each by at most 1.0e-15 from its value above.
RADIUS_REPINS = {
    ("decoding_radius", (0.208, -0.03, 1.0)): 0.9170155955714397,
    ("decoding_radius", (0.483, 0.03, 4.0)): 0.7012948137164156,
    ("tradeoff_exponent", (0.295, 1.0, "error")): 0.009497692850183571,
    ("tradeoff_exponent", (0.295, 1.0, "erasure")): 0.00054852635336455,
}

# The pin that the bracketed neighbor-angle solve (C(theta) = cos^2 x, theta
# to 1e-15) moved, by 1.1e-16 from its Illinois value.
BRACKET_REPINS = {
    ("elias_theta", (0.5, 0.0)): 0.6917182407210458,
}

# The pins that the one bracketed solve of the decoding radius (theta on
# [2a + 1e-6, pi/2], a = max(-tau, 0)) moved, each by at most 7.4e-16 from its
# value above.
SOLVE_REPINS = {
    ("decoding_radius", (0.208, -0.03, 1.0)): 0.9170155955714391,
    ("decoding_radius", (0.85, 0.03, 16.0)): 0.48117586270934654,
    ("tradeoff_exponent", (0.173, 1.0, "error")): 0.06589948539238792,
    ("tradeoff_exponent", (0.684, 4.0, "error")): 0.04056622140394506,
    ("tradeoff_exponent", (1.204, 16.0, "error")): 0.14127200910447402,
}

# The pins that starting that solve at max(2a + 1e-6, theta_s(R)), where the
# residual is at most 0, moved, each by at most 7.3e-16 from its value above.
START_REPINS = {
    ("decoding_radius", (0.85, 0.03, 16.0)): 0.4811758627093458,
    ("tradeoff_exponent", (0.295, 1.0, "erasure")): 0.0005485263533647079,
    ("tradeoff_exponent", (0.684, 4.0, "error")): 0.04056622140394503,
    ("tradeoff_exponent", (1.204, 16.0, "error")): 0.14127200910447396,
}

REPINS = {
    **ILLINOIS_REPINS, **RADIUS_REPINS, **BRACKET_REPINS, **SOLVE_REPINS, **START_REPINS
}


def _pinned(name, args):
    if name == "elias_theta":
        return elias_theta(*args)
    if name == "decoding_radius":
        R, tau, A = args
        return decoding_radius(R, tau, AwgnChannel(A))
    if name == "tradeoff_exponent":
        R, A, kind = args
        v = tradeoff_exponent(R, AwgnChannel(A), 0.03, kind)
        assert v.valid
        return v.value
    return getattr(spherical_landmarks(0.03, AwgnChannel(args[0])), name)


class TestArrayScan:
    """Pinned values of the angle solves and the trade-off bound; they date
    from the sign scans the class was named for."""

    @pytest.mark.parametrize("name, args, value", PINNED_PER_POINT_SCAN)
    def test_pinned_values(self, name, args, value):
        spherical._expurgation_angle.cache_clear()
        spherical.spherical_landmarks.cache_clear()
        expected = REPINS.get((name, args), value)
        assert abs(expected - value) <= 4e-15
        assert _pinned(name, args) == expected


class TestLandmarks:
    def test_zero_margin_collapse(self):
        claim = _CLAIMS["tau=0 landmark collapse"]
        assert claim.check(snrs=(1.0, 4.0, 10.0)) <= claim.tol

    def test_reference_values(self):
        lm = spherical_landmarks(0.0, CH4)
        assert lm.theta_1 == pytest.approx(0.904557, abs=1e-5)
        assert lm.theta_2 == pytest.approx(0.666239, abs=1e-5)
        assert lm.R_star == pytest.approx(0.481212, abs=1e-5)
        assert lm.R_star == pytest.approx(-math.log(math.sin(lm.theta_2)), abs=1e-9)

    def test_theta1_stationarity(self):
        # theta_1 solves cot(x) = (A/4) sin(x + 2 tau); at tau=0 this is the
        # classical cos(x) = (A/4) sin^2 x.
        for tau in (0.0, 0.04, 0.1):
            lm = spherical_landmarks(tau, CH4)
            x = lm.theta_1
            assert math.cos(x) / math.sin(x) == pytest.approx(
                math.sin(x + 2.0 * tau), abs=1e-10
            )

    def test_residuals_reported_small(self):
        claim = _CLAIMS["landmark residuals"]
        assert claim.check(snrs=(CH4.A,), taus=(0.0, 0.04)) < claim.tol

    def test_ordering(self):
        lm = spherical_landmarks(0.04, CH4)
        assert 0.0 < lm.theta_2 < lm.theta_1 < math.pi / 2.0
        assert 0.0 < lm.R_star < CH4.capacity

    def test_no_radius_solve(self, monkeypatch):
        # R* is a closed form, checked by the radius acceptance rule without a
        # radius solve, below capacity and above it alike.
        def solve(*args):
            raise AssertionError("radius solve")

        monkeypatch.setattr(spherical, "decoding_radius", solve)
        monkeypatch.setattr(spherical, "_radius_and_angle", solve)
        spherical.spherical_landmarks.cache_clear()
        for A, tau in ((4.0, 0.04), (4.0, -0.04), (64.0, 0.1)):
            spherical_landmarks(tau, AwgnChannel(A))
        with pytest.raises(BracketError, match="rate boundary"):
            spherical_landmarks(0.4, AwgnChannel(5.0))
        spherical.spherical_landmarks.cache_clear()

    def test_rule_agrees_with_the_radius_solve(self):
        # Below capacity the landmarks keep R* exactly when the radius solve
        # at R* reproduces x_1 = x(theta_1), the check they made before.
        verdicts = set()
        for A in np.logspace(-1.0, 3.0, 9):
            ch = AwgnChannel(float(A))
            for tau in (0.0, 0.01, -0.01, 0.1, -0.1, 0.2, -0.2, 0.4, -0.4):
                theta_1 = spherical._expurgation_angle(tau, ch)[0]
                x_1 = _elias_x(theta_1, tau)
                r_star = -_radius_residual(theta_1, x_1, 0.0, tau)
                if not 1e-4 <= r_star < ch.capacity:
                    continue
                try:
                    solved = abs(decoding_radius(r_star, tau, ch) - x_1) <= 1e-8
                except BracketError:
                    solved = False
                try:
                    kept = spherical_landmarks(tau, ch).R_star == r_star
                except BracketError:
                    kept = False
                assert kept == solved, (A, tau)
                verdicts.add(kept)
        assert verdicts == {True, False}


class TestFExponent:
    def test_zero_margin_full_radius(self):
        # Interior saddle simplification at tau=0: (A/4)(1 - cos theta).
        val, _ = f_exponent(1.0, 0.0, CH4, math.pi / 2.0 - 1e-9)
        assert val == pytest.approx((4.0 / 4.0) * (1.0 - math.cos(1.0)), abs=1e-9)

    def test_interior_saddle_identity(self):
        # Exact closed form of the Laplace saddle value for any margin.
        for theta in (0.6, 0.9, 1.2, 1.3):
            for tau in (0.0, 0.02, 0.04):
                val, saddle = f_exponent(theta, tau, CH4, math.pi / 2.0 - 1e-9)
                assert val == pytest.approx(
                    (CH4.A / 4.0) * (1.0 - math.cos(theta + 2.0 * tau)), abs=1e-12
                )
                assert saddle == pytest.approx(_phi0(theta, tau, CH4), abs=1e-12)

    def test_saddle_above_integration_start(self):
        for theta in np.linspace(0.2, 1.4, 10):
            for tau in (0.0, 0.05):
                assert _phi0(float(theta), tau, CH4) > float(theta) / 2.0 + tau

    def test_saddle_below_right_angle(self):
        # At margin 0, sin^2 phi0 = 1 only at theta = pi, so the saddle lies in
        # (theta/2, pi/2) for pair angles past pi/2 too, here up to 2.56.
        for th in np.linspace(0.3, 1.3, 12):
            for tau in (0.02, 0.1):
                theta = 2.0 * (float(th) - tau)
                assert theta / 2.0 < _phi0(theta, 0.0, CH4) < math.pi / 2.0

    def test_saddle_rounded_to_right_angle_is_capped(self):
        # At A = 0.01 the saddle angle of this pair rounds to pi/2, while its
        # exact value lies past the cap rho < pi/2: the exponent is the
        # capped, finite one.
        ch, th, tau = AwgnChannel(0.01), 1.5705046168920598, 1e-4
        theta, rho = 2.0 * (th - tau), th + tau
        assert _phi0(theta, 0.0, ch) == math.pi / 2.0
        val, phi = f_exponent(theta, 0.0, ch, rho)
        assert phi == rho and math.isfinite(val)

    def test_endpoint_form_larger(self):
        theta, tau = 1.0, 0.04
        phi0 = _phi0(theta, tau, CH4)
        rho = phi0 - 0.1
        clipped, saddle = f_exponent(theta, tau, CH4, rho)
        interior, _ = f_exponent(theta, tau, CH4, math.pi / 2.0 - 1e-9)
        assert saddle == rho
        assert clipped > interior

    def test_quadrature_oracle(self):
        # Direct log-domain integration of the pairwise-error integrand at
        # finite n converges to the Laplace value.
        theta, tau, n = 1.0, 0.04, 4000
        half = theta / 2.0 + tau
        phis = np.linspace(half + 1e-9, math.pi / 2.0 - 1e-9, 20000)
        q = 0.5 * np.log(1.0 - math.tan(half) ** 2 / np.tan(phis) ** 2) - np.array(
            [esp(float(p), CH4) for p in phis]
        )
        m = q.max()
        est = -(n * m + math.log(np.trapezoid(np.exp(n * (q - m)), phis))) / n
        val, _ = f_exponent(theta, tau, CH4, math.pi / 2.0 - 1e-9)
        assert val == pytest.approx(est, abs=2e-3)

    def test_domain_error(self):
        # theta/2 + tau = 0.6 >= rho: NaN, without a warning.
        val, _ = f_exponent(1.0, 0.1, CH4, 0.5)
        assert math.isnan(val)

    @pytest.mark.parametrize("A", [0.5, 4.0, 64.0])
    def test_scalars_match_array_entries(self, A):
        # One NumPy path: a scalar call gives the bits of the matching array
        # entry, NaN outside theta/2 + tau < rho < pi/2. theta runs to 2 pi,
        # so that theta/2 + tau passes rho, pi/2 and pi, and the saddle falls
        # below it; rho runs past pi/2, as an array too.
        ch = AwgnChannel(A)
        theta = np.linspace(-0.5, 2.0 * math.pi, 301)
        for tau in (-0.05, 0.0, 0.03, 0.1):
            phi0 = _phi0(theta, tau, ch)
            scalars = [_phi0(float(t), tau, ch) for t in theta]
            assert all(type(x) is np.float64 for x in scalars)
            assert np.array_equal(scalars, phi0)
            for rho in (0.3, 0.9, 1.3, math.pi / 2.0, 2.0, np.linspace(2.0, 0.05, theta.size)):
                vals, phi = f_exponent(theta, tau, ch, rho)
                rhos = np.broadcast_to(rho, theta.shape)
                pairs = [f_exponent(float(t), tau, ch, float(r)) for t, r in zip(theta, rhos)]
                assert all(type(v) is np.float64 and type(p) is np.float64 for v, p in pairs)
                assert np.array_equal([v for v, _ in pairs], vals, equal_nan=True)
                assert np.array_equal([p for _, p in pairs], phi)
                half = theta / 2.0 + tau
                assert np.isnan(vals[~((half < rhos) & (rhos < math.pi / 2.0))]).all()


class TestTradeoffExponent:
    def test_zero_margin_collapse(self):
        claim = _CLAIMS["spherical tau=0 reduction"]
        assert claim.check(
            snrs=(1.0, 4.0, 10.0), rates=lambda cap: np.linspace(0.05, min(0.75, cap - 1e-6), 25)
        ) < claim.tol

    def test_regime_progression(self):
        lm = spherical_landmarks(0.04, CH4)
        r1, r2 = rate_of_angle(lm.theta_1), lm.R_star
        assert tradeoff_exponent(r1 / 2.0, CH4, 0.04, "error").regime == "expurgation"
        assert tradeoff_exponent((r1 + r2) / 2.0, CH4, 0.04, "error").regime == "straight"
        assert tradeoff_exponent((r2 + CH4.capacity) / 2.0, CH4, 0.04, "error").regime == (
            "sphere-packing"
        )

    def test_continuity_at_boundaries(self):
        lm = spherical_landmarks(0.04, CH4)
        for Rb in (rate_of_angle(lm.theta_1), lm.R_star):
            lo = tradeoff_exponent(Rb - 1e-8, CH4, 0.04, "error").value
            hi = tradeoff_exponent(Rb + 1e-8, CH4, 0.04, "error").value
            assert abs(lo - hi) < 1e-6

    def test_positive_below_capacity(self):
        for R in np.linspace(0.02, CH4.capacity - 1e-4, 40):
            out = tradeoff_exponent(float(R), CH4, 0.04, "error")
            assert out.valid and out.value > 0.0

    def test_monotone_nonincreasing(self):
        vals = [
            tradeoff_exponent(float(r), CH4, 0.04, "error").value
            for r in np.linspace(0.02, CH4.capacity - 1e-4, 40)
        ]
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_error_at_least_erasure(self):
        for tau in (0.02, 0.04):
            for R in np.linspace(0.05, CH4.capacity - 1e-4, 30):
                err = tradeoff_exponent(float(R), CH4, tau, "error")
                era = tradeoff_exponent(float(R), CH4, tau, "erasure")
                if err.valid and era.valid:
                    assert err.value >= era.value - 1e-10

    def test_erasure_reference_points(self):
        out = tradeoff_exponent(0.05, CH4, 0.04, "erasure")
        assert out.regime == "expurgation" and out.value > 0.0
        out = tradeoff_exponent(0.3, CH4, 0.04, "erasure")
        assert out.regime == "straight" and out.value > 0.0

    def test_erasure_degenerates_near_capacity(self):
        # Once the decoding radius falls below the capacity angle the tail
        # term has no decay and the bound must not report a positive value.
        vals = [
            tradeoff_exponent(float(R), CH4, 0.04, "erasure")
            for R in np.linspace(0.7, CH4.capacity - 1e-6, 10)
        ]
        assert any(not v.valid for v in vals)
        for v in vals:
            if not v.valid:
                assert v.value == 0.0

    def test_dropping_correction_term_decreases(self):
        # In the expurgation regime the bound exceeds the tau-shifted
        # expurgation term alone; the correction is nonpositive.
        lm = spherical_landmarks(0.04, CH4)
        for R in np.linspace(0.05, rate_of_angle(lm.theta_1) - 1e-3, 8):
            out = tradeoff_exponent(float(R), CH4, 0.04, "error")
            shifted = (CH4.A / 4.0) * (1.0 - math.cos(theta_s(float(R)) + 0.04))
            assert out.value >= shifted - 1e-12

    def test_failure_stays_in_its_regime(self):
        # Erasure kind at A=32, tau=0.2: R* = 0.712 lies below capacity, but
        # its radius x_1 fails the acceptance rule, so the landmarks fail. The
        # expurgation regime needs only theta_1 and stays valid below
        # R(theta_1); above it every rate says why it is invalid.
        ch = AwgnChannel(32.0)
        with pytest.raises(BracketError, match="rate boundary"):
            spherical_landmarks(-0.2, ch)
        r1 = rate_of_angle(spherical._expurgation_angle(-0.2, ch)[0])
        assert r1 == pytest.approx(0.5887, abs=1e-4)
        for R in np.linspace(0.05, ch.capacity, 25):
            v = tradeoff_exponent(float(R), ch, 0.2, "erasure")
            if R < r1:
                assert v.valid and v.regime == "expurgation" and v.reason is None
                assert v.value == pytest.approx(8.0 * (1.0 - math.cos(theta_s(R) - 0.4)))
            else:
                assert not v.valid
                assert v.reason == "no root for the straight-line/sphere-packing rate boundary"

    @pytest.mark.parametrize(
        "A, tau", [(32.0, 0.1), (64.0, 0.1), (64.0, 0.08), (100.0, 0.1), (16.0, 0.2)]
    )
    def test_straight_regime_runs_to_capacity(self, A, tau):
        # The closed-form R* lies above capacity: theta_2 lies below every
        # theta_s(R), and the error kind is straight from R(theta_1) to C.
        ch = AwgnChannel(A)
        lm = spherical_landmarks(tau, ch)
        assert lm.R_star > ch.capacity and lm.theta_2 < theta_s(ch.capacity)
        r1 = rate_of_angle(lm.theta_1)
        for R in np.linspace(r1, ch.capacity, 9)[1:]:
            v = tradeoff_exponent(float(R), ch, tau, "error")
            assert v.valid and v.regime == "straight", (R, v)

    def test_zero_margin_high_snr_is_shannon(self):
        # At tau = 0 the trade-off bound is the classical one; at A = 1e4 and
        # these rates the decoding radius is below 0.0125.
        ch = AwgnChannel(1e4)
        for R in (4.5, 4.6):
            want = shannon_exponent(R, ch).value
            for kind in ("error", "erasure"):
                v = tradeoff_exponent(R, ch, 0.0, kind)
                assert v.valid and v.regime == "sphere-packing", (R, kind, v)
                assert v.value == pytest.approx(want, abs=1e-6), (R, kind)

    def test_no_radius_root_keeps_its_message(self):
        v = tradeoff_exponent(1.2, AwgnChannel(16.0), 0.2, "erasure")
        assert not v.valid
        assert v.reason.startswith("no sign change of the decoding-radius equation on [0.001,")

    def test_invalid_states_a_reason(self):
        assert "outside (0, capacity" in tradeoff_exponent(1.0, CH4, 0.04).reason
        assert "capacity angle" in tradeoff_exponent(0.79, CH4, 0.04, "erasure").reason
        assert "exceeds 1" in undetected_error_exponent(math.pi / 4.0, 0.2).reason
        assert "above capacity" in shannon_exponent(1.0, CH4).reason

    @given(
        st.floats(min_value=0.25, max_value=100.0),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_properties(self, A, tau, f1, f2):
        # No exception; error >= erasure; the error bound is nonincreasing in
        # R where valid; at tau=0 it is the classical bound.
        ch = AwgnChannel(A)
        r1, r2 = sorted((f1 * ch.capacity, f2 * ch.capacity))
        err = [tradeoff_exponent(r, ch, tau, "error") for r in (r1, r2)]
        era = [tradeoff_exponent(r, ch, tau, "erasure") for r in (r1, r2)]
        for v in err + era:
            assert v.valid == (v.reason is None)
        for e, x in zip(err, era):
            if e.valid and x.valid:
                assert e.value >= x.value - 1e-10
        if err[0].valid and err[1].valid:
            assert err[0].value >= err[1].value - 1e-10
        if tau == 0.0:
            for r, e in zip((r1, r2), err):
                s = shannon_exponent(r, ch)
                assert e.valid == s.valid and abs(e.value - s.value) < 1e-6

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            tradeoff_exponent(0.3, CH4, 0.04, "both")
        with pytest.raises(ValueError):
            tradeoff_exponent(0.3, CH4, -0.01, "error")

    @pytest.mark.parametrize("kind", ["error", "erasure"])
    def test_nan_margin_is_rejected(self, kind):
        # NaN compares false with 0 either way, so only tau >= 0 rejects it.
        with pytest.raises(ValueError, match="tau must be nonnegative, got nan"):
            tradeoff_exponent(0.3, CH4, math.nan, kind)


class TestProfileExponent:
    def test_oracle_equivalence(self):
        # The packing-profile union bound is an independent evaluation of
        # the trade-off bound.
        for tau in (0.0, 0.04):
            for R in (0.1, 0.3, 0.55):
                rho = decoding_radius(R, tau, CH4)
                direct = tradeoff_exponent(R, CH4, tau, "error").value
                via_profile = profile_exponent(
                    DistanceProfile.packing(R), R, CH4, tau, rho
                )
                assert via_profile == pytest.approx(direct, abs=1e-4)

    @staticmethod
    def _max_over_radius(R, ch, t):
        """Largest packing-profile exponent over 400 radii from the larger of
        theta_s/2 + t and the capacity angle up to (not at) pi/2."""
        prof, best = DistanceProfile.packing(R), -math.inf
        lo = max(theta_s(R) / 2.0 + t, ch.capacity_angle)
        for rho in np.linspace(lo, math.pi / 2.0, 400, endpoint=False):
            try:
                best = max(best, profile_exponent(prof, R, ch, t, float(rho)))
            except ValueError:
                pass
        return best

    @pytest.mark.parametrize("A, tau, rates", [
        (4.0, 0.02, (0.2, 0.35, 0.6)),
        (16.0, 0.05, (0.5, 1.06, 1.3)),
        # R* above capacity: straight from R(theta_1) to C.
        (32.0, 0.1, (1.45, 1.7)),
        (64.0, 0.1, (1.9, 2.08)),
        (64.0, 0.08, (1.8, 2.05)),
        (100.0, 0.1, (2.15, 2.3)),
        (16.0, 0.2, (1.2, 1.4)),
    ])
    def test_max_over_radius_oracle(self, A, tau, rates):
        # The trade-off bound is the packing-profile union bound at its best
        # decoding radius. The expurgation and straight regimes reach it
        # exactly; in the sphere-packing regime the 400-point radius grid
        # falls short by up to its resolution; an invalid bound has no radius
        # with a positive exponent. The erasure kind negates the margin.
        # Past capacity the error kind alone is checked: it must be straight.
        ch = AwgnChannel(A)
        past_capacity = spherical_landmarks(tau, ch).R_star >= ch.capacity
        kinds = (("error", tau),) if past_capacity else (("error", tau), ("erasure", -tau))
        for R in rates:
            for kind, t in kinds:
                bound = tradeoff_exponent(R, ch, tau, kind)
                if past_capacity:
                    assert bound.valid and bound.regime == "straight", (R, bound)
                oracle = self._max_over_radius(R, ch, t)
                if not bound.valid:
                    assert oracle < 0.0
                elif bound.regime == "sphere-packing":
                    assert 0.0 <= bound.value - oracle <= 3e-3
                else:
                    assert bound.value == pytest.approx(oracle, abs=1e-9)

    def test_single_angle_profile(self):
        theta0, tau, rho = 0.9, 0.02, 1.1
        prof = DistanceProfile(np.zeros_like, theta0, theta0)
        out = profile_exponent(prof, 0.3, CH4, tau, rho)
        assert out == pytest.approx(
            min(f_exponent(theta0, tau, CH4, rho)[0], esp(rho, CH4)), abs=1e-9
        )

    def test_single_angle_is_one_array_call(self, monkeypatch):
        # No float evaluation path is left: the single angle is valued as a
        # one-point array, through the profile and the pair exponent alike.
        args = []

        def b(th):
            args.append(th)
            return 0.0 * th

        def pair(th, *rest):
            args.append(th)
            return f_exponent(th, *rest)

        monkeypatch.setattr(spherical, "f_exponent", pair)
        out = profile_exponent(DistanceProfile(b, 0.9, 0.9), 0.3, CH4, 0.02, 1.1)
        assert len(args) == 2 and all(type(a) is np.ndarray for a in args)
        assert out == min(f_exponent(0.9, 0.02, CH4, 1.1)[0], esp(1.1, CH4))
        # Out of its domain the angle has no pair exponent.
        with pytest.raises(ValueError, match=r"no angle in \[0.9, 0.9\] has a pairwise exponent"):
            profile_exponent(DistanceProfile(b, 0.9, 0.9), 0.3, CH4, 0.02, math.pi / 2.0)

    def test_worse_profile_never_increases(self):
        R, tau = 0.3, 0.04
        rho = decoding_radius(R, tau, CH4)
        base = DistanceProfile.packing(R)
        worse = DistanceProfile(
            lambda th: base.b(th) + 0.05, base.theta_min, base.theta_max
        )
        assert profile_exponent(worse, R, CH4, tau, rho) <= (
            profile_exponent(base, R, CH4, tau, rho) + 1e-9
        )

    def test_empty_support_error(self):
        with pytest.raises(ValueError):
            profile_exponent(DistanceProfile(np.zeros_like, 1.4, 1.4), 0.3, CH4, 0.0, 0.5)

    def test_no_pairwise_exponent_raises(self):
        # At rho = pi/2 f_exponent rejects every angle; the bare tail esp(pi/2)
        # = A/2 = 2.0 would stand in for a bound of about 0.35.
        with pytest.raises(ValueError, match="no angle in .* has a pairwise exponent"):
            profile_exponent(DistanceProfile.packing(0.3), 0.3, CH4, 0.02, math.pi / 2.0)

    def test_radius_below_capacity_angle_raises(self):
        # Below arccot sqrt(A) ~ 0.4636 the noise typically leaves the cone.
        prof = DistanceProfile(np.zeros_like, 0.3, 0.3)
        with pytest.raises(ValueError, match="capacity angle"):
            profile_exponent(prof, 0.3, CH4, 0.0, 0.4)
        assert profile_exponent(prof, 0.3, CH4, 0.0, CH4.capacity_angle) == min(
            f_exponent(0.3, 0.0, CH4, CH4.capacity_angle)[0], esp(CH4.capacity_angle, CH4)
        )


class TestUndetectedError:
    def test_threshold_case(self):
        out = undetected_error_exponent(math.pi / 4.0, 0.125)
        assert out.valid and out.value == pytest.approx(0.0, abs=1e-12)

    def test_reference_point(self):
        out = undetected_error_exponent(math.pi / 4.0, 0.01)
        assert out.value == pytest.approx(1.262864, abs=1e-5)
        assert out.value == pytest.approx(-0.5 * math.log(0.08), abs=1e-12)

    def test_above_threshold_invalid(self):
        assert not undetected_error_exponent(math.pi / 4.0, 0.2).valid

    @pytest.mark.parametrize(
        "theta, tau, match",
        [
            (0.0, 0.1, r"distance angle must lie in \(0, pi/2\), got 0.0"),
            (math.pi / 2.0, 0.1, r"distance angle must lie in \(0, pi/2\)"),
            (math.pi / 4.0, 0.0, "tau must be positive, got 0.0"),
        ],
        ids=["theta-zero", "theta-right", "tau-zero"],
    )
    def test_validation(self, theta, tau, match):
        with pytest.raises(ValueError, match=match):
            undetected_error_exponent(theta, tau)

    def test_taylor_defect_bounded(self):
        # The pairwise ratio expands as 1 - (8/sin 2theta) tau + O(tau^2);
        # the normalized defect stays bounded as tau -> 0.
        for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
            for tau in (1e-2, 1e-3, 1e-4):
                ratio = math.tan(theta - tau) ** 2 / math.tan(theta + tau) ** 2
                defect = abs(1.0 - ratio - 8.0 * tau / math.sin(2.0 * theta))
                assert defect / tau**2 < 50.0


class TestRankin:
    def test_right_angle(self):
        assert rankin_rate(math.pi / 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        for theta in (0.0, 2.0):
            with pytest.raises(ValueError, match=r"angle must lie in \(0, pi/2\]"):
                rankin_rate(theta)

    def test_reference_point(self):
        assert rankin_rate(math.pi / 3.0) == pytest.approx(0.346574, abs=1e-6)
        assert rankin_rate(math.pi / 3.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-9)

    def test_neighbor_angle_consistency(self):
        # The zero-margin neighbor angle of the rate-R packing saturates the
        # rate bound: rankin_rate(theta_E(theta_s(R))) = R.
        claim = _CLAIMS["Rankin rate identity"]
        assert claim.check(rates=(0.1, 0.3, 0.481212, 0.6)) <= claim.tol

    def test_csc_identity_at_boundary(self):
        claim = _CLAIMS["critical-angle identity"]
        assert claim.check(snrs=(1.0, 4.0, 10.0)) <= claim.tol
