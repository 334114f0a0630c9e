import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eebounds.numerics import BracketError
from eebounds.spherical import (
    AwgnChannel,
    DistanceProfile,
    big_g,
    bounded_distance_exponent_s,
    decoding_radius,
    elias_theta,
    esp,
    f_exponent,
    g_aux,
    profile_exponent,
    rankin_rate,
    rate_of_angle,
    shannon_angles,
    shannon_exponent,
    spherical_landmarks,
    theta_s,
    tradeoff_exponent,
    undetected_error_exponent,
)
import eebounds.spherical as spherical
from eebounds.spherical import (
    _decoding_residual,
    _elias_x,
    _phi0,
    _radius_residual,
)

CH4 = AwgnChannel(4.0)

# (A, tau, R, rho) from the nested-scan solver (a 48-point scan in rho, each
# point running the 160-point elias_theta scan) that decoding_radius used
# before the closed-form inverse; rho is None where that solver raised
# BracketError.
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
        with pytest.raises(ValueError):
            rate_of_angle(0.0)


class TestSpherePacking:
    def test_zero_at_capacity_angle(self):
        for A in (1.0, 4.0, 10.0):
            ch = AwgnChannel(A)
            assert esp(ch.capacity_angle, ch) == pytest.approx(0.0, abs=1e-12)

    def test_reference_values(self):
        assert g_aux(0.55, CH4) == pytest.approx(2.166602, abs=1e-4)
        assert esp(0.55, CH4) == pytest.approx(0.028481, abs=1e-4)
        assert g_aux(1.2, CH4) == pytest.approx(1.425985, abs=1e-4)
        assert esp(1.2, CH4) == pytest.approx(1.198777, abs=1e-4)

    def test_positive_below_capacity_angle(self):
        ch = AwgnChannel(4.0)
        for phi in np.linspace(0.05, ch.capacity_angle - 1e-3, 20):
            assert esp(float(phi), ch) > 0.0

    def test_g_satisfies_quadratic(self):
        # g is the positive root of g^2 - sqrt(A) g cos(phi) - 1 = 0.
        for phi in (0.3, 0.9, 1.4):
            g = g_aux(phi, CH4)
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
            gs = g_aux(phis, ch)
            assert vals.shape == phis.shape
            for phi, v, g in zip(phis, vals, gs):
                assert abs(v - esp(float(phi), ch)) <= 1e-15
                assert abs(g - g_aux(float(phi), ch)) <= 1e-15
        assert type(esp(0.55, CH4)) is float
        assert type(g_aux(0.55, CH4)) is float

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
        te, tc = shannon_angles(CH4)
        assert te == pytest.approx(0.904557, abs=1e-5)
        assert tc == pytest.approx(0.666239, abs=1e-5)
        assert math.cos(te) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-9)
        assert 1.0 / math.sin(te) ** 2 == pytest.approx(
            0.5 * (1.0 + math.sqrt(1.0 + 4.0)), abs=1e-10
        )

    def test_continuity_at_boundaries(self):
        te, tc = shannon_angles(CH4)
        for theta in (te, tc):
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
        for phi in (0.3, 0.7, 1.2):
            for A in (1.0, 4.0, 10.0):
                assert big_g(phi, 0.0, AwgnChannel(A)) == 0.0

    def test_reference_point(self):
        assert big_g(1.0, 0.04, CH4) == pytest.approx(-0.037063, abs=1e-5)

    def test_nonpositive_on_grid(self):
        for A in (1.0, 4.0, 10.0):
            ch = AwgnChannel(A)
            for phi in np.linspace(0.2, 1.4, 13):
                for tau in np.linspace(1e-3, 0.1, 8):
                    assert big_g(float(phi), float(tau), ch) <= 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            big_g(3.0, 0.2, CH4)


class TestEliasTheta:
    def test_zero_margin_closed_form(self):
        for x in np.linspace(0.1, 1.5, 15):
            assert math.cos(elias_theta(float(x), 0.0)) == pytest.approx(
                math.cos(float(x)) ** 2, abs=1e-10
            )

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

    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.1])
    def test_no_root_up_to_margin(self, tau, monkeypatch):
        # For tau > 0 the inverse x(theta) tends to tau as theta -> 0, so
        # x <= tau has no root: a ValueError naming the domain, raised before
        # the scan runs (a BracketError would mean the scan ran and failed).
        assert _elias_x(1e-9, tau) == pytest.approx(tau, abs=1e-8)
        scans = []
        monkeypatch.setattr(spherical, "_scan_root", lambda *args: scans.append(args))
        for x in np.linspace(0.0, tau, 26)[1:]:
            with pytest.raises(ValueError, match="x > tau") as err:
                elias_theta(float(x), tau)
            assert not isinstance(err.value, BracketError)
        assert scans == []

    def test_closed_form_inverse_round_trip(self):
        # elias_theta has no root for x <= tau, so the grid starts above tau.
        for tau in (0.0, 0.02, -0.02, 0.05, -0.05, 0.1, -0.1):
            for x in np.linspace(0.05, math.pi / 2.0, 400)[1:]:
                if x > tau:
                    assert abs(_elias_x(elias_theta(float(x), tau), tau) - x) <= 1e-12
        for x in np.linspace(0.1, 1.5, 15):
            assert _elias_x(float(x), 0.0) == pytest.approx(math.acos(math.sqrt(math.cos(x))))

    @given(st.floats(min_value=0.2, max_value=1.5), st.floats(min_value=0.0, max_value=0.08))
    @settings(max_examples=30, deadline=None)
    def test_residual_always_small(self, x, tau):
        th = elias_theta(x, tau)
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
            assert abs(_decoding_residual(got, R, tau)) < 1e-10

    def test_no_nested_scan(self, monkeypatch):
        # Two elias_theta calls map the bracket ends; each root found in the
        # bracket costs one more to check it. Every case here has at most one.
        calls = []
        inner = spherical.elias_theta

        def counted(x, tau, *args):
            calls.append(x)
            return inner(x, tau, *args)

        monkeypatch.setattr(spherical, "elias_theta", counted)
        for A, tau, R, _ in NESTED_SCAN_RADII:
            calls.clear()
            try:
                decoding_radius(R, tau, AwgnChannel(A))
            except BracketError:
                pass
            assert len(calls) <= 3, (A, tau, R, len(calls))
        # A sphere-packing point of the trade-off bound takes its theta_star
        # diagnostic from the decoding-radius solve: no fourth scan. The
        # first call warms the memoized landmarks.
        for kind in ("error", "erasure"):
            tradeoff_exponent(0.7, CH4, 0.02, kind)
            calls.clear()
            v = tradeoff_exponent(0.7, CH4, 0.02, kind)
            assert v.valid and v.regime == "sphere-packing", (kind, v)
            assert len(calls) <= 3, (kind, len(calls))
            t = 0.02 if kind == "error" else -0.02
            assert v.diagnostics["theta_star"] == pytest.approx(
                inner(v.diagnostics["rho"], t), abs=1e-12
            )


# (function, arguments, value) recorded at commit 6ab1abf, when the sign scan
# still called each residual once per grid point; the array scan sees the
# same brackets, so every value is bit-identical.
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
    """The sign scans evaluate each residual once on the whole grid; the
    array path of a residual must give the float path's signs and NaNs."""

    @pytest.mark.parametrize("name, args, value", PINNED_PER_POINT_SCAN)
    def test_pinned_values(self, name, args, value):
        spherical._expurgation_angle.cache_clear()
        spherical.spherical_landmarks.cache_clear()
        assert _pinned(name, args) == value

    @staticmethod
    def _float_path(f, *args):
        def guarded(*x):
            try:
                return f(*x)
            except (ValueError, ZeroDivisionError):
                return math.nan

        return np.array([guarded(*map(float, x)) for x in zip(*args)])

    @staticmethod
    def _assert_same(array_vals, float_vals, scale):
        """Same NaN positions, and values within 1e-13 relative plus 32 ulp
        of ``scale``, the size of the terms a value is computed from: np and
        math may each be a few ulp off, which near a root, where the terms
        cancel, is far more than 1e-13 of the value. Wherever the float
        value exceeds that tolerance, the signs agree too."""
        assert isinstance(array_vals, np.ndarray)
        array_vals = np.where(np.isfinite(array_vals), array_vals, np.nan)
        nan = np.isnan(float_vals)
        assert (np.isnan(array_vals) == nan).all()
        a, s = array_vals[~nan], float_vals[~nan]
        tol = 1e-13 * np.abs(s) + 32 * np.finfo(float).eps * scale[~nan]
        assert (np.abs(a - s) <= tol).all()

    def _check_scan(self, f, xs):
        """Compare the array and float paths of the residual a scan ran on
        its grid xs, and return the residual's name."""
        env = {k: c.cell_contents for k, c in zip(f.__code__.co_freevars, f.__closure__)}
        tau = env["tau"]
        name = f.__qualname__.split(".")[0]
        with np.errstate(all="ignore"):
            vals = f(xs)
            if name == "elias_theta":
                scale = np.abs(np.cos(xs) / np.sin(xs)) * (
                    np.abs(np.cos(xs + 2.0 * tau)) + abs(env["c2x"])
                ) + env["cx2"] * np.abs(np.tan(xs / 2.0 + tau))
                self._assert_same(vals, self._float_path(f, xs), scale)
            elif name == "_expurgation_angle":
                scale = np.abs(np.cos(xs) / np.sin(xs)) + env["A"] / 4.0 * np.abs(
                    np.sin(xs + 2.0 * tau)
                )
                self._assert_same(vals, self._float_path(f, xs), scale)
            else:
                # The radius residual is _radius_residual at rho = _elias_x(theta);
                # each is checked on its own, on the same rho.
                ct, t = np.cos(xs), np.tan(xs / 2.0 + tau)
                den = np.abs(2.0 * ct + np.sin(xs) * t)
                num = np.abs(ct) * (1.0 + np.abs(np.cos(xs + 2.0 * tau)))
                rho = self._float_path(lambda th: _elias_x(th, tau), xs)
                # d rho / d cos^2 rho = -1 / sin(2 rho).
                scale = (num + num / den * (2.0 * np.abs(ct) + np.abs(np.sin(xs) * t))) / den
                self._assert_same(_elias_x(xs, tau), rho, scale / np.abs(np.sin(2.0 * rho)))
                t2 = t**2 / np.tan(rho) ** 2
                R = env["R"]
                scale = (
                    abs(R)
                    + np.abs(np.log(np.abs(np.sin(xs))))
                    + 0.5 * np.abs(np.log(np.abs(1.0 - t2)))
                    + t2 / np.abs(1.0 - t2)
                )
                radius = self._float_path(lambda th, r: _radius_residual(th, r, R, tau), xs, rho)
                self._assert_same(_radius_residual(xs, rho, R, tau), radius, scale)
        return name

    @pytest.mark.parametrize("A", [1.0, 4.0, 16.0])
    def test_residuals_match_float_path(self, A, monkeypatch):
        scans = []
        real = spherical._scan_root

        def recorded(f, lo, hi, points, cfg, all_roots=False):
            scans.append((f, np.linspace(lo, hi, points)))
            return real(f, lo, hi, points, cfg, all_roots)

        monkeypatch.setattr(spherical, "_scan_root", recorded)
        spherical._expurgation_angle.cache_clear()
        spherical.spherical_landmarks.cache_clear()
        ch = AwgnChannel(A)
        for tau in (0.0, 0.03, 0.1):
            for R in np.linspace(0.0, ch.capacity, 12)[1:-1]:
                for kind in ("error", "erasure"):
                    tradeoff_exponent(float(R), ch, tau, kind)
                try:
                    decoding_radius(float(R), -tau, ch)
                except BracketError:
                    pass
        names = {self._check_scan(f, xs) for f, xs in scans}
        assert names == {"elias_theta", "_radius_and_angle", "_expurgation_angle"}

    def test_nan_where_float_path_raises(self):
        # Raises at t2 >= 1 (first) and at ln sin(theta) of sin(theta) < 0 (third).
        theta = np.array([0.3, 0.3, -0.2, 1.0])
        rho = np.array([0.1, 0.9, 0.9, 0.9])
        with np.errstate(all="ignore"):
            vals = _radius_residual(theta, rho, 0.1, 0.02)
        for th, r, v in zip(theta, rho, vals):
            try:
                want = _radius_residual(float(th), float(r), 0.1, 0.02)
            except ValueError:
                assert math.isnan(v)
            else:
                assert v == pytest.approx(want, rel=1e-13)
        assert np.isnan(vals).tolist() == [True, False, True, False]


class TestLandmarks:
    def test_zero_margin_collapse(self):
        for A in (1.0, 4.0, 10.0):
            ch = AwgnChannel(A)
            te, tc = shannon_angles(ch)
            lm = spherical_landmarks(0.0, ch)
            assert lm.theta_1 == pytest.approx(te, abs=1e-9)
            assert lm.theta_2 == pytest.approx(tc, abs=1e-9)

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
        for tau in (0.0, 0.04):
            lm = spherical_landmarks(tau, CH4)
            assert abs(lm.residuals["theta_1"]) < 1e-10

    def test_ordering(self):
        lm = spherical_landmarks(0.04, CH4)
        assert 0.0 < lm.theta_2 < lm.theta_1 < math.pi / 2.0
        assert 0.0 < lm.R_star < CH4.capacity


class TestFExponent:
    def test_zero_margin_full_radius(self):
        # Interior saddle simplification at tau=0: (A/4)(1 - cos theta).
        val, _ = f_exponent(1.0, 0.0, CH4, math.pi / 2.0 - 1e-9)
        assert val == pytest.approx((4.0 / 4.0) * (1.0 - math.cos(1.0)), abs=1e-9)

    def test_interior_saddle_identity(self):
        # Exact closed form of the Laplace saddle value for any margin.
        for theta in (0.6, 0.9, 1.2):
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
        with pytest.raises(ValueError):
            f_exponent(1.0, 0.1, CH4, 0.5)


class TestTradeoffExponent:
    def test_zero_margin_collapse(self):
        for A in (1.0, 4.0, 10.0):
            ch = AwgnChannel(A)
            for R in np.linspace(0.05, min(0.75, ch.capacity - 1e-6), 25):
                m = tradeoff_exponent(float(R), ch, 0.0, "error")
                s = shannon_exponent(float(R), ch)
                assert abs(m.value - s.value) < 1e-6

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
        # At A=64, tau=0.1 the closed-form R* = 2.34 lies above capacity, so
        # the landmarks fail; the expurgation regime needs only theta_1.
        ch = AwgnChannel(64.0)
        with pytest.raises(BracketError, match="rate boundary"):
            spherical_landmarks(0.1, ch)
        low = tradeoff_exponent(1.5, ch, 0.1, "error")
        assert low.valid and low.regime == "expurgation" and low.reason is None
        assert low.value == pytest.approx(16.0 * (1.0 - math.cos(theta_s(1.5) + 0.2)))
        high = tradeoff_exponent(2.0, ch, 0.1, "error")
        assert not high.valid and "rate boundary" in high.reason

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

    def test_single_angle_profile(self):
        theta0, tau, rho = 0.9, 0.02, 1.1
        prof = DistanceProfile.single_angle(theta0)
        out = profile_exponent(prof, 0.3, CH4, tau, rho)
        assert out == pytest.approx(
            min(f_exponent(theta0, tau, CH4, rho)[0], esp(rho, CH4)), abs=1e-9
        )

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
            profile_exponent(DistanceProfile.single_angle(1.4), 0.3, CH4, 0.0, 0.5)

    def test_radius_below_capacity_angle_raises(self):
        # Below arccot sqrt(A) ~ 0.4636 the noise typically leaves the cone.
        prof = DistanceProfile.single_angle(0.3)
        with pytest.raises(ValueError, match="capacity angle"):
            profile_exponent(prof, 0.3, CH4, 0.0, 0.4)
        assert profile_exponent(prof, 0.3, CH4, 0.0, CH4.capacity_angle) == min(
            f_exponent(0.3, 0.0, CH4, CH4.capacity_angle)[0], esp(CH4.capacity_angle, CH4)
        )


class TestBoundedDistanceSpherical:
    def test_saddle_location_checks(self):
        A = CH4.A
        for th in np.linspace(0.3, 1.3, 12):
            for tau in (0.02, 0.1):
                psi = 2.0 * (th - tau)
                s2 = (4.0 + A * math.sin(psi) ** 2) / (
                    4.0 + 2.0 * A + 2.0 * A * math.cos(psi)
                )
                phi0 = math.asin(math.sqrt(min(max(s2, 0.0), 1.0)))
                assert phi0 < math.pi / 2.0
                assert phi0 > th - tau

    def test_saddle_value_closed_form(self):
        # The interior saddle value of the bounded-distance integrand obeys
        # the same exact identity with psi = 2(theta - tau).
        th, tau = 0.7, 0.05
        A = CH4.A
        psi = 2.0 * (th - tau)
        s2 = (4.0 + A * math.sin(psi) ** 2) / (4.0 + 2.0 * A + 2.0 * A * math.cos(psi))
        phi0 = math.asin(math.sqrt(s2))
        t2 = math.tan(th - tau) ** 2 / math.tan(phi0) ** 2
        minus_q = -0.5 * math.log(1.0 - t2) + esp(phi0, CH4)
        assert minus_q == pytest.approx((A / 4.0) * (1.0 - math.cos(psi)), abs=1e-12)

    def test_quadrature_oracle(self):
        # Log-domain double integral at n=600 versus the Laplace exponent.
        R, tau, n = 0.3, 0.1, 600
        prof = DistanceProfile.packing(R)
        val = bounded_distance_exponent_s(prof, CH4, tau)
        lo, hi = prof.theta_min, math.pi / 2.0 - tau - 1e-4
        thetas = np.linspace(lo, hi, 900)
        outer = np.full(len(thetas), -np.inf)
        for k, th in enumerate(thetas):
            phis = np.linspace(th - tau + 1e-9, th + tau - 1e-9, 300)
            q = 0.5 * np.log(
                1.0 - math.tan(th - tau) ** 2 / np.tan(phis) ** 2
            ) - np.array([esp(float(p), CH4) for p in phis])
            m = q.max()
            inner = n * m + math.log(np.trapezoid(np.exp(n * (q - m)), phis))
            outer[k] = n * prof.b(float(th)) + inner
        m = outer.max()
        est = -(m + math.log(np.trapezoid(np.exp(outer - m), thetas))) / n
        assert val == pytest.approx(est, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            bounded_distance_exponent_s(DistanceProfile.packing(0.3), CH4, 0.0)

    def test_tail_below_capacity_angle_raises(self):
        # At A = 0.01 the capacity angle is ~1.4711, above pi/2 - 0.2 - 1e-4.
        with pytest.raises(ValueError, match="capacity angle"):
            bounded_distance_exponent_s(DistanceProfile.packing(0.3), AwgnChannel(0.01), 0.2)

    @pytest.mark.parametrize("A, tau, profile, expected", [
        (4.0, 0.1, DistanceProfile.packing(0.2), 1.1470623019412667),
        (16.0, 0.01, DistanceProfile.packing(0.5), 3.077638719321798),
        (1.0, 0.05, DistanceProfile.single_angle(theta_s(0.05), -0.1), 0.45054427607275666),
    ])
    def test_pinned_values(self, A, tau, profile, expected):
        # Recorded when the integrand was written out inline, not via f_exponent.
        assert bounded_distance_exponent_s(profile, AwgnChannel(A), tau) == expected

    def test_saddle_rounded_to_right_angle_is_evaluated(self):
        # At A = 0.01, tau = 1e-4 the saddle angle rounds to pi/2 near the top
        # of the range, while its exact value lies past the cap theta + tau.
        # Such angles belong to the minimum like any other.
        A, tau, th = 0.01, 1e-4, 1.5705046168920598
        ch, prof = AwgnChannel(A), DistanceProfile.packing(0.2)
        assert _phi0(2.0 * (th - tau), 0.0, ch) == math.pi / 2.0
        at_th = -prof.b(th) + f_exponent(2.0 * (th - tau), 0.0, ch, th + tau)[0]
        assert bounded_distance_exponent_s(prof, ch, tau) <= at_th


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

    def test_reference_point(self):
        assert rankin_rate(math.pi / 3.0) == pytest.approx(0.346574, abs=1e-6)
        assert rankin_rate(math.pi / 3.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-9)

    def test_neighbor_angle_consistency(self):
        # The zero-margin neighbor angle of the rate-R packing saturates the
        # rate bound: rankin_rate(theta_E(theta_s(R))) = R.
        for R in (0.1, 0.3, 0.481212, 0.6):
            th = elias_theta(theta_s(R), 0.0)
            assert rankin_rate(th) == pytest.approx(R, abs=1e-9)

    def test_csc_identity_at_boundary(self):
        lm = spherical_landmarks(0.0, CH4)
        th = elias_theta(theta_s(lm.R_star), 0.0)
        assert 1.0 / math.sin(th) ** 2 == pytest.approx(
            0.5 * (1.0 + math.sqrt(1.0 + CH4.A**2 / 4.0)), abs=1e-9
        )
