import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eebounds.numerics import (
    BracketError,
    RealInterval,
    SolverConfig,
    _log2_factorials,
    _log2_pmf,
    _scan_root,
    binary_entropy,
    entropy_inverse,
    log_sum,
    maximize_unimodal,
    solve_bracketed,
)
from eebounds.spherical import AwgnChannel, DistanceProfile, f_exponent


class TestSolveBracketed:
    def test_cosine_fixed_point(self):
        # Dottie number, an independent reference value.
        root = solve_bracketed(lambda x: math.cos(x) - x, RealInterval(0.0, 1.0))
        assert abs(root - 0.7390851332151607) < 1e-10

    def test_linear(self):
        root = solve_bracketed(lambda x: 3.0 * x - 1.2, RealInterval(-5.0, 5.0))
        assert abs(root - 0.4) < 1e-12

    def test_endpoint_roots(self):
        assert solve_bracketed(lambda x: x, RealInterval(0.0, 1.0)) == 0.0
        assert solve_bracketed(lambda x: x - 1.0, RealInterval(0.0, 1.0)) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            solve_bracketed(lambda x: x * x + 1.0, RealInterval(-1.0, 1.0))

    def test_steep_function(self):
        # Nearly flat then nearly vertical; stresses the secant guard.
        f = lambda x: math.tanh(50.0 * (x - 0.123456789))
        root = solve_bracketed(f, RealInterval(0.0, 1.0))
        assert abs(root - 0.123456789) < 1e-10

    def test_tight_tolerance_terminates(self):
        cfg = SolverConfig(abs_tol=1e-15, max_iter=200)
        root = solve_bracketed(lambda x: binary_entropy(x) - 0.6, RealInterval(0.0, 0.5), cfg)
        assert abs(binary_entropy(root) - 0.6) < 1e-12

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            RealInterval(1.0, 1.0)
        with pytest.raises(ValueError):
            RealInterval(0.0, math.inf)


class TestMaximizeUnimodal:
    def test_parabola(self):
        x, v = maximize_unimodal(lambda x: -((x - 0.3) ** 2) + 2.0, RealInterval(-1.0, 1.0))
        assert abs(x - 0.3) < 1e-8
        assert abs(v - 2.0) < 1e-12

    def test_entropy_peak(self):
        x, v = maximize_unimodal(binary_entropy, RealInterval(0.0, 1.0))
        assert abs(x - 0.5) < 1e-8
        assert abs(v - 1.0) < 1e-12

    def test_boundary_maximum(self):
        x, v = maximize_unimodal(lambda x: x, RealInterval(0.0, 2.0))
        assert abs(x - 2.0) < 1e-8
        assert abs(v - 2.0) < 1e-8

    def test_raising_region_is_skipped(self):
        def f(x):
            if x < 0.5:
                raise ValueError("outside the domain")
            return -((x - 0.7) ** 2)

        x, v = maximize_unimodal(f, RealInterval(0.0, 1.0))
        assert abs(x - 0.7) < 1e-8
        assert abs(v) < 1e-12
        # The peak sits on the edge of the raising region: the golden probes
        # that land past it count as -inf.
        x, v = maximize_unimodal(lambda x: -math.sqrt(x - 0.5), RealInterval(0.0, 1.0))
        assert x == pytest.approx(0.5, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-5)

    def test_flat_plateau(self):
        f = lambda x: min(1.0, 3.0 - 10.0 * abs(x - 0.5))
        x, v = maximize_unimodal(f, RealInterval(0.0, 1.0))
        assert v == 1.0
        assert abs(x - 0.5) <= 0.2

    def test_negated_profile_minimum(self):
        # Worst angle of the distance-profile union bound: packing profile at
        # R = 0.2, A = 4, tau = 0.02, rho = decoding_radius(R, tau). The value
        # was recorded with the dedicated grid-and-golden minimizer that this
        # call replaces in profile_exponent.
        R, tau, rho, ch = 0.2, 0.02, 0.9788282935939788, AwgnChannel(4.0)
        prof = DistanceProfile.packing(R)
        interval = RealInterval(prof.theta_min, min(prof.theta_max, 2.0 * (rho - tau) - 1e-9))
        _, v = maximize_unimodal(
            lambda th: prof.b(th) - f_exponent(th, tau, ch, rho)[0], interval, points=2001
        )
        assert -v == pytest.approx(0.45902214579540956, abs=1e-14)


class TestScanRoot:
    CFG = SolverConfig(abs_tol=1e-14, max_iter=400)

    def test_all_roots_of_sine(self):
        roots = _scan_root(np.sin, 0.5, 10.0, 512, self.CFG, all_roots=True)
        assert roots == pytest.approx([math.pi, 2.0 * math.pi, 3.0 * math.pi], abs=1e-12)
        assert _scan_root(np.sin, 0.5, 10.0, 512, self.CFG) == pytest.approx([math.pi])

    def test_raising_gap_is_skipped(self):
        # The array form of a function that raises on (6, 6.5) and (9, 9.5).
        def f(x):
            v = np.sin(x)
            v = np.where((6.0 < x) & (x < 6.5), np.inf, v)
            return np.where((9.0 < x) & (x < 9.5), np.nan, v)

        roots = _scan_root(f, 0.5, 10.0, 512, self.CFG, all_roots=True)
        assert roots == pytest.approx([math.pi], abs=1e-12)

    @pytest.mark.parametrize("all_roots", [False, True])
    def test_grid_is_one_array_call(self, all_roots):
        calls = []

        def f(x):
            calls.append(x)
            return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)

        _scan_root(f, 0.5, 10.0, 512, self.CFG, all_roots=all_roots)
        arrays = [x for x in calls if isinstance(x, np.ndarray)]
        assert len(arrays) == 1 and arrays[0].shape == (512,)
        assert isinstance(calls[0], np.ndarray)
        assert all(type(x) is float for x in calls[1:]) and len(calls) > 1

    def test_float_path_rounding_the_other_way(self):
        # The array gives +1e-16 at the grid point 1, the float -1e-16: the
        # floats do not bracket [0, 1], and the end nearer zero is the root.
        def f(x):
            return x - 1.0 + (1e-16 if isinstance(x, np.ndarray) else -1e-16)

        assert _scan_root(f, 0.0, 2.0, 3, self.CFG) == [1.0]

    def test_float_path_raising_at_an_end(self):
        # The floats raise on [3, 3.2], which holds both ends of the grid cell
        # around pi, where the array is finite: that cell is skipped.
        def f(x):
            if isinstance(x, np.ndarray):
                return np.sin(x)
            if 3.0 <= x <= 3.2:
                raise ValueError("outside the domain")
            return math.sin(x)

        roots = _scan_root(f, 0.5, 10.0, 512, self.CFG, all_roots=True)
        assert roots == pytest.approx([2.0 * math.pi, 3.0 * math.pi], abs=1e-12)
        assert _scan_root(f, 0.5, 10.0, 512, self.CFG) == pytest.approx([2.0 * math.pi])

    def test_raise_inside_a_cell_propagates(self):
        def f(x):
            if isinstance(x, np.ndarray):
                return np.sin(x)
            if abs(x - math.pi) < 1e-4:
                raise ZeroDivisionError
            return math.sin(x)

        with pytest.raises(ZeroDivisionError):
            _scan_root(f, 0.5, 10.0, 512, self.CFG)

    def test_grid_point_root(self):
        assert _scan_root(lambda x: x - 1.0, 0.0, 2.0, 3, self.CFG) == [1.0]
        assert _scan_root(lambda x: x - 2.0, 0.0, 2.0, 3, self.CFG) == [2.0]
        assert _scan_root(lambda x: x * x + 1.0, 0.0, 2.0, 9, self.CFG, all_roots=True) == []


class TestEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.11) - 0.49992) < 1e-4
        assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-12
        # Elementwise on an array, 0 (not nan) at both ends.
        xs = np.array([0.0, 0.11, 0.25, 0.5, 1.0])
        hs = binary_entropy(xs)
        assert isinstance(hs, np.ndarray) and hs[0] == 0.0 and hs[-1] == 0.0
        assert hs == pytest.approx([binary_entropy(float(x)) for x in xs], abs=1e-15)

    def test_symmetry(self):
        for x in np.linspace(0.0, 0.5, 20):
            assert binary_entropy(float(x)) == pytest.approx(binary_entropy(1.0 - float(x)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.2, 1.1]))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_inverse_roundtrip(self, y):
        x = entropy_inverse(y)
        assert 0.0 <= x <= 0.5
        assert abs(binary_entropy(x) - y) < 1e-9

    def test_inverse_endpoints(self):
        assert entropy_inverse(0.0) == 0.0
        assert entropy_inverse(1.0) == 0.5


class TestLogCombinatorics:
    def test_log2_binomial_exact(self):
        lf = _log2_factorials(4096)
        assert lf[0] == 0.0 and lf[1] == 0.0
        assert lf[100] == pytest.approx(math.log2(math.factorial(100)), abs=1e-9)
        for n in (40, 257, 1024, 2049, 4096):
            for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} | set(range(0, n + 1, 97))):
                exact = math.log2(math.comb(n, k))
                assert lf[n] - lf[k] - lf[n - k] == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("p", [0.07, 0.3, 0.5])
    def test_log2_pmf_exact(self, p):
        lf = _log2_factorials(300)
        lp, lq = math.log2(p), math.log2(1.0 - p)
        for m in (0, 1, 7, 40, 300):
            j = np.arange(m + 1)
            got = _log2_pmf(lf, m, j, lp, lq)
            for k in range(m + 1):
                exact = math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
                if exact > 1e-300:  # a normal float
                    assert 2.0 ** got[k] == pytest.approx(exact, rel=1e-9)
            assert float(_log2_pmf(lf, m, m // 2, lp, lq)) == got[m // 2]
            assert math.log2(np.sum(np.exp2(got))) == pytest.approx(0.0, abs=1e-12)

    def test_log_sum_matches_direct(self):
        vals = [-3.0, -1.5, -10.0, 0.25]
        direct = math.log2(sum(2.0**v for v in vals))
        assert log_sum(vals) == pytest.approx(direct, abs=1e-12)
        direct_e = math.log(sum(math.exp(v) for v in vals))
        assert log_sum(vals, base=math.e) == pytest.approx(direct_e, abs=1e-12)

    def test_log_sum_edge_cases(self):
        assert log_sum([]) == -math.inf
        assert log_sum([-math.inf, -math.inf]) == -math.inf
        assert log_sum([-math.inf, 2.0]) == pytest.approx(2.0)
        # No overflow far outside float range of the linear domain.
        assert log_sum([-5000.0, -5000.0]) == pytest.approx(-4999.0)
