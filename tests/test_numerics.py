import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eebounds.numerics as numerics
import eebounds.spherical as spherical
from eebounds.numerics import (
    LN2,
    BracketError,
    ConvergenceError,
    _log2_factorials,
    _log2_pmf_rows,
    binary_entropy,
    entropy_inverse,
    log_sum,
    maximize_unimodal,
    solve_bracketed,
)
from eebounds.spherical import AwgnChannel, DistanceProfile, elias_theta, f_exponent


def _recording(fn):
    """The elementwise fn, with the lists of the arguments it is called on
    and of the values it returns."""
    args, vals = [], []

    def f(x):
        args.append(x)
        vals.append(fn(x))
        return vals[-1]

    return f, args, vals


class TestSolveBracketed:
    def test_cosine_fixed_point(self):
        # Dottie number, an independent reference value.
        root = solve_bracketed(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert abs(root - 0.7390851332151607) < 1e-10

    def test_linear(self):
        root = solve_bracketed(lambda x: 3.0 * x - 1.2, -5.0, 5.0)
        assert abs(root - 0.4) < 1e-12

    def test_endpoint_roots(self):
        assert solve_bracketed(lambda x: x, 0.0, 1.0) == 0.0
        assert solve_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_steep_function(self):
        # Nearly flat then nearly vertical: regula falsi keeps one end here,
        # and only the Illinois halving moves it.
        f = lambda x: math.tanh(50.0 * (x - 0.123456789))
        root = solve_bracketed(f, 0.0, 1.0)
        assert abs(root - 0.123456789) < 1e-10

    def test_tight_tolerance_terminates(self):
        root = solve_bracketed(lambda x: binary_entropy(x) - 0.6, 0.0, 0.5)
        assert abs(binary_entropy(root) - 0.6) < 1e-12

    @staticmethod
    def _residual_calls(monkeypatch, fn, module=numerics):
        """Residual calls and (lo, hi) bracket of each ``solve_bracketed``
        solve that fn() makes through ``module``."""
        counts, brackets = [], []
        solve = numerics.solve_bracketed

        def counting(f, lo, hi):
            counts.append(0)
            brackets.append((lo, hi))

            def g(x):
                counts[-1] += 1
                return f(x)

            return solve(g, lo, hi)

        monkeypatch.setattr(module, "solve_bracketed", counting)
        fn()
        return counts, brackets

    def test_no_stall_in_neighbor_angle(self, monkeypatch):
        # Secant plus forced bisection took 49 calls here: the secant kept
        # landing on one side of the root, so the bisections did the work.
        # One bracketed solve, its two end values included, on [2a, pi/2 +
        # 1e-9] with a = max(-tau, 0) = 0, so on [1e-9, pi/2 + 1e-9].
        counts, brackets = self._residual_calls(
            monkeypatch, lambda: elias_theta(0.8, 0.04), spherical
        )
        assert len(counts) == 1 and 0 < counts[0] <= 12
        assert brackets == [(1e-9, math.pi / 2.0 + 1e-9)]

    def test_no_stall_in_entropy_inverse(self, monkeypatch):
        ys = np.linspace(0.001, 0.999, 999)
        counts, brackets = self._residual_calls(
            monkeypatch, lambda: [entropy_inverse(float(y)) for y in ys]
        )
        assert len(counts) == len(ys) and np.mean(counts) <= 14.0  # 20.9 before
        assert set(brackets) == {(0.0, 0.5)}

    def test_max_iter_caps_the_steps(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="max_iter=2 exceeded"):
            solve_bracketed(lambda x: math.cos(x) - x, 0.0, 1.0)

    def test_interval_validation(self):
        # Checked before f is called: f here would raise TypeError.
        f = lambda x: None
        for solver in (solve_bracketed, maximize_unimodal):
            with pytest.raises(ValueError, match=r"requires lo < hi, got \[1.0, 1.0\]"):
                solver(f, 1.0, 1.0)
            with pytest.raises(ValueError, match=r"must be finite, got \[0.0, inf\]"):
                solver(f, 0.0, math.inf)


class TestMaximizeUnimodal:
    def test_parabola(self):
        x, v = maximize_unimodal(lambda x: -((x - 0.3) ** 2) + 2.0, -1.0, 1.0)
        assert abs(x - 0.3) < 1e-8
        assert abs(v - 2.0) < 1e-12

    def test_entropy_peak(self):
        x, v = maximize_unimodal(binary_entropy, 0.0, 1.0)
        assert abs(x - 0.5) < 1e-8
        assert abs(v - 1.0) < 1e-12

    def test_boundary_maximum(self):
        x, v = maximize_unimodal(lambda x: x, 0.0, 2.0)
        assert abs(x - 2.0) < 1e-8
        assert abs(v - 2.0) < 1e-8

    def test_raising_region_is_skipped(self):
        # Elementwise functions: NaN outside the domain, x < 0.5.
        f = lambda x: np.where(x < 0.5, np.nan, -((x - 0.7) ** 2))
        g = lambda x: -np.sqrt(x - 0.5)
        x, v = maximize_unimodal(f, 0.0, 1.0)
        assert abs(x - 0.7) < 1e-8
        assert abs(v) < 1e-12
        # The peak sits on the edge of the domain: each zoom round straddles
        # it, and its points past the edge count as -inf.
        x, v = maximize_unimodal(g, 0.0, 1.0)
        assert x == pytest.approx(0.5, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-5)

    def test_flat_plateau(self):
        f = lambda x: np.minimum(1.0, 3.0 - 10.0 * np.abs(x - 0.5))
        x, v = maximize_unimodal(f, 0.0, 1.0)
        assert v == 1.0
        assert abs(x - 0.5) <= 0.2

    def test_grid_is_one_array_call(self):
        f, calls, _ = _recording(lambda x: -((x - 0.3) ** 2))
        maximize_unimodal(f, -1.0, 1.0)
        assert calls[0].shape == (2001,)
        # Each zoom round is one call on the two cells around the last
        # round's best point; 32-fold per round, 2e-3 wide to 1e-12 in 7.
        assert [x.shape for x in calls[1:]] == [(numerics._ZOOM_POINTS,)] * 7
        for prev, x in zip(calls, calls[1:]):
            step = prev[1] - prev[0]
            assert prev[0] <= x[0] < x[-1] <= prev[-1]
            assert x[-1] - x[0] == pytest.approx(2.0 * step, rel=1e-6)

    @pytest.mark.parametrize(
        "fn, lo, hi",
        [
            (lambda x: -((x - 0.3) ** 2), -1.0, 1.0),
            (lambda x: x, 0.0, 2.0),
            (binary_entropy, 0.0, 1.0),
        ],
        ids=["parabola", "boundary", "entropy"],
    )
    def test_no_float_call_on_a_grid_point(self, fn, lo, hi):
        # There is no float call at all: every call is on an array.
        f, calls, _ = _recording(fn)
        maximize_unimodal(f, lo, hi)
        assert len(calls) > 1
        assert all(type(x) is np.ndarray and x.ndim == 1 for x in calls)

    @pytest.mark.parametrize(
        "fn, lo, hi",
        [
            (lambda x: np.cos(50.0 * x) - 0.1 * x, 0.0, 2.0),
            (lambda x: np.exp(-(((x - 0.5) / 1e-4) ** 2)), 0.0, 1.0),
            (lambda x: np.where(x > 0.9, np.inf, np.sin(7.0 * x)), 0.0, 1.0),
            (lambda x: -np.abs(x - 1.0 / 3.0), -1.0, 0.77),
        ],
        ids=["multimodal", "needle", "pole", "kink"],
    )
    def test_never_below_the_guard_grid(self, fn, lo, hi):
        # The result is the best finite value of any round, so a peak that
        # only the guard grid sees (the needle is narrower than its cells)
        # is kept, and no later round can lower it; nor can the midpoint of
        # the last round's cells, which is not where a kinked peak is best.
        f, _, vals = _recording(fn)
        _, v = maximize_unimodal(f, lo, hi)
        finite = [np.where(np.isfinite(r), r, -np.inf).max() for r in vals]
        assert v >= finite[0]
        assert v == max(finite)

    def test_nan_grid_values_count_as_minus_inf(self):
        # np.argmax would pick the first NaN; the peak must win instead.
        f = lambda x: np.where(x < 0.2, np.nan, -((x - 0.7) ** 2))
        x, v = maximize_unimodal(f, 0.0, 1.0)
        assert abs(x - 0.7) < 1e-8 and abs(v) < 1e-12
        # So do infinities: +inf is a pole or an overflow, not a peak.
        g = lambda x: np.where(x > 0.9, np.inf, -((x - 0.7) ** 2))
        x, v = maximize_unimodal(g, 0.0, 1.0)
        assert abs(x - 0.7) < 1e-8 and abs(v) < 1e-12

    def test_negated_profile_minimum(self):
        # Worst angle of the distance-profile union bound: packing profile at
        # R = 0.2, A = 4, tau = 0.02, rho = decoding_radius(R, tau). The value
        # was recorded with the dedicated grid-and-golden minimizer that this
        # call replaces in profile_exponent.
        R, tau, rho, ch = 0.2, 0.02, 0.9788282935939788, AwgnChannel(4.0)
        prof = DistanceProfile.packing(R)
        hi = min(prof.theta_max, 2.0 * (rho - tau) - 1e-9)
        _, v = maximize_unimodal(
            lambda th: prof.b(th) - f_exponent(th, tau, ch, rho)[0], prof.theta_min, hi
        )
        assert -v == pytest.approx(0.45902214579540956, abs=1e-14)


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
        for y in (-0.1, 1.1):
            with pytest.raises(ValueError, match="entropy_inverse argument must lie in"):
                entropy_inverse(y)

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

    def test_log2_factorials_memo(self):
        _log2_factorials.cache_clear()
        lf = _log2_factorials(1500)
        with pytest.raises(ValueError):
            lf[3] = 0.0
        assert _log2_factorials(1500) is lf
        assert _log2_factorials.cache_info().hits == 1
        assert lf.tolist() == [math.lgamma(k + 1) / LN2 for k in range(1501)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [0.07, 0.3, 0.5])
    def test_log2_pmf_exact(self, p):
        n = 300
        rows = _log2_pmf_rows(n, p)
        lf = _log2_factorials(n).tolist()
        lp, lq = math.log2(p), math.log2(1.0 - p)
        ms = np.array([0, 1, 7, 40, 300])
        for j0, width in ((0, n + 1), (1, 9), (5, 300), (0, 41)):
            for m in ms:
                if j0 > m + 1:
                    continue
                got = rows(np.array([m]), j0, width)[0]
                assert got.shape == (width,)
                for k, v in enumerate(got.tolist()):
                    j = j0 + k
                    if j > m:
                        assert v == -math.inf  # padding, not an underflow
                        continue
                    # The three-gather sum, in its order, bit for bit.
                    assert v == lf[m] - lf[j] - lf[m - j] + j * lp + (m - j) * lq
                    exact = math.comb(m, j) * p**j * (1.0 - p) ** (m - j)
                    if exact > 1e-300:  # a normal float
                        assert 2.0**v == pytest.approx(exact, rel=1e-9)
        # One j0 per row reads each row's own run; a scalar j0 shares one.
        starts = np.array([0, 1, 3, 40, 2])
        per_row = rows(ms, starts, 12)
        shared = rows(ms, 1, 12)
        for r, (m, j0) in enumerate(zip(ms, starts)):
            assert per_row[r].tolist() == rows(ms[r : r + 1], int(j0), 12)[0].tolist()
            assert shared[r].tolist() == rows(ms[r : r + 1], 1, 12)[0].tolist()
        for m in ms:
            full = rows(np.array([m]), 0, m + 1)[0]
            assert math.log2(np.sum(np.exp2(full))) == pytest.approx(0.0, abs=1e-12)

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
