"""The contract of every public bound that returns a BoundValue: inside the
function's documented domain it never raises, an invalid value states a
reason, and a valid value is finite and nonnegative. The draws are
derandomized (seeded from each test's source), so every run tests the same
inputs; the examples pin inputs that once broke the contract."""

import math

from hypothesis import example, given, settings, strategies as st

from eebounds.binary import (
    BscChannel,
    bounded_distance_exponent,
    bz_bounds,
    gallager_exponent,
    tradeoff_bounds,
)
from eebounds.spherical import (
    AwgnChannel,
    shannon_exponent,
    tradeoff_exponent,
    undetected_error_exponent,
)

contract = settings(derandomize=True, database=None, deadline=None, max_examples=80)

rate = st.floats(0.0, 1.0)
crossover = st.floats(1e-4, 0.5, exclude_max=True)
margin = st.floats(0.0, 0.5, exclude_max=True)
kinds = st.sampled_from(["error", "erasure"])


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def assert_contract(*values):
    for v in values:
        if v.valid:
            assert math.isfinite(v.value) and v.value >= 0.0, v
        else:
            assert v.reason, v


class TestBinary:
    @contract
    @given(rate, crossover)
    def test_gallager_exponent(self, R, p):
        assert_contract(gallager_exponent(R, BscChannel(p)))

    @contract
    @given(rate, crossover, margin)
    def test_bz_bounds(self, R, p, tau):
        assert_contract(*bz_bounds(R, BscChannel(p), tau))

    @contract
    @given(rate, crossover, margin)
    def test_tradeoff_bounds(self, R, p, tau):
        assert_contract(*tradeoff_bounds(R, BscChannel(p), tau))

    @contract
    @given(rate, crossover, st.floats(0.0, 0.5))
    # Regime "a" with delta_gv(R) < tau once raised "x must lie in [0, 1]".
    @example(0.03, 0.3, 0.45)
    @example(0.01, 0.2, 0.47)
    def test_bounded_distance_exponent(self, R, p, tau):
        assert_contract(bounded_distance_exponent(R, BscChannel(p), tau))


class TestSpherical:
    @contract
    @given(log_uniform(1e-2, 1e4), st.floats(0.0, 1.05))
    def test_shannon_exponent(self, A, f):
        ch = AwgnChannel(A)
        assert_contract(shannon_exponent(f * ch.capacity, ch))

    @contract
    @given(log_uniform(1e-2, 1e4), st.floats(0.0, 1.05), margin, kinds)
    def test_tradeoff_exponent(self, A, f, tau, kind):
        ch = AwgnChannel(A)
        assert_contract(tradeoff_exponent(f * ch.capacity, ch, tau, kind))

    @contract
    @given(log_uniform(0.5, 100.0), st.floats(0.0, 0.3), st.floats(1e-9, 1.0))
    # R* above capacity: the straight regime runs to C (rates past R(theta_1)
    # were invalid while the landmarks rejected such an R*).
    @example(32.0, 0.1, 0.9)
    @example(64.0, 0.1, 1.0)
    @example(16.0, 0.2, 0.95)
    def test_error_kind_valid_up_to_capacity(self, A, tau, f):
        ch = AwgnChannel(A)
        v = tradeoff_exponent(f * ch.capacity, ch, tau, "error")
        assert v.valid, v
        assert_contract(v)

    @contract
    @given(
        st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_undetected_error_exponent(self, theta, tau):
        assert_contract(undetected_error_exponent(theta, tau))
