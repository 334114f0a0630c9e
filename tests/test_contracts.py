"""The contract of every public bound that returns a BoundValue: inside the
function's documented domain it never raises, an invalid value states a
reason, and a valid value is finite and nonnegative. Where valid, the
trade-off pair brackets the classical exponent (error kind >= classical >=
erasure kind: a margin decoder's undetected errors are a subset of ML
errors, which are a subset of its errors or erasures), and its values do
not rise with the rate; the bounded-distance exponent rises with neither
the rate nor the radius. The draws are
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


def assert_ordered(error, classical, erasure):
    """error kind >= classical >= erasure kind wherever both sides are valid,
    up to rounding (at tau = 0 all three agree to about 1e-15)."""
    for hi, lo in ((error, classical), (classical, erasure), (error, erasure)):
        if hi.valid and lo.valid:
            assert hi.value >= lo.value - 1e-12, (hi, lo)


def assert_nonincreasing(first, second):
    """A valid value at a lower rate is at least the valid value at a higher one."""
    if first.valid and second.valid:
        assert first.value >= second.value - 1e-12, (first, second)


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
    @given(rate, crossover, margin)
    # Regimes (a) and (b) of M- once gave exponents above E0 (and positive at
    # capacity) where the decoding radius delta_gv(R) - 2 tau lies below p.
    @example(0.0, 0.45, 0.1)
    @example(0.0045, 0.45, 0.1)
    @example(0.0072, 0.45, 0.1)
    def test_tradeoff_pair_brackets_classical(self, R, p, tau):
        ch = BscChannel(p)
        m_plus, m_minus = tradeoff_bounds(R, ch, tau)
        assert_ordered(m_plus, gallager_exponent(R, ch), m_minus)

    @contract
    @given(crossover, margin, rate, rate)
    @example(0.45, 0.1, 0.0, 0.0072)
    def test_tradeoff_pair_nonincreasing_in_rate(self, p, tau, R1, R2):
        # M+ stays valid above capacity, where it rises with R: checked below C.
        ch = BscChannel(p)
        R1, R2 = sorted((R1, R2))
        (p1, m1), (p2, m2) = tradeoff_bounds(R1, ch, tau), tradeoff_bounds(R2, ch, tau)
        assert_nonincreasing(m1, m2)
        if R2 <= ch.capacity:
            assert_nonincreasing(p1, p2)

    @contract
    @given(rate, crossover, st.floats(0.0, 0.5))
    # Regime "a" with delta_gv(R) < tau once raised "x must lie in [0, 1]".
    @example(0.03, 0.3, 0.45)
    @example(0.01, 0.2, 0.47)
    def test_bounded_distance_exponent(self, R, p, tau):
        assert_contract(bounded_distance_exponent(R, BscChannel(p), tau))

    @contract
    @given(crossover, rate, rate, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    # The single-term value (before the ball's largest term) rose with tau
    # and with R at these points: 0.351 -> 0.791 and 0.599 -> 0.666.
    @example(0.4805, 0.05745, 0.05745, 0.2817, 0.3273)
    @example(0.48752, 0.01556, 0.03475, 0.30016, 0.30016)
    def test_bounded_distance_nonincreasing(self, p, R1, R2, tau1, tau2):
        ch = BscChannel(p)
        (R1, R2), (tau1, tau2) = sorted((R1, R2)), sorted((tau1, tau2))
        first = bounded_distance_exponent(R1, ch, tau1)
        assert_nonincreasing(first, bounded_distance_exponent(R2, ch, tau1))
        assert_nonincreasing(first, bounded_distance_exponent(R1, ch, tau2))


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
    @given(log_uniform(0.5, 32.0), st.floats(0.0, 0.1), st.floats(0.0, 1.0, exclude_min=True))
    def test_tradeoff_pair_brackets_classical(self, A, tau, f):
        ch = AwgnChannel(A)
        R = f * ch.capacity
        assert_ordered(
            tradeoff_exponent(R, ch, tau, "error"),
            shannon_exponent(R, ch),
            tradeoff_exponent(R, ch, tau, "erasure"),
        )

    @contract
    @given(
        log_uniform(0.5, 32.0), st.floats(0.0, 0.1), kinds,
        st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_tradeoff_nonincreasing_in_rate(self, A, tau, kind, f1, f2):
        ch = AwgnChannel(A)
        f1, f2 = sorted((f1, f2))
        assert_nonincreasing(
            tradeoff_exponent(f1 * ch.capacity, ch, tau, kind),
            tradeoff_exponent(f2 * ch.capacity, ch, tau, kind),
        )

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
