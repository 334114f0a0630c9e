"""Asymptotic exponents for binary linear codes on the BSC under margin decoding.

All quantities in this module are in bits (log base 2) and relative weights.
Covers the classical random-coding exponent, the Blokh-Zyablov style
error/erasure bounds, the improved trade-off pair M+/M-, bounds for a
specific weight profile and for bounded-distance decoding. Every value is a
closed form or an exact maximum over a finite set of weights; nothing here
runs an optimizer, and only ``delta_gv`` solves an equation.

A rate curve holds the channel and margin fixed, so what does not depend on
the rate is memoized: ``delta_gv`` per R, and ``landmarks`` and
``_breakpoints`` (capacity, validity floors, regime splits, regime-(b)
constants) per (p, tau). A rate point computes only its rate's terms; no
bound value is cached.
The erasure member M- is invalid wherever its decoding radius delta_gv(R) -
2 tau lies below p, in every regime. The bounded-distance exponent is the
union bound over the decoding ball's largest term, which has a closed form on
each side of its split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import BoundValue, binary_entropy as h, entropy_inverse

__all__ = [
    "BscChannel",
    "BinaryBoundValue",
    "BinaryLandmarks",
    "WeightProfile",
    "entropy_family",
    "gallager_exponent",
    "landmarks",
    "bz_bounds",
    "tradeoff_bounds",
    "nontrivial_rate_threshold",
    "specific_code_bound",
    "bounded_distance_exponent",
    "typical_error_geometry",
]

_GV_KNOTS = 2001  # knots of ``WeightProfile.gv_ensemble``


@dataclass(frozen=True)
class BscChannel:
    """Binary symmetric channel with crossover probability p in (0, 1/2)."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"crossover probability must lie in (0, 1/2), got {self.p}")

    @property
    def nu(self) -> float:
        """log2((1-p)/p)."""
        return math.log2((1.0 - self.p) / self.p)

    @property
    def u(self) -> float:
        """p(1-p)."""
        return self.p * (1.0 - self.p)

    @property
    def capacity(self) -> float:
        return 1.0 - h(self.p)


BinaryBoundValue = BoundValue  # regime "a", "b" or "c"


@dataclass(frozen=True)
class BinaryLandmarks:
    rho0: float
    omega0: float
    R_e: float
    R_c: float
    rho0_plus: float
    rho0_minus: float
    omega0_tau: float


def entropy_family(x: float, y: float) -> tuple[float, float, float]:
    """(h(x), T(x, y), D(x || y)) in bits.

    T(x, y) = -x log2 y - (1-x) log2(1-y). Degenerate y in {0, 1} yields an
    explicit infinite T/D when the corresponding weight is nonzero.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    hx = h(x)
    if y <= 0.0 or y >= 1.0:
        if (y <= 0.0 and x > 0.0) or (y >= 1.0 and x < 1.0):
            return hx, math.inf, math.inf
        t = 0.0
        return hx, t, t - hx
    t = -x * math.log2(y) - (1.0 - x) * math.log2(1.0 - y)
    return hx, t, t - hx


def _T(x: float, y: float) -> float:
    return entropy_family(x, y)[1]


def _D(x: float, y: float) -> float:
    return entropy_family(x, y)[2]


@lru_cache(maxsize=256)
def delta_gv(R: float) -> float:
    """Relative Gilbert-Varshamov distance h^{-1}(1 - R), memoized per rate:
    one BSC rate point asks for it from several bounds."""
    if not 0.0 <= R <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {R}")
    return entropy_inverse(1.0 - R)


@lru_cache(maxsize=256)
def landmarks(ch: BscChannel, tau: float = 0.0) -> BinaryLandmarks:
    """Saddle weights and rate breakpoints of the binary bounds, memoized per
    (p, tau): every bound of every rate at one channel and margin reads them."""
    if not 0.0 <= tau < 0.5:
        raise ValueError(f"tau must lie in [0, 1/2), got {tau}")
    p, u = ch.p, ch.u
    sp = math.sqrt(p)
    rho0 = sp / (sp + math.sqrt(1.0 - p))
    omega0 = 2.0 * rho0 * (1.0 - rho0)
    root = math.sqrt(u + tau * tau * (1.0 - 2.0 * p) ** 2)
    rho0_plus = (root - p * (1.0 + 2.0 * tau) + tau) / (1.0 - 2.0 * p)
    rho0_minus = (root - p * (1.0 - 2.0 * tau) - tau) / (1.0 - 2.0 * p)
    omega0_tau = 2.0 * (math.sqrt(u + tau * tau * (1.0 - 4.0 * u)) - 2.0 * u) / (1.0 - 4.0 * u)
    return BinaryLandmarks(
        rho0=rho0,
        omega0=omega0,
        R_e=1.0 - h(omega0),
        R_c=1.0 - h(rho0),
        rho0_plus=rho0_plus,
        rho0_minus=rho0_minus,
        omega0_tau=omega0_tau,
    )


class _Member(NamedTuple):
    """Rate-independent constants of M+ (sign +1) or M- (sign -1) at (p, tau)."""

    floor: float  # lowest valid rate
    R_a: float  # (a)/(b) split
    R_b: float  # (b)/(c) split 1 - h_b
    b0: float  # regime (b) is b0 - R - h_b, b0 = D(rho0s || p) + 1
    h_b: float  # h(rho0s - 2 sign tau)


class _Constants(NamedTuple):
    capacity: float
    e0_b: float  # E0 in regime (b) is e0_b - R, e0_b = D(rho0 || p) + R_c
    plus: _Member
    minus: _Member


@lru_cache(maxsize=256)
def _breakpoints(ch: BscChannel, tau: float) -> _Constants:
    """The terms of E0 and of the trade-off pair that do not depend on the
    rate, memoized per (p, tau) like ``landmarks``. M+ is valid from 1 - h(1/2
    - tau); M- at every rate (floor -inf) if tau <= p/2, else at none (floor
    +inf). R_a = 1 - h(omega0_tau). The (b)/(c) split is where the interior
    saddle rho0s leaves the feasible range [dgv/2 + tau, dgv + 2 tau], i.e.
    at dgv = rho0s - 2*sign*tau."""
    lm = landmarks(ch, tau)
    p = ch.p
    R_a = 1.0 - h(lm.omega0_tau)
    members = []
    for sign, rho0s, floor in (
        (1, lm.rho0_plus, 1.0 - h(0.5 - tau) - 1e-15),
        (-1, lm.rho0_minus, -math.inf if tau <= p / 2.0 + 1e-15 else math.inf),
    ):
        # Both weights lie in [0, 1]; near tau = 1/2 rounding can put them
        # a hair below 0.
        rho0s = min(max(rho0s, 0.0), 1.0)
        h_b = h(min(max(rho0s - 2.0 * sign * tau, 0.0), 1.0))
        members.append(_Member(floor, R_a, 1.0 - h_b, _D(rho0s, p) + 1.0, h_b))
    return _Constants(ch.capacity, _D(lm.rho0, p) + lm.R_c, *members)


def gallager_exponent(R: float, ch: BscChannel) -> BinaryBoundValue:
    """Classical random-coding / expurgated lower bound E0(R, p), in bits."""
    lm = landmarks(ch, 0.0)
    capacity, e0_b = _breakpoints(ch, 0.0)[:2]
    if R > capacity + 1e-12:
        reason = f"rate {R} above capacity {capacity}"
        return BinaryBoundValue(0.0, "c", valid=False, reason=reason)
    R = min(R, capacity)
    dgv = delta_gv(R)
    if R <= lm.R_e:
        value = -dgv * math.log2(2.0 * math.sqrt(ch.u))
        regime = "a"
    elif R <= lm.R_c:
        value = e0_b - R
        regime = "b"
    else:
        value = _D(dgv, ch.p)
        regime = "c"
    return BinaryBoundValue(value, regime, diagnostics={"delta_gv": dgv})


def bz_bounds(
    R: float, ch: BscChannel, tau: float
) -> tuple[BinaryBoundValue, BinaryBoundValue]:
    """Linear-in-tau error/erasure bounds (Ee_lb, Ex_lb)."""
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    base = gallager_exponent(R, ch)
    if not base.valid:
        invalid = BinaryBoundValue(0.0, base.regime, valid=False, reason=base.reason)
        return invalid, invalid
    lm = landmarks(ch, 0.0)
    if R < lm.R_c:
        shift = ch.nu * tau
    else:
        dgv = delta_gv(R)
        # d/d(delta) D(delta || p) in bits.
        dprime = math.log2(dgv * (1.0 - ch.p) / (ch.p * (1.0 - dgv)))
        shift = 2.0 * tau * dprime
    ee = BinaryBoundValue(base.value + shift, base.regime)
    ex_val = base.value - shift
    if ex_val < 0.0:
        ex = BinaryBoundValue(
            0.0, base.regime, valid=False, reason=f"negative erasure exponent {ex_val}"
        )
    else:
        ex = BinaryBoundValue(ex_val, base.regime)
    return ee, ex


def _tradeoff_one(R: float, ch: BscChannel, tau: float, sign: int) -> BinaryBoundValue:
    """M+ (sign=+1, undetected error) or M- (sign=-1, erasure)."""
    p = ch.p
    lm = landmarks(ch, tau)
    k = _breakpoints(ch, tau)
    m = k.plus if sign > 0 else k.minus
    rho0s = lm.rho0_plus if sign > 0 else lm.rho0_minus
    dgv = delta_gv(R)
    # Regime (c)'s error weight; for M- it is the decoding radius dgv - 2 tau.
    rho = dgv + 2.0 * sign * tau

    if R <= m.R_a:
        regime = "a"
        diag = {"rho_typ": (1.0 - dgv) * p + dgv / 2.0 + sign * tau, "omega_typ": dgv}
        arg = 0.5 + tau / dgv if dgv > 0 else math.inf
        if not 0.0 <= arg <= 1.0:
            return BinaryBoundValue(
                0.0, regime, valid=False, diagnostics=diag,
                reason=f"entropy argument {arg} outside [0, 1]",
            )
    elif R <= m.R_b:
        regime = "b"
        diag = {"rho_typ": rho0s, "omega_typ": lm.omega0_tau}
    else:
        regime = "c"
        diag = {
            "rho_typ": rho,
            "omega_typ": 2.0 * rho * (1.0 - rho) - 2.0 * sign * tau * (1.0 - 2.0 * rho),
        }
    if sign < 0 and rho < p - 1e-15:
        # Decoding radius below the typical noise weight (possibly even
        # negative): the tail term has no exponential decay, so no
        # error-or-erasure exponent is positive, whatever the regime.
        return BinaryBoundValue(
            0.0, regime, valid=False, diagnostics=diag,
            reason=f"decoding radius {rho} below the crossover probability {p}",
        )
    if regime == "a":
        value = -dgv * (h(arg) + 0.5 * math.log2(ch.u)) + sign * ch.nu * tau
    elif regime == "b":
        value = m.b0 - R - m.h_b
    else:
        value = _D(rho, p)
    if value < 0.0 and value > -1e-12:
        value = 0.0
    reason = None
    if R < m.floor:
        reason = f"rate {R} below 1 - h(1/2 - tau)" if sign > 0 else f"tau {tau} above p/2"
    elif value < 0.0:
        reason = f"negative exponent {value}"
    return BinaryBoundValue(value, regime, valid=reason is None, diagnostics=diag, reason=reason)


def tradeoff_bounds(
    R: float, ch: BscChannel, tau: float
) -> tuple[BinaryBoundValue, BinaryBoundValue]:
    """Nonlinear trade-off pair (M_plus, M_minus) for undetected error / erasure.
    A rate outside [0, 1] gives both members ``valid=False``."""
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not 0.0 <= R <= 1.0:
        invalid = BinaryBoundValue(
            0.0, "a" if R < 0.0 else "c", valid=False, reason=f"rate {R} outside [0, 1]"
        )
        return invalid, invalid
    return _tradeoff_one(R, ch, tau, +1), _tradeoff_one(R, ch, tau, -1)


def tradeoff_case_b_alternative(ch: BscChannel, tau: float, sign: int, R: float) -> float:
    """Case-(b) trade-off value via the omega0-only identity, for cross-checks."""
    lm = landmarks(ch, tau)
    w0 = lm.omega0_tau
    return (
        1.0
        - R
        - h(w0)
        - w0 * h(0.5 + sign * tau / w0)
        - (w0 / 2.0) * math.log2(ch.u)
        + sign * ch.nu * tau
    )


def nontrivial_rate_threshold(ch: BscChannel, tau: float) -> float:
    """Largest rate at which the erasure trade-off bound stays positive."""
    q = ch.p + 2.0 * tau
    if q >= 0.5:
        return 0.0
    return 1.0 - h(q)


@dataclass(frozen=True)
class WeightProfile:
    """Exponential weight profile alpha(omega) on a grid, linear in between.

    Outside the grid support the profile is -inf (no codewords).
    """

    omegas: tuple[float, ...]
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.omegas) != len(self.alphas) or len(self.omegas) == 0:
            raise ValueError("profile grids must be nonempty and of equal length")
        if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("omega grid must be strictly increasing")

    @property
    def support(self) -> tuple[float, float]:
        return self.omegas[0], self.omegas[-1]

    def __call__(self, omega: float) -> float:
        lo, hi = self.support
        if omega < lo or omega > hi:
            return -math.inf
        return float(np.interp(omega, self.omegas, self.alphas))

    @classmethod
    def gv_ensemble(cls, R: float) -> "WeightProfile":
        """Binomial/GV profile alpha(omega) = h(omega) - (1 - R) on its
        support, at ``_GV_KNOTS`` evenly spaced knots."""
        dgv = delta_gv(R)
        om = np.linspace(dgv, 1.0, _GV_KNOTS)
        return cls(tuple(om.tolist()), tuple((h(om) - (1.0 - R)).tolist()))

    @classmethod
    def single_weight(cls, omega: float, alpha: float = 0.0) -> "WeightProfile":
        eps = 1e-12
        return cls((omega - eps, omega, omega + eps), (alpha, alpha, alpha))


def specific_code_bound(profile: WeightProfile, R: float, ch: BscChannel) -> float:
    """Error-rate exponent of a specific weight profile under complete decoding.

    max(D, E0(R, p) - kappa) where D is the Bhattacharyya-weighted profile
    maximum and kappa the profile's excess over the rate-R ensemble.

    Both maxima are exact. Between knots the profile is linear, so the
    Bhattacharyya term alpha(w) + (w/2) log2(4u) is too, and the excess term
    alpha(w) - max(0, h(w) - (1 - R)) is linear or linear minus the concave h
    (convex). Each term thus peaks at a knot, at an end of the support, or,
    for the excess, where h(w) = 1 - R: at delta_gv(R) or 1 - delta_gv(R).
    """
    lo, hi = profile.support
    if hi <= 0.0:
        raise ValueError("profile support must contain positive weights")
    lo = max(lo, 1e-9)
    dgv = delta_gv(min(max(R, 0.0), 1.0))
    w = np.clip(np.array([lo, hi, *profile.omegas, dgv, 1.0 - dgv]), lo, hi)
    alpha = np.interp(w, profile.omegas, profile.alphas)
    bhatta = alpha + (w / 2.0) * math.log2(4.0 * ch.u)
    kappa = max(0.0, float(np.max(alpha - np.maximum(0.0, h(w) - (1.0 - R)))))
    return max(-float(np.max(bhatta)), gallager_exponent(R, ch).value - kappa)


def bounded_distance_exponent(R: float, ch: BscChannel, tau: float) -> BinaryBoundValue:
    """Exponent of bounded-distance decoding at radius tau: the union bound
    over codeword weights of the decoding ball's largest term. In fractions
    of n, the codeword has weight omega, a of its ones stay unflipped and b
    of its zeros are flipped, a + b <= tau. Above the split R = 1 - h(omega*),
    omega* = p + tau (1 - 2p), the term peaks at weight omega* with a = tau q,
    b = tau p, and the value is the ball-volume exponent 1 - R - h(tau)
    (regime "b"). At and below it, omega = delta_gv(R), a + b = tau and b is
    the positive root of A b^2 + B b - C with A = q^2 - p^2, B = q^2 (omega -
    tau) + p^2 (1 - omega + tau) and C = p^2 tau (1 - omega), taken as 2C /
    (B + sqrt(B^2 + 4AC)) so that nothing cancels (regime "a"). ``diagnostics``
    holds the maximizing type {"omega", "a", "b"}. A negative exponent is
    returned with valid=False.
    """
    if not 0.0 <= tau <= 0.5:
        raise ValueError(f"tau must lie in [0, 1/2], got {tau}")
    p, q = ch.p, 1.0 - ch.p
    omega = p + tau * (1.0 - 2.0 * p)
    if R <= 1.0 - h(omega):
        regime = "a"
        # delta_gv >= omega* >= tau, so a = tau - b <= omega and b <= 1 - omega.
        omega = delta_gv(R)
        B = q * q * (omega - tau) + p * p * (1.0 - omega + tau)
        C = p * p * tau * (1.0 - omega)
        b = 2.0 * C / (B + math.sqrt(B * B + 4.0 * (q * q - p * p) * C))
        a = tau - b
        value = _T(omega - a + b, p) - omega * h(a / omega) - (1.0 - omega) * h(b / (1.0 - omega))
    else:
        regime = "b"
        a, b = tau * q, tau * p
        value = 1.0 - R - h(tau)
    diag = {"omega": omega, "a": a, "b": b}
    reason = f"negative exponent {value}" if value < 0.0 else None
    return BinaryBoundValue(value, regime, valid=reason is None, diagnostics=diag, reason=reason)


def typical_error_geometry(
    R: float, ch: BscChannel, tau: float
) -> tuple[float, float, str]:
    """Typical (error weight, decoded-codeword weight, regime) of the
    undetected-error event: the ``rho_typ`` and ``omega_typ`` diagnostics of
    the error member of ``tradeoff_bounds``."""
    m_plus = _tradeoff_one(R, ch, tau, +1)
    d = m_plus.diagnostics
    return d["rho_typ"], d["omega_typ"], m_plus.regime
