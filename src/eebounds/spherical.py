"""Asymptotic exponents for spherical codes on the AWGN channel.

All angles are radians, all exponents nats per dimension. The module covers
the classical lower bound on the reliability function, the trade-off bound
for margin decoding (error and erasure flavors), the distance-profile bound
it derives from, and the error-detection exponent.
The neighbor angle ``elias_theta``, the expurgation angle and the decoding
radius are each one bracketed solve in ``numerics``, on a bracket that holds
exactly one root, to the solver's one tolerance of 1e-15 in angle. x(theta)
is steep near pi/2, so the radius lands within about 1e-15 / (pi/2 - rho) of
its root: against a 30-digit mpmath root, 6.3e-15 where pi/2 - rho >= 0.05
and 1.9e-13 at R = 2e-6 (|tau| <= 0.05). Worst-angle minima come from
``maximize_unimodal`` on the negated integrand. The neighbor-angle equation
has a closed-form inverse x(theta), so the decoding radius is one solve in
theta, on the piece (2 max(-tau, 0), pi/2] of the branch rule where its
residual increases, from theta_s(R) up (the residual is at most 0 there),
kept by one acceptance rule. The boundary rate R* is a formula that rule
checks with no solve; at or above capacity, the straight regime runs to
capacity. Invalid bound values carry a ``reason``. The distance-profile
exponent sets the worst angle against the noise tail ``_tail``, which raises
ValueError below the capacity angle, where leaving the cone is the typical
event; it raises too when no angle has a pair exponent. The worst angle is
searched on arrays only, so the pair exponent (``f_exponent``, ``_phi0``)
and every profile's ``b`` are NumPy-elementwise, with NaN outside their
domain; a scalar gives a NumPy scalar. ``esp`` also keeps a float path,
for the scalar bounds that call it in their loops; its saddle factor
``_g_cos`` takes arrays for the quadrature in ``finite`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .numerics import (
    BoundValue,
    BracketError,
    maximize_unimodal,
    solve_bracketed,
)

__all__ = [
    "AwgnChannel",
    "SphericalLandmarks",
    "DistanceProfile",
    "theta_s",
    "esp",
    "shannon_exponent",
    "big_g",
    "elias_theta",
    "decoding_radius",
    "spherical_landmarks",
    "f_exponent",
    "tradeoff_exponent",
    "profile_exponent",
    "undetected_error_exponent",
    "rankin_rate",
]


@dataclass(frozen=True)
class AwgnChannel:
    """AWGN channel, unit noise variance, signal-to-noise ratio A."""

    A: float

    def __post_init__(self) -> None:
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise ValueError(f"signal-to-noise ratio must be positive and finite, got {self.A}")

    @property
    def capacity(self) -> float:
        return 0.5 * math.log1p(self.A)

    @property
    def capacity_angle(self) -> float:
        """arccot sqrt(A): the zero-exponent angle."""
        return math.atan(1.0 / math.sqrt(self.A))


@dataclass(frozen=True)
class SphericalLandmarks:
    theta_e: float
    theta_c: float
    theta_1: float
    theta_2: float
    R_star: float
    residuals: dict  # stationarity residuals of theta_1 and R*


def theta_s(R: float) -> float:
    """Code-distance angle arcsin e^{-R} of the rate-R packing."""
    if R < 0.0:
        raise ValueError(f"rate must be nonnegative, got {R}")
    return math.asin(math.exp(-R))


def _g_cos(c, A: float):
    """Saddle factor g of the sphere-packing exponent from c = cos(phi):
    (sqrt(A) c + sqrt(A c^2 + 4)) / 2; elementwise on an array, a float for a
    scalar."""
    sqrt = np.sqrt if isinstance(c, np.ndarray) else math.sqrt
    return 0.5 * (math.sqrt(A) * c + sqrt(A * c * c + 4.0))


def esp(phi, ch: AwgnChannel):
    """Sphere-packing exponent: decay rate of noise escaping a cone of
    half-angle phi. Elementwise on an array of angles, a float for a scalar;
    every angle must lie in (0, pi)."""
    xp = np if isinstance(phi, np.ndarray) else math
    lo, hi = (phi.min(), phi.max()) if xp is np else (phi, phi)
    if not 0.0 < lo <= hi < math.pi:
        raise ValueError(f"angle must lie in (0, pi), got {hi if lo > 0.0 else lo}")
    A = ch.A
    c = xp.cos(phi)
    g = _g_cos(c, A)
    # g > 0 and sin(phi) > 0 on (0, pi), so the log argument is positive.
    return A / 2.0 - (math.sqrt(A) / 2.0) * g * c - xp.log(g * xp.sin(phi))


def _tail(rho: float, ch: AwgnChannel) -> float:
    """esp(rho), the decay rate of noise leaving the cone of half-angle rho;
    ValueError below the capacity angle, where it does not decay."""
    if rho < ch.capacity_angle:
        raise ValueError(f"radius {rho} below the capacity angle {ch.capacity_angle}")
    return esp(rho, ch)


def _shannon_angles(ch: AwgnChannel) -> tuple[float, float]:
    """(theta_e, theta_c): expurgation and critical angles."""
    root = math.sqrt(1.0 + ch.A * ch.A / 4.0)
    te = math.asin(math.sqrt(1.0 / (0.5 + 0.5 * root)))
    tc = math.asin(math.sqrt(1.0 / (0.5 + ch.A / 4.0 + 0.5 * root)))
    return te, tc


def shannon_exponent(R: float, ch: AwgnChannel) -> BoundValue:
    """Classical lower bound on the AWGN reliability function at rate R."""
    if R > ch.capacity + 1e-12:
        return BoundValue(
            0.0, "sphere-packing", valid=False, reason=f"rate {R} above capacity {ch.capacity}"
        )
    theta = theta_s(R)
    te, tc = _shannon_angles(ch)
    A = ch.A
    if theta >= te:
        return BoundValue((A / 4.0) * (1.0 - math.cos(theta)), "expurgation")
    if theta >= tc:
        value = (A / 4.0) * (1.0 - math.cos(te)) + math.log(math.sin(theta) / math.sin(te))
        return BoundValue(value, "straight")
    return BoundValue(esp(theta, ch), "sphere-packing")


def big_g(phi: float, tau: float, ch: AwgnChannel) -> float:
    """Small negative correction term of the trade-off bound; zero at tau=0."""
    if not (0.0 < phi and phi / 2.0 + tau < math.pi / 2.0):
        raise ValueError(f"require 0 < phi and phi/2 + tau < pi/2, got phi={phi}, tau={tau}")
    a = 0.5 * (phi + tau)
    b = 0.5 * phi + tau
    ca, cb = math.cos(a), math.cos(b)
    arg = 1.0 + ch.A * ca * ca * (math.sin(a) ** 2 - math.sin(b) ** 2) / (cb * cb)
    if arg <= 0.0:
        raise ValueError(f"log argument nonpositive: {arg} at phi={phi}, tau={tau}")
    return 0.5 * math.log(arg)


def elias_theta(x: float, tau: float) -> float:
    """Neighbor angle theta(x): the principal root of the covering-angle
    equation cot(theta) (cos(theta + 2 tau) - cos 2x) = cos^2 x tan(theta/2
    + tau). It is linear in cos^2 x: on (0, pi/2] it is C(theta) = cos^2 x,
    C = ``_elias_c2``, times the positive 2 cot(theta) + tan(theta/2 + tau).

    C is cos^2 tau at theta -> 0 and 0 at pi/2; for tau < 0 it exceeds 1 at
    |tau| and is 1 at 2|tau|. It is monotone on each piece of the branch
    rule (see ``_elias_x``), so with a = max(-tau, 0) one bracketed solve
    finds the root: on (0, a) if x < a, else on [2a, pi/2 + 1e-9], whose top
    end lets x = pi/2 return float pi/2. Both start at 1e-9, or at |x -
    |tau|| / 2 when that is smaller, since the root lies near (4/3)|x - |tau||.
    For tau > 0 there is no root unless x > tau. ``decoding_radius`` never
    calls this; ``spherical_landmarks`` calls it once, on x_1, for the
    residual of R*.
    """
    if not 0.0 < x <= math.pi / 2.0:
        raise ValueError(f"x must lie in (0, pi/2], got {x}")
    if 0.0 < tau and x <= tau:
        raise ValueError(f"x must exceed tau > 0 (domain x > tau), got x={x}, tau={tau}")
    a = max(-tau, 0.0)
    eps = min(1e-9, abs(x - abs(tau)) / 2.0)
    if x < a:
        lo, hi = eps, a
    else:
        lo, hi = max(2.0 * a, eps), min(math.pi / 2.0 + 1e-9, math.pi - 2.0 * tau - 1e-9)
    cx2 = math.cos(x) ** 2
    return solve_bracketed(lambda th: _elias_c2(th, tau) - cx2, lo, hi)


def _elias_c2(theta: float, tau: float) -> float:
    """cos^2 x of the x whose neighbor angle is theta: cos(theta) (1 +
    cos(theta + 2 tau)) / (2 cos(theta) + sin(theta) tan(theta/2 + tau))."""
    ct = math.cos(theta)
    den = 2.0 * ct + math.sin(theta) * math.tan(theta / 2.0 + tau)
    return ct * (1.0 + math.cos(theta + 2.0 * tau)) / den


def _elias_x(theta: float, tau: float) -> float:
    """Inverse of ``elias_theta``: the x whose neighbor angle is theta, from
    cos^2 x = ``_elias_c2(theta, tau)``, clamped to [0, 1]: rounding leaves
    it just below 0 where ``elias_theta`` returns a hair above pi/2.

    Branch rule: x(pi/2) = pi/2 for every tau. For tau >= 0, x rises from tau
    to pi/2, so ``elias_theta(x(theta))`` is theta on all of (0, pi/2]. For
    tau < 0, x falls from |tau| to 0 on (0, |tau|), is clamped to 0 up to
    2|tau|, then rises to pi/2 on (2|tau|, pi/2], the piece the decoding
    radius is solved on; a radius below |tau| has its principal angle on the
    first stretch, where ``elias_theta`` brackets it. So theta is the angle
    ``elias_theta`` returns exactly when theta < a or x(theta) >= a, a =
    max(-tau, 0)."""
    return math.acos(math.sqrt(min(max(_elias_c2(theta, tau), 0.0), 1.0)))


def _radius_residual(theta: float, rho: float, R: float, tau: float) -> float:
    """R + ln sin(theta) + 1/2 ln(1 - tan^2(theta/2 + tau) / tan^2 rho): the
    decoding-radius equation at radius rho and neighbor angle theta.
    ValueError where tan^2(theta/2 + tau) >= tan^2 rho."""
    t2 = math.tan(theta / 2.0 + tau) ** 2 / math.tan(rho) ** 2
    if t2 >= 1.0:
        raise ValueError("decoding radius inside the half-distance cone")
    return R + math.log(math.sin(theta)) + 0.5 * math.log(1.0 - t2)


def decoding_radius(R: float, tau: float, ch: AwgnChannel) -> float:
    """Decoding radius rho(R): the unique root of the self-consistency
    equation R + ln sin(theta) + 1/2 ln(1 - tan^2(theta/2 + tau) / tan^2 rho)
    = 0, theta = elias_theta(rho, tau), in the bracket of ``_kept_radius``.

    The equation is one bracketed solve in theta, with rho = x(theta) from
    the closed-form inverse ``_elias_x``; no ``elias_theta`` call is made.
    With rho = x(theta) the residual does not depend on A, and it increases
    strictly in theta on the piece (2a, pi/2] of the branch rule, a =
    max(-tau, 0) (see ``_elias_x``), where it is finite and equals R at
    pi/2. At theta = theta_s(R), R + ln sin(theta) = 0, so the residual is
    1/2 ln(1 - t2) <= 0, t2 the squared tangent ratio: the one root on the
    piece lies in [theta_s(R), pi/2]. So the solve runs on
    [max(2a + 1e-6, theta_s(R)), pi/2] and finds that root, if any, which
    ``_kept_radius`` keeps or rejects with BracketError."""
    return _radius_and_angle(R, tau, ch)[0]


def _radius_and_angle(R: float, tau: float, ch: AwgnChannel) -> tuple[float, float]:
    """``decoding_radius`` and the neighbor angle theta it solved for."""
    if R <= 0.0:
        raise ValueError(f"rate must be positive, got {R}")

    def f(theta: float) -> float:
        return _radius_residual(theta, _elias_x(theta, tau), R, tau)

    try:  # f rises on (2a, pi/2], a = max(-tau, 0), and f(theta_s) <= 0
        theta = solve_bracketed(f, max(2.0 * max(-tau, 0.0) + 1e-6, theta_s(R)), math.pi / 2.0)
    except ValueError:  # no sign change, or an empty bracket (tau <= -pi/4, R < 6e-17)
        theta = math.nan
    return _kept_radius(theta, R, tau), theta


def _kept_radius(theta: float, R: float, tau: float) -> float:
    """The decoding radius x(theta) at rate R for a root theta of its
    equation, kept if theta >= 2a + 1e-6 (the rising piece) and x(theta) >=
    a, a = max(-tau, 0), which make theta the angle ``elias_theta`` returns,
    and x(theta) lies in the bracket (1e-12 below it counts, clamped: at tau
    = 0 the root is theta_s). BracketError otherwise or on an empty bracket."""
    ts = theta_s(R)
    # A negative margin (erasure flavor) shrinks the radius below theta_s.
    lo, hi = (ts, min(2.0 * ts, math.pi / 2.0 - 1e-9)) if tau >= 0.0 else (1e-3, ts)
    if hi <= lo:
        raise BracketError(f"degenerate decoding-radius bracket [{lo}, {hi}]")
    if lo <= tau:
        raise BracketError(f"no neighbor angle at the bracket end {lo} <= tau {tau}")
    a = max(-tau, 0.0)
    rho = _elias_x(theta, tau) if theta >= 2.0 * a + 1e-6 else math.nan
    if not (lo - 1e-12 <= rho <= hi and rho >= a):
        raise BracketError(f"no sign change of the decoding-radius equation on [{lo}, {hi}]")
    return max(rho, lo)


@lru_cache(maxsize=256)
def _expurgation_angle(tau: float, ch: AwgnChannel) -> tuple[float, float]:
    """(theta_1, stationarity residual): the expurgation/straight-line
    boundary angle, memoized per (A, tau). It is all the expurgation regime
    of ``tradeoff_exponent`` needs. theta_1 solves tan(x) sin(x + 2 tau) =
    4/A, whose log-derivative 2/sin(2x) + cot(x + 2 tau) is positive where
    the product is (for tau < 0.55): one root on (0, pi/2), one solve."""
    A = ch.A

    def d_expurg(x: float) -> float:
        # Stationarity of ln sin(x) - (A/4)(1 - cos(x + 2 tau)), the exact
        # saddle-simplified expurgation integrand.
        return math.cos(x) / math.sin(x) - (A / 4.0) * math.sin(x + 2.0 * tau)

    theta_1 = solve_bracketed(d_expurg, 1e-6, math.pi / 2.0 - 1e-6)
    return theta_1, d_expurg(theta_1)


@lru_cache(maxsize=256)
def spherical_landmarks(tau: float, ch: AwgnChannel) -> SphericalLandmarks:
    """Regime-boundary angles of the trade-off bound, memoized per (A, tau).

    R* is where the neighbor angle of the decoding radius reaches theta_1.
    In closed form, with x_1 = x(theta_1) from the inverse of the neighbor-
    angle equation (see ``elias_theta``), R* = -ln sin(theta_1) - 1/2 ln(1 -
    tan^2(theta_1/2 + tau) / tan^2 x_1). Below capacity C, (theta_1, x_1)
    must pass the radius acceptance rule ``_kept_radius``; at or above C no
    rate solves a radius, theta_2 lies below every theta_s(R), and the
    straight regime runs to C. BracketError unless R* is finite, >= 1e-4
    and passes. ``residuals``: stationarity at theta_1, elias_theta(x_1) -
    theta_1."""
    te, tc = _shannon_angles(ch)
    theta_1, resid_t1 = _expurgation_angle(tau, ch)
    x_1 = _elias_x(theta_1, tau)
    try:
        r_star = -_radius_residual(theta_1, x_1, 0.0, tau)
        if r_star < ch.capacity:
            _kept_radius(theta_1, r_star, tau)
        resid_r = elias_theta(x_1, tau) - theta_1
    except (ValueError, ZeroDivisionError):
        r_star = math.nan
    if not 1e-4 <= r_star < math.inf:
        raise BracketError("no root for the straight-line/sphere-packing rate boundary")
    return SphericalLandmarks(
        theta_e=te,
        theta_c=tc,
        theta_1=theta_1,
        theta_2=theta_s(r_star),
        R_star=r_star,
        residuals={"theta_1": resid_t1, "R_star": resid_r},
    )


def _phi0(theta, tau: float, ch: AwgnChannel):
    """Interior saddle angle of the pairwise-error integrand, in (0, pi/2];
    NumPy-elementwise: an array of angles gives an array, a scalar a NumPy
    scalar."""
    A = ch.A
    psi = theta + 2.0 * tau
    # Numerator and denominator are both at least 4: only rounding past 1 is
    # cut. np.square, not ** 2, which on a NumPy scalar is pow() and can be an
    # ulp off the array's square.
    s2 = (4.0 + A * np.square(np.sin(psi))) / (2.0 * (2.0 + A + A * np.cos(psi)))
    return np.asin(np.sqrt(np.minimum(s2, 1.0)))


def f_exponent(theta, tau: float, ch: AwgnChannel, rho) -> tuple:
    """(-1/n ln of the pairwise error probability, active saddle angle) for
    two codewords at angle theta under margin tau, errors capped at radius rho
    > 0. NumPy-elementwise in theta and rho: arrays give arrays, scalars NumPy
    scalars, each the same bits as the matching array entry. The exponent is
    NaN outside its domain theta/2 + tau < rho < pi/2, and is not finite
    where the saddle lies at or below theta/2 + tau, which makes 1 - t2 <= 0;
    no warning is raised for either."""
    half = theta / 2.0 + tau
    with np.errstate(all="ignore"):
        phi0 = _phi0(theta, tau, ch)
        phi = np.where(phi0 < rho, phi0, rho)
        t2 = np.square(np.tan(half)) / np.square(np.tan(phi))
        value = -0.5 * np.log(1.0 - t2) + esp(phi, ch)
        value = np.where((half < rho) & (rho < math.pi / 2.0), value, np.nan)
    return value[()], phi[()]


def tradeoff_exponent(R: float, ch: AwgnChannel, tau: float, kind: str = "error") -> BoundValue:
    """Trade-off lower bound M(R) on the undetected-error (kind="error") or
    erasure (kind="erasure", margin negated) exponent."""
    if kind not in ("error", "erasure"):
        raise ValueError(f"kind must be 'error' or 'erasure', got {kind}")
    if not tau >= 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    t = tau if kind == "error" else -tau
    if R <= 0.0 or R > ch.capacity + 1e-12:
        return BoundValue(
            0.0, "sphere-packing", valid=False,
            reason=f"rate {R} outside (0, capacity {ch.capacity}]",
        )
    ts = theta_s(R)
    A = ch.A
    try:
        # Each regime looks up only the landmarks it needs, so a failed R*
        # search leaves the expurgation regime valid.
        theta_1 = _expurgation_angle(t, ch)[0]
        # The pairwise-error exponent at the interior saddle simplifies
        # exactly to (A/4)(1 - cos(theta + 2 tau)); equivalently, the
        # correction to the tau-shifted expurgation term is
        # (A/4)(cos(theta + 2 tau) - cos(theta + tau)), which vanishes at
        # tau = 0 and is negative for tau > 0.
        if ts > theta_1:
            value = (A / 4.0) * (1.0 - math.cos(ts + 2.0 * t))
            return BoundValue(
                value, "expurgation", diagnostics={"theta_star": ts}
            )
        if ts > spherical_landmarks(t, ch).theta_2:
            value = (A / 4.0) * (1.0 - math.cos(theta_1 + 2.0 * t)) + math.log(
                math.sin(ts) / math.sin(theta_1)
            )
            return BoundValue(
                value, "straight", diagnostics={"theta_star": theta_1}
            )
        rho, theta_star = _radius_and_angle(R, t, ch)
        diag = {"rho": rho, "theta_star": theta_star}
    except (ValueError, BracketError) as exc:
        return BoundValue(0.0, "sphere-packing", valid=False, reason=str(exc))
    if rho < ch.capacity_angle - 1e-12:
        # Noise typically exceeds the radius: the tail term carries no
        # exponential decay and the bound degenerates.
        return BoundValue(
            0.0, "sphere-packing", valid=False, diagnostics=diag,
            reason=f"decoding radius {rho} below the capacity angle {ch.capacity_angle}",
        )
    return BoundValue(esp(rho, ch), "sphere-packing", diagnostics=diag)


@dataclass(frozen=True)
class DistanceProfile:
    """Exponential distance profile b(theta) with declared angular support.
    b is only called on arrays of angles and must be NumPy-elementwise."""

    b: Callable
    theta_min: float
    theta_max: float

    @classmethod
    def packing(cls, R: float) -> "DistanceProfile":
        """Profile R + ln sin theta of the uniform-measure packing of rate R."""
        tmin = theta_s(R)
        b = lambda t: R + np.log(np.sin(t))
        return cls(b, tmin, math.pi - tmin)


def profile_exponent(
    profile: DistanceProfile, R: float, ch: AwgnChannel, tau: float, rho: float
) -> float:
    """Exponent of the distance-profile union bound: the smaller of the pair
    exponent less b(theta) at the worst profile angle theta in [theta_min,
    hi], hi = min(theta_max, 2 (rho - tau) - 1e-9), and the sphere-packing
    tail at radius rho, which must not lie below the capacity angle. The pair
    exponent and b are called on arrays only, a one-point array when the
    range is a single angle, and a non-finite difference means no pairwise
    exponent there. Raises ValueError when no angle in the range has one,
    rather than return the tail alone."""
    lo = profile.theta_min
    hi = min(profile.theta_max, 2.0 * (rho - tau) - 1e-9)
    if hi < lo:
        raise ValueError(f"empty angle range [{lo}, {hi}]")
    tail = _tail(rho, ch)

    def integrand(th):
        return profile.b(th) - f_exponent(th, tau, ch, rho)[0]

    if hi == lo:
        best = float(integrand(np.array([lo]))[0])
    else:
        best = maximize_unimodal(integrand, lo, hi)[1]
    if not math.isfinite(best):
        raise ValueError(f"no angle in [{lo}, {hi}] has a pairwise exponent at radius {rho}")
    return min(-best, tail)


def undetected_error_exponent(theta: float, tau: float) -> BoundValue:
    """Exponent of undetected error in the vanishing-radius detection limit.

    The value is -1/2 log(8 tau / sin(2 theta)). Its argument is the first-order
    term of the exact pairwise ratio 1 - tan^2(theta - tau) / tan^2(theta + tau);
    the next term is -32 tau^2 / sin^2(2 theta), which the first-order form
    leaves out. The value is valid only while the argument is at most 1;
    beyond that the result has ``valid=False``.
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError(f"distance angle must lie in (0, pi/2), got {theta}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    arg = 8.0 * tau / math.sin(2.0 * theta)
    if arg > 1.0:
        return BoundValue(
            0.0, "detection", valid=False, reason=f"first-order argument {arg} exceeds 1"
        )
    return BoundValue(-0.5 * math.log(arg), "detection")


def rankin_rate(theta: float) -> float:
    """Upper bound on the rate of a spherical code of distance theta."""
    if not 0.0 < theta <= math.pi / 2.0:
        raise ValueError(f"angle must lie in (0, pi/2], got {theta}")
    return -math.log(math.sqrt(2.0) * math.sin(theta / 2.0))
