"""Asymptotic exponents for spherical codes on the AWGN channel.

All angles are radians, all exponents nats per dimension. The module covers
the classical lower bound on the reliability function, the trade-off bound
for margin decoding (error and erasure flavors), the distance-profile bound
it derives from, and the bounded-distance / error-detection exponents.
Implicit angles come from the shared sign scan in ``numerics``, worst-angle
minima from ``maximize_unimodal`` on the negated integrand; ``esp`` also
takes an array of angles, for the quadrature in ``finite``, and so does each
residual a scan takes, which gives NaN where its float form raises. The
neighbor-angle equation of ``elias_theta`` has a closed-form inverse
x(theta), so the decoding radius is one scan in theta and the boundary rate
R* a formula, with no scan nested in another. Invalid bound values carry a
``reason``. Both distance-profile exponents are one ``_union_exponent``: the
worst angle against the noise tail ``_tail``, which raises ValueError below
the capacity angle, where leaving the cone is the typical event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .numerics import (
    BoundValue,
    BracketError,
    RealInterval,
    SolverConfig,
    _guarded,
    _scan_root,
    maximize_unimodal,
)

__all__ = [
    "AwgnChannel",
    "SphericalBoundValue",
    "SphericalLandmarks",
    "DistanceProfile",
    "theta_s",
    "rate_of_angle",
    "g_aux",
    "esp",
    "shannon_exponent",
    "shannon_angles",
    "big_g",
    "elias_theta",
    "decoding_radius",
    "spherical_landmarks",
    "f_exponent",
    "tradeoff_exponent",
    "profile_exponent",
    "bounded_distance_exponent_s",
    "undetected_error_exponent",
    "rankin_rate",
]

_ROOT_CFG = SolverConfig(abs_tol=1e-14, max_iter=400)
# Largest neighbor-angle residual elias_theta accepts at its root.
_ELIAS_RESIDUAL_TOL = 1e-10


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


SphericalBoundValue = BoundValue  # regimes: expurgation, straight, sphere-packing, detection


@dataclass(frozen=True)
class SphericalLandmarks:
    theta_e: float
    theta_c: float
    theta_1: float
    theta_2: float
    R_star: float
    residuals: Optional[dict] = None


def theta_s(R: float) -> float:
    """Code-distance angle arcsin e^{-R} of the rate-R packing."""
    if R < 0.0:
        raise ValueError(f"rate must be nonnegative, got {R}")
    return math.asin(math.exp(-R))


def rate_of_angle(theta: float) -> float:
    """Inverse of theta_s: -ln sin theta."""
    s = math.sin(theta)
    if s <= 0.0:
        raise ValueError(f"angle must have positive sine, got {theta}")
    return -math.log(s)


def g_aux(phi, ch: AwgnChannel):
    """Saddle factor g(phi) of the sphere-packing exponent; elementwise on an
    array of angles, a float for a scalar."""
    xp = np if isinstance(phi, np.ndarray) else math
    A = ch.A
    c = xp.cos(phi)
    return 0.5 * (math.sqrt(A) * c + xp.sqrt(A * c * c + 4.0))


def esp(phi, ch: AwgnChannel):
    """Sphere-packing exponent: decay rate of noise escaping a cone of
    half-angle phi. Elementwise on an array of angles, a float for a scalar;
    every angle must lie in (0, pi)."""
    xp = np if isinstance(phi, np.ndarray) else math
    lo, hi = (phi.min(), phi.max()) if xp is np else (phi, phi)
    if not 0.0 < lo <= hi < math.pi:
        raise ValueError(f"angle must lie in (0, pi), got {hi if lo > 0.0 else lo}")
    A = ch.A
    g = g_aux(phi, ch)
    # g > 0 and sin(phi) > 0 on (0, pi), so the log argument is positive.
    return A / 2.0 - (math.sqrt(A) / 2.0) * g * xp.cos(phi) - xp.log(g * xp.sin(phi))


def _tail(rho: float, ch: AwgnChannel) -> float:
    """esp(rho), the decay rate of noise leaving the cone of half-angle rho;
    ValueError below the capacity angle, where it does not decay."""
    if rho < ch.capacity_angle:
        raise ValueError(f"radius {rho} below the capacity angle {ch.capacity_angle}")
    return esp(rho, ch)


def shannon_angles(ch: AwgnChannel) -> tuple[float, float]:
    """(theta_e, theta_c): expurgation and critical angles."""
    root = math.sqrt(1.0 + ch.A * ch.A / 4.0)
    te = math.asin(math.sqrt(1.0 / (0.5 + 0.5 * root)))
    tc = math.asin(math.sqrt(1.0 / (0.5 + ch.A / 4.0 + 0.5 * root)))
    return te, tc


def shannon_exponent(R: float, ch: AwgnChannel) -> SphericalBoundValue:
    """Classical lower bound on the AWGN reliability function at rate R."""
    if R > ch.capacity + 1e-12:
        return SphericalBoundValue(
            0.0, "sphere-packing", valid=False, reason=f"rate {R} above capacity {ch.capacity}"
        )
    theta = theta_s(R)
    te, tc = shannon_angles(ch)
    A = ch.A
    if theta >= te:
        return SphericalBoundValue((A / 4.0) * (1.0 - math.cos(theta)), "expurgation")
    if theta >= tc:
        value = (A / 4.0) * (1.0 - math.cos(te)) + math.log(math.sin(theta) / math.sin(te))
        return SphericalBoundValue(value, "straight")
    return SphericalBoundValue(esp(theta, ch), "sphere-packing")


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
    """Neighbor angle theta(x): the implicit covering-angle equation's root.

    Solved on the cleared (pole-free) form cot(theta) * (cos(theta + 2 tau)
    - cos 2x) - cos^2 x * tan(theta/2 + tau) = 0, scanned on (0, pi - 2 tau).
    The equation is linear in cos^2 x (cos 2x = 2 cos^2 x - 1), so its
    inverse is closed-form: cos^2 x = cot(theta) (1 + cos(theta + 2 tau)) /
    (2 cot(theta) + tan(theta/2 + tau)), which is cos(theta) at tau = 0.
    ``decoding_radius`` and ``spherical_landmarks`` solve in theta through
    that inverse and call this scan only at bracket ends and to check roots.
    For tau > 0 the inverse tends to tau as theta -> 0, so there is no root
    unless x > tau.
    """
    if not 0.0 < x <= math.pi / 2.0:
        raise ValueError(f"x must lie in (0, pi/2], got {x}")
    if 0.0 < tau and x <= tau:
        raise ValueError(f"x must exceed tau > 0 (domain x > tau), got x={x}, tau={tau}")
    c2x = math.cos(2.0 * x)
    cx2 = math.cos(x) ** 2

    def resid(theta):
        xp = np if isinstance(theta, np.ndarray) else math
        return (
            (xp.cos(theta) / xp.sin(theta)) * (xp.cos(theta + 2.0 * tau) - c2x)
            - cx2 * xp.tan(theta / 2.0 + tau)
        )

    hi = math.pi - 2.0 * tau - 1e-9
    roots = _scan_root(resid, 1e-9, hi, 160, _ROOT_CFG)
    if not roots:
        raise BracketError(f"no root of the neighbor-angle equation on (0, {hi})")
    theta = roots[0]
    if abs(resid(theta)) > _ELIAS_RESIDUAL_TOL:
        raise BracketError(
            f"neighbor-angle residual {resid(theta)} exceeds {_ELIAS_RESIDUAL_TOL}"
        )
    return theta


def _elias_x(theta, tau: float):
    """Inverse of ``elias_theta``: the x whose neighbor angle is theta, from
    cos^2 x = cos(theta) (1 + cos(theta + 2 tau)) / (2 cos(theta) + sin(theta)
    tan(theta/2 + tau)), the cot form multiplied through by sin(theta).
    cos^2 x is clamped to [0, 1]: rounding leaves it just below 0 where
    ``elias_theta`` returns a hair above pi/2, and off the principal branch
    the clamped x fails the root checks of its callers. Elementwise on an
    array of angles, NaN where the denominator is zero."""
    if isinstance(theta, np.ndarray):
        ct = np.cos(theta)
        den = 2.0 * ct + np.sin(theta) * np.tan(theta / 2.0 + tau)
        c = ct * (1.0 + np.cos(theta + 2.0 * tau)) / np.where(den == 0.0, np.nan, den)
        return np.arccos(np.sqrt(np.clip(c, 0.0, 1.0)))
    ct = math.cos(theta)
    c = ct * (1.0 + math.cos(theta + 2.0 * tau)) / (
        2.0 * ct + math.sin(theta) * math.tan(theta / 2.0 + tau)
    )
    return math.acos(math.sqrt(min(max(c, 0.0), 1.0)))


def _radius_residual(theta, rho, R: float, tau: float):
    """R + ln sin(theta) + 1/2 ln(1 - tan^2(theta/2 + tau) / tan^2 rho): the
    decoding-radius equation at radius rho and neighbor angle theta.
    Elementwise on arrays, NaN or -inf where the float path raises (t2 >= 1
    or sin(theta) <= 0)."""
    xp = np if isinstance(theta, np.ndarray) else math
    t2 = xp.tan(theta / 2.0 + tau) ** 2 / xp.tan(rho) ** 2
    if xp is math and t2 >= 1.0:
        raise ValueError("decoding radius inside the half-distance cone")
    return R + xp.log(xp.sin(theta)) + 0.5 * xp.log(1.0 - t2)


def _decoding_residual(rho: float, R: float, tau: float) -> float:
    return _radius_residual(elias_theta(min(rho, math.pi / 2.0), tau), rho, R, tau)


def decoding_radius(R: float, tau: float, ch: AwgnChannel) -> float:
    """Decoding radius rho(R): the unique root of the self-consistency
    equation R + ln sin(theta) + 1/2 ln(1 - tan^2(theta/2 + tau) / tan^2 rho)
    = 0, theta = elias_theta(rho, tau), on [theta_s, 2 theta_s] (on
    [1e-3, theta_s] for tau < 0).

    The bracket ends go to neighbor angles by two ``elias_theta`` calls, and
    the equation is scanned in theta with rho = x(theta) from the closed-form
    inverse (see ``elias_theta``), so no scan runs inside another. A root is
    accepted only if its rho lies in the bracket and the equation in rho, with
    theta from ``elias_theta``, holds there to 1e-10; this rejects roots on
    the second branch of the theta equation, which occur at tau < 0. Raises
    BracketError when no root, or no unique root, is accepted."""
    return _radius_and_angle(R, tau, ch)[0]


def _radius_and_angle(R: float, tau: float, ch: AwgnChannel) -> tuple[float, float]:
    """``decoding_radius`` and the neighbor angle theta it accepted."""
    if R <= 0.0:
        raise ValueError(f"rate must be positive, got {R}")
    ts = theta_s(R)
    if tau >= 0.0:
        lo = ts
        hi = min(2.0 * ts, math.pi / 2.0 - 1e-9)
    else:
        # Negative margin (erasure flavor) shrinks the radius below theta_s.
        lo = 1e-3
        hi = ts
    if hi <= lo:
        raise BracketError(f"degenerate decoding-radius bracket [{lo}, {hi}]")
    if lo <= tau:
        raise BracketError(f"no neighbor angle at the bracket end {lo} <= tau {tau}")

    th_lo = elias_theta(lo, tau)
    # Endpoint can be an exact root (tau = 0 collapses to theta_s).
    if abs(_guarded(lambda th: _radius_residual(th, lo, R, tau), th_lo)) < 1e-11:
        return lo, th_lo
    th_hi = elias_theta(hi, tau)

    def f(theta):
        return _radius_residual(theta, _elias_x(theta, tau), R, tau)

    def f_rho(rho: float) -> float:
        return _decoding_residual(rho, R, tau)

    roots, thetas = [], []
    for theta in _scan_root(f, min(th_lo, th_hi), max(th_lo, th_hi), 48, _ROOT_CFG, all_roots=True):
        rho = _elias_x(theta, tau)
        if lo <= rho <= hi and abs(_guarded(f_rho, rho)) < 1e-10:
            roots.append(rho)
            thetas.append(theta)
    if not roots:
        raise BracketError(
            f"no sign change of the decoding-radius equation on [{lo}, {hi}]"
        )
    if len(roots) > 1 and max(roots) - min(roots) > 1e-8:
        raise BracketError(f"decoding-radius root not unique on [{lo}, {hi}]: {roots}")
    return roots[0], thetas[0]


@lru_cache(maxsize=256)
def _expurgation_angle(tau: float, ch: AwgnChannel) -> tuple[float, float]:
    """(theta_1, stationarity residual): the expurgation/straight-line
    boundary angle, memoized per (A, tau). It is all the expurgation regime
    of ``tradeoff_exponent`` needs."""
    A = ch.A

    def d_expurg(x):
        # Stationarity of ln sin(x) - (A/4)(1 - cos(x + 2 tau)), the exact
        # saddle-simplified expurgation integrand.
        xp = np if isinstance(x, np.ndarray) else math
        return xp.cos(x) / xp.sin(x) - (A / 4.0) * xp.sin(x + 2.0 * tau)

    roots = _scan_root(d_expurg, 1e-6, math.pi / 2.0 - 1e-6, 1024, _ROOT_CFG)
    if not roots:
        raise BracketError("expurgation-angle equation has no root in (0, pi/2)")
    return roots[0], d_expurg(roots[0])


@lru_cache(maxsize=256)
def spherical_landmarks(tau: float, ch: AwgnChannel) -> SphericalLandmarks:
    """Regime-boundary angles of the trade-off bound, memoized per (A, tau).

    R* is where the neighbor angle of the decoding radius reaches theta_1.
    In closed form, with x_1 = x(theta_1) from the inverse of the neighbor-
    angle equation (see ``elias_theta``), R* = -ln sin(theta_1) - 1/2 ln(1 -
    tan^2(theta_1/2 + tau) / tan^2 x_1). It is kept only if it lies in
    [1e-4, C - 1e-9] and ``decoding_radius(R*)`` reproduces x_1 within 1e-8;
    otherwise BracketError. ``residuals`` holds the stationarity residual at
    theta_1 and elias_theta(rho(R*)) - theta_1."""
    te, tc = shannon_angles(ch)
    theta_1, resid_t1 = _expurgation_angle(tau, ch)
    x_1 = _elias_x(theta_1, tau)
    r_star = -_guarded(lambda th: _radius_residual(th, x_1, 0.0, tau), theta_1)
    if not 1e-4 <= r_star <= ch.capacity - 1e-9:
        raise BracketError("no root for the straight-line/sphere-packing rate boundary")
    rho = decoding_radius(r_star, tau, ch)
    if abs(rho - x_1) > 1e-8:
        raise BracketError("no root for the straight-line/sphere-packing rate boundary")
    return SphericalLandmarks(
        theta_e=te,
        theta_c=tc,
        theta_1=theta_1,
        theta_2=theta_s(r_star),
        R_star=r_star,
        residuals={"theta_1": resid_t1, "R_star": elias_theta(rho, tau) - theta_1},
    )


def _phi0(theta: float, tau: float, ch: AwgnChannel) -> float:
    """Interior saddle angle of the pairwise-error integrand."""
    A = ch.A
    psi = theta + 2.0 * tau
    s2 = (4.0 + A * math.sin(psi) ** 2) / (2.0 * (2.0 + A + A * math.cos(psi)))
    return math.asin(math.sqrt(min(max(s2, 0.0), 1.0)))


def f_exponent(
    theta: float, tau: float, ch: AwgnChannel, rho: float
) -> tuple[float, float]:
    """(-1/n ln of the pairwise error probability, active saddle angle) for
    two codewords at angle theta under margin tau, errors capped at radius rho."""
    half = theta / 2.0 + tau
    if not half < rho < math.pi / 2.0:
        raise ValueError(f"require theta/2 + tau < rho < pi/2, got {half} vs {rho}")
    phi0 = _phi0(theta, tau, ch)
    if phi0 <= half:
        raise ValueError(f"saddle {phi0} at or below integration start {half}")
    phi = phi0 if phi0 < rho else rho
    t2 = math.tan(half) ** 2 / math.tan(phi) ** 2
    value = -0.5 * math.log(1.0 - t2) + esp(phi, ch)
    return value, phi


def tradeoff_exponent(
    R: float, ch: AwgnChannel, tau: float, kind: str = "error"
) -> SphericalBoundValue:
    """Trade-off lower bound M(R) on the undetected-error (kind="error") or
    erasure (kind="erasure", margin negated) exponent."""
    if kind not in ("error", "erasure"):
        raise ValueError(f"kind must be 'error' or 'erasure', got {kind}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    t = tau if kind == "error" else -tau
    if R <= 0.0 or R > ch.capacity + 1e-12:
        return SphericalBoundValue(
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
            return SphericalBoundValue(
                value, "expurgation", diagnostics={"theta_star": ts}
            )
        if ts > spherical_landmarks(t, ch).theta_2:
            value = (A / 4.0) * (1.0 - math.cos(theta_1 + 2.0 * t)) + math.log(
                math.sin(ts) / math.sin(theta_1)
            )
            return SphericalBoundValue(
                value, "straight", diagnostics={"theta_star": theta_1}
            )
        rho, theta_star = _radius_and_angle(R, t, ch)
        diag = {"rho": rho, "theta_star": theta_star}
    except (ValueError, BracketError) as exc:
        return SphericalBoundValue(0.0, "sphere-packing", valid=False, reason=str(exc))
    if rho < ch.capacity_angle - 1e-12:
        # Noise typically exceeds the radius: the tail term carries no
        # exponential decay and the bound degenerates.
        return SphericalBoundValue(
            0.0, "sphere-packing", valid=False, diagnostics=diag,
            reason=f"decoding radius {rho} below the capacity angle {ch.capacity_angle}",
        )
    return SphericalBoundValue(esp(rho, ch), "sphere-packing", diagnostics=diag)


@dataclass(frozen=True)
class DistanceProfile:
    """Exponential distance profile b(theta) with declared angular support."""

    b: Callable[[float], float]
    theta_min: float
    theta_max: float

    @classmethod
    def packing(cls, R: float) -> "DistanceProfile":
        """Profile R + ln sin theta of the uniform-measure packing of rate R."""
        tmin = theta_s(R)
        return cls(lambda th: R + math.log(math.sin(th)), tmin, math.pi - tmin)

    @classmethod
    def single_angle(cls, theta0: float, value: float = 0.0) -> "DistanceProfile":
        return cls(lambda th: value, theta0, theta0)


def _union_exponent(
    profile: DistanceProfile, pair, hi: float, rho: float, ch: AwgnChannel
) -> float:
    """The smaller of pair(theta) - b(theta) at its worst angle theta in
    [theta_min, hi] and the noise tail at radius rho."""
    lo = profile.theta_min
    if hi < lo:
        raise ValueError(f"empty angle range [{lo}, {hi}]")
    tail = _tail(rho, ch)

    def per_theta(th: float) -> float:
        return -profile.b(th) + pair(th)

    worst = per_theta(lo) if hi == lo else -maximize_unimodal(
        lambda th: -per_theta(th), RealInterval(lo, hi), points=2001
    )[1]
    return min(worst, tail)


def profile_exponent(
    profile: DistanceProfile, R: float, ch: AwgnChannel, tau: float, rho: float
) -> float:
    """Exponent of the distance-profile union bound: competition between the
    worst profile angle and the sphere-packing tail at radius rho, which must
    not lie below the capacity angle."""
    hi = min(profile.theta_max, 2.0 * (rho - tau) - 1e-9)
    return _union_exponent(profile, lambda th: f_exponent(th, tau, ch, rho)[0], hi, rho, ch)


def bounded_distance_exponent_s(
    profile: DistanceProfile, ch: AwgnChannel, tau: float, eps: float = 1e-4
) -> float:
    """Error exponent of bounded-distance decoding at angular radius tau; the
    tail is taken at pi/2 - tau - eps, the top of the angle range."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not profile.theta_min > 0.0:
        raise ValueError("profile must have positive minimum distance")
    hi = math.pi / 2.0 - tau - eps
    # The pair at angle 2(theta - tau), margin 0, errors capped at theta + tau.
    # sin^2 phi0 = 1 only at 2(theta - tau) = pi, so the saddle lies below
    # pi/2; where rounding puts it at pi/2 it is still past the cap.
    return _union_exponent(
        profile, lambda th: f_exponent(2.0 * (th - tau), 0.0, ch, th + tau)[0], hi, hi, ch
    )


def undetected_error_exponent(theta: float, tau: float) -> SphericalBoundValue:
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
        return SphericalBoundValue(
            0.0, "detection", valid=False, reason=f"first-order argument {arg} exceeds 1"
        )
    return SphericalBoundValue(-0.5 * math.log(arg), "detection")


def rankin_rate(theta: float) -> float:
    """Upper bound on the rate of a spherical code of distance theta."""
    if not 0.0 < theta <= math.pi / 2.0:
        raise ValueError(f"angle must lie in (0, pi/2], got {theta}")
    return -math.log(math.sqrt(2.0) * math.sin(theta / 2.0))
