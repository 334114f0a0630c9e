"""Analysis kernel shared by all bound modules.

One copy of each shared piece: the value type of every bound on both channels
(``BoundValue``), bracketed root finding and the sign scan that feeds it
(``_scan_root``), the grid-then-golden maximizer (``maximize_unimodal``;
minimize by negating), the binary entropy (elementwise on an array, like
``spherical.esp``) and its inverse, the log-factorial table behind every
log-binomial row (``_log2_factorials``), the one log2 binomial pmf term
(``_log2_pmf``) and overflow-safe log-domain sums, of a sequence (``log_sum``)
or of each row of a 2-D array (``_row_log_sum``). The root scan evaluates its
grid by one call of an elementwise function and skips grid points where it is not finite (NaN on an
array where the float path would raise); the maximizer's guard grid calls its
scalar function per point and counts a raise as -inf.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "BoundValue",
    "RealInterval",
    "SolverConfig",
    "BracketError",
    "ConvergenceError",
    "solve_bracketed",
    "maximize_unimodal",
    "binary_entropy",
    "entropy_inverse",
    "log_sum",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LN2 = math.log(2.0)


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


@dataclass(frozen=True)
class BoundValue:
    """A bound's value and the regime that gave it, on either channel;
    ``valid=False`` comes with a ``reason``."""

    value: float
    regime: str
    valid: bool = True
    diagnostics: Optional[dict] = None
    reason: Optional[str] = None  # why the value is not valid


@dataclass(frozen=True)
class RealInterval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SolverConfig:
    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def solve_bracketed(
    f: Callable[[float], float],
    interval: RealInterval,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Root of f on a sign-changing bracket.

    Bisection with a secant acceleration step; the secant proposal is only
    accepted when it falls strictly inside the current bracket, so the
    bisection contract (bracket width halves at least every other step)
    is preserved.
    """
    a, b = interval.lo, interval.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on [{a}, {b}]: f(lo)={fa}, f(hi)={fb}")

    for _ in range(cfg.max_iter):
        width = b - a
        # Secant proposal; fall back to the midpoint when degenerate.
        denom = fb - fa
        x = 0.5 * (a + b)
        if denom != 0.0:
            xs = b - fb * (b - a) / denom
            if a < xs < b:
                x = xs
        fx = f(x)
        if fx == 0.0 or (b - a) <= cfg.abs_tol:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
        # Guard against stagnating secant steps: force a bisection whenever
        # the bracket did not at least halve this iteration.
        if (b - a) > 0.5 * width:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                return mid  # bracket at floating-point resolution
            fm = f(mid)
            if fm == 0.0:
                return mid
            if math.copysign(1.0, fm) == math.copysign(1.0, fa):
                a, fa = mid, fm
            else:
                b, fb = mid, fm
        if (b - a) <= cfg.abs_tol or not a < 0.5 * (a + b) < b:
            return 0.5 * (a + b)
    raise ConvergenceError(
        f"max_iter={cfg.max_iter} exceeded, bracket [{a}, {b}] wider than {cfg.abs_tol}"
    )


def _guarded(f: Callable[[float], float], x: float, fill: float = math.nan) -> float:
    """f(x), or ``fill`` where f raises ValueError (BracketError too) or ZeroDivisionError."""
    try:
        return f(x)
    except (ValueError, ZeroDivisionError):
        return fill


def _scan_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: int,
    cfg: SolverConfig,
    all_roots: bool = False,
) -> list[float]:
    """Roots of f on [lo, hi]: a sign scan over ``points`` grid points, each
    sign change refined by ``solve_bracketed``.

    f is elementwise: the grid is evaluated by one call on the ndarray of its
    points, and the refinement calls f on floats. Where the float path would
    raise, the array path gives NaN; non-finite grid values count as NaN, and
    cells touching one are skipped. The two paths may round differently:
    a cell whose float end values raise is skipped too, and one whose float
    end values share a sign gives the end nearer zero, a root to within
    rounding. Stops at the first root unless ``all_roots``."""
    xs = np.linspace(lo, hi, points)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(xs), dtype=float)
    vals = np.where(np.isfinite(vals), vals, np.nan)
    v0, v1 = vals[:-1], vals[1:]
    cells = np.flatnonzero(~np.isnan(v0) & ~np.isnan(v1) & ((v0 == 0.0) | (v0 * v1 < 0.0)))
    roots: list[float] = []
    for i in cells:
        a, b = float(xs[i]), float(xs[i + 1])
        if v0[i] == 0.0:
            roots.append(a)
        else:
            try:
                roots.append(solve_bracketed(f, RealInterval(a, b), cfg))
            except (ValueError, ZeroDivisionError):  # BracketError too
                fa, fb = _guarded(f, a), _guarded(f, b)
                if not (math.isfinite(fa) and math.isfinite(fb)):
                    continue
                if fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0):
                    raise  # raised inside the cell
                roots.append(a if abs(fa) <= abs(fb) else b)
        if roots and not all_roots:
            break
    if (all_roots or not roots) and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def maximize_unimodal(
    f: Callable[[float], float],
    interval: RealInterval,
    cfg: SolverConfig = SolverConfig(),
    points: int = 64,
) -> tuple[float, float]:
    """(argmax, max) of f on the interval.

    A guard scan over ``points`` grid points locates the coarse peak first,
    golden-section then refines inside the surrounding grid cell. The scan
    makes the result robust when the caller cannot certify unimodality.
    Grid points and probes where f raises count as -inf.
    """

    def g(x: float) -> float:
        return _guarded(f, x, -math.inf)

    xs = np.linspace(interval.lo, interval.hi, points)
    vals = np.array([g(float(x)) for x in xs], dtype=float)
    k = int(np.argmax(vals))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]

    # Golden-section on [a, b].
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(cfg.max_iter):
        if (b - a) <= cfg.abs_tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = g(x2)
        elif f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = g(x1)
        else:
            # Exact tie: a flat plateau around the peak. Shrink both ends so
            # the bracket stays centered instead of drifting to one edge.
            a, b = x1, x2
            x1 = b - _INV_GOLDEN * (b - a)
            x2 = a + _INV_GOLDEN * (b - a)
            f1, f2 = g(x1), g(x2)
    xm = 0.5 * (a + b)
    fm = g(xm)
    # The guard-scan maximum can still win for very flat or spiky functions.
    if vals[k] > fm:
        return float(xs[k]), float(vals[k])
    return float(xm), float(fm)


def binary_entropy(x):
    """h(x) in bits; elementwise on an array, a float for a scalar. Every
    argument must lie in [0, 1], and h is 0 at both ends."""
    # A float skips the isinstance test: entropy_inverse calls h in its root
    # loop, about a hundred times per rate point of the binary bounds.
    if type(x) is not float and isinstance(x, np.ndarray):
        if x.size and not 0.0 <= x.min() <= x.max() <= 1.0:
            raise ValueError(f"entropy argument must lie in [0, 1], got {x.min()}..{x.max()}")
        with np.errstate(divide="ignore", invalid="ignore"):
            hx = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
        return np.where((x == 0.0) | (x == 1.0), 0.0, hx)
    if x < 0.0 or x > 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_inverse(y: float, cfg: SolverConfig = SolverConfig(abs_tol=1e-15)) -> float:
    """The branch of h^{-1}(y) in [0, 1/2], h in bits."""
    if y < 0.0 or y > 1.0:
        raise ValueError(f"entropy_inverse argument must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return solve_bracketed(lambda x: binary_entropy(x) - y, RealInterval(0.0, 0.5), cfg)


def _log2_factorials(n: int) -> np.ndarray:
    """log2 k! for k = 0..n. Row m of log2 binomials is
    ``lf[m] - lf[:m + 1] - lf[m::-1]``."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1) / LN2


def _log2_pmf(lf: np.ndarray, m, j, lp: float, lq: float):
    """log2 of the binomial(m, p) pmf at j, from ``lf = _log2_factorials(N)``
    (N >= m), lp = log2 p and lq = log2(1 - p); elementwise on index arrays."""
    return lf[m] - lf[j] - lf[m - j] + j * lp + (m - j) * lq


def log_sum(values: Sequence[float], base: float = 2.0) -> float:
    """log of a sum given in log domain, overflow-safe.

    Default base 2 matches the bit-domain bounds; pass base=math.e for the
    nats-domain spherical sums.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    return float(_row_log_sum(arr.reshape(1, -1), base)[0])


def _row_log_sum(rows: np.ndarray, base: float = 2.0) -> np.ndarray:
    """``log_sum`` of each row of a 2-D array: a row whose maximum is not
    finite gives that maximum, and -inf entries (padding) add nothing."""
    m = rows.max(axis=1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    lb = math.log(base)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = shift + np.log(np.sum(np.exp((rows - shift[:, None]) * lb), axis=1)) / lb
    return np.where(finite, out, m)
