"""Analysis kernel shared by all bound modules.

One copy of each shared piece: the value type of every bound on both channels
(``BoundValue``), bracketed root finding (``solve_bracketed``; every root in
the package is one such solve, on a bracket its caller knows to hold exactly
one root), the zooming-grid maximizer (``maximize_unimodal``; minimize by
negating), the binary entropy (elementwise on an array, like
``spherical.esp``) and its inverse, the log-factorial table behind every
log-binomial row (``_log2_factorials``, built once per n and kept, read-only,
for the last ``_MEMO_FACTORIALS`` lengths), the one builder of log2 binomial
pmf rows (``_log2_pmf_rows``: each row a few window reads of tables padded
with +inf past n, so an entry past m is exactly -inf) and overflow-safe
log-domain sums, of a sequence (``log_sum``) or of each row of a 2-D array
(``_row_log_sum``). The maximizer has the one
grid contract in the package: f is elementwise on arrays, and non-finite
values count as -inf. It calls f only on arrays, once per round: a guard grid
first, then a small grid over the two cells around the best point, until
they are ``_MAX_TOL`` wide. Both solvers take plain bounds lo < hi and run at
one tolerance each, a module constant: a root to ``_ROOT_TOL`` (1e-15), a
maximum to ``_MAX_TOL`` (1e-12), at most ``_MAX_ITER`` (200) steps or rounds.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "BoundValue",
    "BracketError",
    "ConvergenceError",
    "solve_bracketed",
    "maximize_unimodal",
    "binary_entropy",
    "entropy_inverse",
    "log_sum",
]

_MAX_POINTS = 2001  # guard grid of the maximizer's first round
_ZOOM_POINTS = 65  # points of each later round, over two cells of the last
# Bracket width at which a root solve stops. It puts the decoding radius rho
# within about 1e-15 / (pi/2 - rho) of its root (see ``spherical``).
_ROOT_TOL = 1e-15
_MAX_TOL = 1e-12  # width of the two cells at which the maximizer stops
_MAX_ITER = 200  # step (or round) cap of either solver
_MEMO_FACTORIALS = 8  # lengths n whose ``_log2_factorials`` tables are kept
LN2 = math.log(2.0)


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


@dataclass(frozen=True)
class BoundValue:
    """A bound's value and the regime that gave it, on either channel (BSC:
    "a", "b" or "c"; AWGN: expurgation, straight, sphere-packing or
    detection); ``valid=False`` comes with a ``reason``."""

    value: float
    regime: str
    valid: bool = True
    diagnostics: Optional[dict] = None
    reason: Optional[str] = None  # why the value is not valid


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on a sign-changing bracket by the Illinois rule (Dowell and
    Jarratt, BIT 11, 1971): one f call per step, at the regula falsi point or,
    when that is not strictly inside, the midpoint; an end kept a second step
    in a row has its stored f value halved. There is no bisection bound, and
    ``_MAX_ITER`` steps raise ConvergenceError. Returns an exact zero of f,
    else the ``hi`` end once the bracket is ``_ROOT_TOL`` wide or at float
    resolution, never below the root: ``elias_theta(pi/2, tau)`` is the
    float above pi/2, which ``spherical._elias_x`` maps back to pi/2.
    ValueError unless lo < hi are both finite."""
    _check_interval(lo, hi)
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on [{a}, {b}]: f(lo)={fa}, f(hi)={fb}")

    kept = ""  # the end the last step kept
    for _ in range(_MAX_ITER):
        if (b - a) <= _ROOT_TOL or not a < 0.5 * (a + b) < b:
            return b
        x = (a * fb - b * fa) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa, fb = x, fx, (0.5 * fb if kept == "b" else fb)
            kept = "b"
        else:
            b, fb, fa = x, fx, (0.5 * fa if kept == "a" else fa)
            kept = "a"
    raise ConvergenceError(
        f"max_iter={_MAX_ITER} exceeded, bracket [{a}, {b}] wider than {_ROOT_TOL}"
    )


def maximize_unimodal(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """(argmax, max) of an elementwise f on [lo, hi].

    f is only ever called on a 1-D float array and must return an array of
    the same shape; non-finite values count as -inf (NaN marks a point
    outside f's domain, +inf a pole or an overflow, neither a peak). The
    first round values a guard grid of ``_MAX_POINTS`` points in one call,
    which keeps the result robust when the caller cannot certify
    unimodality. Each later round values ``_ZOOM_POINTS`` evenly spaced
    points over the two cells around the round's best point, in one call,
    until those two cells are ``_MAX_TOL`` wide or ``_MAX_ITER`` rounds have
    run. The result is the best point seen in any round, so it is never
    below the guard grid's maximum; where every value is non-finite it is
    (lo, -inf). ValueError unless lo < hi are both finite.
    """
    _check_interval(lo, hi)
    xs = np.linspace(lo, hi, _MAX_POINTS)
    best_x, best_v = lo, -math.inf
    for _ in range(_MAX_ITER):
        with np.errstate(all="ignore"):
            vals = np.asarray(f(xs), dtype=float)
        vals = np.where(np.isfinite(vals), vals, -math.inf)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_x, best_v = xs[k], vals[k]
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]
        if b - a <= _MAX_TOL:
            break
        xs = np.linspace(a, b, _ZOOM_POINTS)
    return float(best_x), float(best_v)


def binary_entropy(x):
    """h(x) in bits; elementwise on an array, a float for a scalar. Every
    argument must lie in [0, 1], and h is 0 at both ends."""
    # A float skips the isinstance test: entropy_inverse calls h in its root
    # loop, about a dozen times per rate point of the binary bounds.
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


def entropy_inverse(y: float) -> float:
    """The branch of h^{-1}(y) in [0, 1/2], h in bits."""
    if y < 0.0 or y > 1.0:
        raise ValueError(f"entropy_inverse argument must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return solve_bracketed(lambda x: binary_entropy(x) - y, 0.0, 0.5)


@functools.lru_cache(maxsize=_MEMO_FACTORIALS)
def _log2_factorials(n: int) -> np.ndarray:
    """log2 k! for k = 0..n, read-only and kept for the last
    ``_MEMO_FACTORIALS`` lengths (8 (n + 1) bytes each; rebuilding one takes
    about 0.5 ms at n = 2048). Row m of log2 binomials is
    ``lf[m] - lf[:m + 1] - lf[m::-1]``."""
    lf = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1) / LN2
    lf.flags.writeable = False
    return lf


def _log2_pmf_rows(n: int, p: float) -> Callable[[np.ndarray, object, int], np.ndarray]:
    """Row builder of log2 binomial(m, p) pmfs, m <= n: ``rows(m, j0, width)``
    is the (len(m), width) array of log2 C(m, j) p^j (1 - p)^(m - j) at j =
    j0, ..., j0 + width - 1, for a 1-D integer array m, j0 a scalar or one
    per row with 0 <= j0 <= m + 1, and 0 <= width <= n + 1. An entry with
    j > m is exactly -inf.

    An entry is lf[m] - lf[j] - lf[m - j] + j lp + (m - j) lq, summed in that
    order (lf the log2 factorials, lp = log2 p, lq = log2(1 - p)): the large
    factorials cancel before the small terms are added. Past the per-row
    lf[m], each part is a contiguous run of a table: lf[j] and j lp from
    index j0, lf[m - j] and (m - j) lq from index n - m + j0 of the reversed
    tables. Each run is one row of a ``sliding_window_view``, read as a
    slice, and a scalar j0 shares its lf and j lp runs with every row. The
    factorial tables are +inf past index n, so j > m reads -inf with no clip
    or mask."""
    lf = _log2_factorials(n)
    lp, lq = math.log2(p), math.log2(1.0 - p)
    k = np.arange(2 * n + 2)
    tables = np.full((4, 2 * n + 2), math.inf)
    tables[0, : n + 1] = lf
    tables[1, : n + 1] = lf[::-1]
    np.multiply(k, lp, out=tables[2])
    np.multiply(n - k, lq, out=tables[3])
    fact, fact_rev, j_lp, rest_lq = sliding_window_view(tables, n + 1, axis=1)

    def rows(m: np.ndarray, j0, width: int) -> np.ndarray:
        rev = n - m + j0
        out = lf[m][:, None] - fact[j0, :width]
        out -= fact_rev[rev, :width]
        out += j_lp[j0, :width]
        out += rest_lq[rev, :width]
        return out

    return rows


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lb = math.log(base)
        out = shift + np.log(np.sum(np.exp((rows - shift[:, None]) * lb), axis=1)) / lb
    return np.where(finite, out, m)
