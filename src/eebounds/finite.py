"""Exact finite-blocklength union bounds and an exact coset decoding oracle.

These are the numerical ground truth for the asymptotic modules: the binary
union bound dominates the exact margin-decoding oracle for every code, and
its normalized exponent converges to the asymptotic trade-off bounds. The
binary bound is one log-domain sum per weight, its inner sum being a
binomial CDF read from a prefix log-sum-exp; the AWGN bound is one
midpoint-rule integral per weight. Both bounds evaluate all weights at once
as 2-D arrays, one row per weight, in blocks of at most ``_ROW_BUDGET``
elements (128 KB of float64 per intermediate), so their memory does not grow
with n, and sum each row by a row-wise log-sum-exp.
All exact binary decoding, here and in ``simulate``, goes through the popcount
kernel ``_distances``, run on coset representatives by the oracle and the BSC
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import LN2, _log2_factorials, _log2_pmf, _row_log_sum, log_sum
from .spherical import AwgnChannel, _tail, esp

__all__ = [
    "WeightDistribution",
    "MarginParams",
    "triangle_count",
    "binary_union_bound",
    "awgn_union_bound",
    "exact_margin_probability",
]


@dataclass(frozen=True)
class WeightDistribution:
    """Weight distribution of a length-n code, stored as log2 counts."""

    n: int
    log2_counts: tuple[float, ...]  # index w -> log2 A_w, -inf for absent weights

    def __post_init__(self) -> None:
        if len(self.log2_counts) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} counts, got {len(self.log2_counts)}")

    @classmethod
    def from_counts(cls, counts) -> "WeightDistribution":
        arr = [math.log2(c) if c > 0 else -math.inf for c in counts]
        return cls(len(counts) - 1, tuple(arr))

    @classmethod
    def gv_ensemble(cls, n: int, rate_bits: float) -> "WeightDistribution":
        """Expected spectrum floor(C(n,w) 2^{-n(1-R)}) of the rate-R ensemble."""
        lf = _log2_factorials(n)
        la = (lf[n] - lf - lf[::-1]) - n * (1.0 - rate_bits)
        la[la < 0.0] = -math.inf  # floor() kills expected counts below one
        la[0] = 0.0
        return cls(n, tuple(float(x) for x in la))

    @classmethod
    def binomial_spherical(cls, n: int, rate_nats: float) -> "WeightDistribution":
        """Binomial Hamming spectrum of a rate-R (nats) binary spherical code."""
        return cls.gv_ensemble(n, rate_nats / LN2)

    @property
    def min_distance(self) -> Optional[int]:
        for w in range(1, self.n + 1):
            if self.log2_counts[w] > -math.inf:
                return w
        return None


@dataclass(frozen=True)
class MarginParams:
    """Margin decoder parameters: integer Hamming margin t, optional
    decoding-radius override r (default d +/- 2t)."""

    t: int = 0
    r: Optional[int] = None

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"margin must be nonnegative, got {self.t}")


def triangle_count(n: int, k: int, i: int, j: int) -> int:
    """Number of points at distance i from x and j from y when d(x, y) = k."""
    if min(n, k, i, j) < 0 or max(k, i, j) > n:
        return 0
    two_s = k + i - j
    if two_s < 0 or two_s % 2 != 0:
        return 0
    s = two_s // 2
    if s > k or s > i or i - s > n - k:
        return 0
    return math.comb(k, s) * math.comb(n - k, i - s)


_ROW_BUDGET = 1 << 14  # elements of one (weights x terms) block of the union bounds


def binary_union_bound(
    wd: WeightDistribution, p: float, m: MarginParams, mode: str = "error"
) -> float:
    """log2 of the finite-n union bound on the margin-decoding failure
    probability: codeword competition inside radius r plus the noise tail.

    mode="error" bounds the undetected-error probability, mode="erasure" the
    error-or-erasure probability (margin sign flipped).

    Weight w contributes A_w times a sum over i errors on its support; the
    sum over the j errors off it is a binomial(n - w, p) CDF. The weights are
    evaluated in blocks of rows of at most ``_ROW_BUDGET`` elements: one
    prefix log-sum-exp along each row gives the CDFs, and each row's i-terms
    are gathered from its CDF and reduced by a row-wise log-sum-exp.
    """
    if mode not in ("error", "erasure"):
        raise ValueError(f"mode must be 'error' or 'erasure', got {mode}")
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 1/2), got {p}")
    n, t = wd.n, m.t
    sign = 1 if mode == "error" else -1
    lp, lq = math.log2(p), math.log2(1.0 - p)
    d = wd.min_distance

    if m.r is not None:
        r = m.r
    elif d is None:
        r = n  # no competing codeword: only the (empty) tail remains
    else:
        r = d + sign * 2 * t
    r = max(min(r, n), -1)

    lf = _log2_factorials(n)
    # Weights w >= 1 that are present and admit i in [lo, hi].
    counts = np.asarray(wd.log2_counts)
    w = np.arange(1, n + 1)
    lo = np.maximum((w + 1) // 2 + sign * t, 0)
    hi = np.minimum(r, w)
    keep = (counts[1:] > -math.inf) & (lo <= hi)
    w, lo, hi = w[keep], lo[keep], hi[keep]
    off = n - w
    last = np.minimum(r - lo, off)  # largest CDF argument a row reads
    width = int(max(last.max(initial=0), (hi - lo).max(initial=0))) + 1
    rows = max(1, _ROW_BUDGET // width)
    pieces = np.empty(len(w))
    for s in range(0, len(w), rows):
        b = slice(s, s + rows)
        mb, wb = off[b, None], w[b, None]
        # Binomial(n - w, p) CDFs at j = 0..last. Past a row's last, j is
        # clipped to keep the indices valid; those prefix sums are never read.
        jc = np.minimum(np.arange(int(last[b].max()) + 1), last[b, None])
        log_pmf = _log2_pmf(lf, mb, jc, lp, lq)
        log_cdf = np.logaddexp2.accumulate(log_pmf, axis=1)
        # i errors on the codeword's support, i = lo..hi, and the CDF at
        # min(r - i, n - w); -inf past each row's hi.
        i = lo[b, None] + np.arange(int((hi - lo)[b].max()) + 1)
        ic = np.minimum(i, hi[b, None])
        terms = _log2_pmf(lf, wb, ic, lp, lq)
        terms += np.take_along_axis(log_cdf, np.minimum(r - ic, mb), axis=1)
        terms[i > hi[b, None]] = -math.inf
        pieces[b] = counts[w[b]] + _row_log_sum(terms)
    # Tail: error weight beyond the decoding radius.
    if r < n:
        es = np.arange(r + 1, n + 1)
        pieces = np.append(pieces, log_sum(_log2_pmf(lf, n, es, lp, lq)))
    return log_sum(pieces)


def awgn_union_bound(
    hamming_wd: WeightDistribution,
    ch: AwgnChannel,
    tau: float,
    rho: float,
    quad_points: int = 2048,
) -> float:
    """ln of the finite-n tangential-sphere style union bound for a binary
    spherical code with the given Hamming spectrum.

    Weight w contributes A_w times a ``quad_points``-node midpoint rule over
    the cone angles from its cone start theta_w / 2 + tau to rho. The
    integrands are evaluated in blocks of ``_ROW_BUDGET // quad_points``
    weights (at least one) by ``quad_points`` nodes, so memory stays bounded
    at any n, and each row is summed by a row-wise log-sum-exp. The tail
    beyond rho is ``spherical._tail``: ValueError below the capacity angle.
    """
    n = hamming_wd.n
    if not 0.0 < rho < math.pi / 2.0:
        raise ValueError(f"decoding radius must lie in (0, pi/2), got {rho}")
    if quad_points < 1:
        raise ValueError(f"quad_points must be at least 1, got {quad_points}")
    if n < 2:
        raise ValueError(f"dimension n must be at least 2, got {n}")
    tail = -n * _tail(rho, ch)
    d = hamming_wd.min_distance
    # (log2 A_w, cone start) of the present weights whose cone starts inside rho.
    cones = []
    if d is not None:
        w_hi = min(n, math.floor(n * (1.0 - math.cos(2.0 * rho)) / 2.0))
        for w in range(d, w_hi + 1):
            half = math.acos(1.0 - 2.0 * w / n) / 2.0 + tau
            if hamming_wd.log2_counts[w] > -math.inf and half < rho - 1e-12:
                if half <= 0.0:
                    raise ValueError(f"tau={tau} puts the cone start of weight {w} at {half} <= 0")
                cones.append((hamming_wd.log2_counts[w], half))
    law, half = np.array(cones).reshape(-1, 2).T
    # Normalized cap-area prefactor, exact to leading order.
    log_cap_pref = (
        math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0) - 0.5 * math.log(math.pi) - math.log(n - 1)
    )
    tan_half = np.array([math.tan(h) for h in half])
    log_step = np.array([math.log((rho - h) / quad_points) for h in half])
    nodes = np.arange(quad_points) + 0.5
    pieces = np.empty(len(half))
    rows = max(1, _ROW_BUDGET // quad_points)
    for s in range(0, len(half), rows):
        b = slice(s, s + rows)
        h = half[b, None]
        phis = h + nodes * (rho - h) / quad_points
        tan_ratio = tan_half[b, None] / np.tan(phis)
        sin_x = np.sqrt(np.maximum(1.0 - tan_ratio**2, 0.0))
        with np.errstate(divide="ignore"):
            log_omega = log_cap_pref + (n - 1) * np.log(sin_x) - np.log(tan_ratio)
        integrand = log_omega - n * esp(phis, ch)
        pieces[b] = law[b] * LN2 + (_row_log_sum(integrand, math.e) + log_step[b])
    return log_sum(np.append(pieces, tail), base=math.e)


_BUDGET_BITS = 20  # log2 of the element budget of one intermediate array


def _pack(bits) -> np.ndarray:
    """Pack a (B, m) 0/1 matrix into (B, max(1, ceil(m/64))) uint64 words;
    column j goes to bit j % 64 of word j // 64."""
    rows, m = np.shape(bits)
    padded = np.zeros((rows, max(1, -(-m // 64)) * 64), dtype=np.uint64)
    padded[:, :m] = bits
    shifted = padded.reshape(rows, -1, 64) << np.arange(64, dtype=np.uint64)
    return shifted.sum(axis=2, dtype=np.uint64)


def _span(rows: np.ndarray) -> np.ndarray:
    """Entry u of the (2^m, W) result is the XOR of the word rows set in u."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    for i, row in enumerate(rows):
        out[1 << i : 2 << i] = out[: 1 << i] ^ row
    return out


def _syndrome_columns(code) -> np.ndarray:
    """Packed syndrome of each coordinate of a systematic code, (n, W): the k
    parity rows, then unit vectors for the n - k parity positions."""
    parity = np.asarray(code.parity, dtype=np.uint64).reshape(code.k, code.n - code.k)
    return _pack(np.vstack([parity, np.eye(code.n - code.k, dtype=np.uint64)]))


def _distances(code, info: np.ndarray, par: np.ndarray) -> np.ndarray:
    """Distances (B, 2^k) from words with info bits ``info`` (B,) and packed
    parity bits ``par`` (B, W) to every codeword of the systematic ``code``, in
    message order: popcount(info ^ u) + popcount(par ^ su[u]), su[u] being the
    parity bits of u. Chunks hold 2^_BUDGET_BITS elements (or one row)."""
    su = _span(_syndrome_columns(code)[: code.k])
    msgs = np.arange(len(su), dtype=np.uint64)
    out = np.empty((len(info), len(su)), dtype=np.uint16)
    step = max(1, (1 << _BUDGET_BITS) >> code.k)
    for lo in range(0, len(info), step):
        block = out[lo : lo + step]
        np.bitwise_count(info[lo : lo + step, None] ^ msgs, out=block)
        for w in range(su.shape[1]):
            block += np.bitwise_count(par[lo : lo + step, w, None] ^ su[:, w])
    return out


def _decide(dist: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the least distance, and whether the runner-up is farther by at
    least ``margin`` and strictly, so ties erase. A lone codeword always wins."""
    if dist.shape[1] == 1:
        return dist[:, 0], np.ones(len(dist), dtype=bool)
    part = np.partition(dist, 1, axis=1)
    return part[:, 0], (part[:, 1] - part[:, 0] >= margin) & (part[:, 1] > part[:, 0])


def exact_margin_probability(code, p: float, t: int) -> tuple[float, float, float]:
    """Exact (P_correct, P_undetected, P_erasure) of margin decoding on the BSC
    with the all-zero codeword sent, summed over the 2^(n-k) cosets: a coset is
    decoded when its two least weights differ by max(2t, 1), and then only its
    leader decodes correctly. Requires n <= 16, k <= 10 and a systematic
    ``code`` exposing ``n``, ``k`` and ``parity``."""
    n, k = code.n, code.k
    if n > 16 or k > 10:
        raise ValueError(f"exhaustive oracle limited to n <= 16, k <= 10, got ({n}, {k})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {p}")
    if t < 0:
        raise ValueError(f"margin must be nonnegative, got {t}")
    cosets = np.arange(1 << (n - k), dtype=np.uint64)
    dist = _distances(code, np.zeros_like(cosets), cosets[:, None])
    d1, decoded = _decide(dist, 2 * t)
    prob_w = p ** np.arange(n + 1) * (1.0 - p) ** np.arange(n, -1, -1)
    leader, coset = prob_w[d1], prob_w[dist].sum(axis=1)
    p_correct, p_und = leader[decoded].sum(), (coset - leader)[decoded].sum()
    return float(p_correct), float(p_und), float(coset[~decoded].sum())
