"""Exact finite-blocklength union bounds and an exact coset decoding oracle.

These are the numerical ground truth for the asymptotic modules: the binary
union bound dominates the exact margin-decoding oracle for every code, and
its normalized exponent converges to the asymptotic trade-off bounds. The
binary bound is one sum per weight, its inner sum being a binomial CDF
read from a prefix sum, both in the linear domain with one power-of-two
scale per row, and each pmf row read as windows of padded tables
(``numerics._log2_pmf_rows``), not element by element; the AWGN bound is
one midpoint-rule integral per present weight whose cone start theta_w / 2
+ tau lies below rho, its integrand written in t = tan phi so that a node
takes one tangent and no float64 sine or cosine, which cost about five
tangents each (a call takes 0.45 of the time of the rule written with
``esp`` at each node). Both read the spectrum by ``_present`` and evaluate
all weights at once as 2-D arrays, one row per weight, in blocks of at most
``_ROW_BUDGET`` elements (128 KB of float64 per intermediate, under twice
that for the binary bound's zero-padded CDF buffer), so their memory does
not grow with n; the AWGN bound sums each row by a row-wise log-sum-exp.
This module owns the binary code type, ``LinearCode``, its spectrum
``weight_distribution`` and every decision on its received words. Exact
binary decoding takes received words in one packed format, ``_words``:
info bits, then parity bits par, in the coset of syndrome par ^ su[info].
Each coset's two least weights come from one syndrome table, ``_cosets``,
built by one pass per parity bit once per code and kept for the last few
codes, and a call of the oracle only mixes the coset probabilities at its
p (``_coset_table``). The words of codes past the table's element budget
are decoded by ``_nearest`` from one streamed popcount walk, ``_walk``,
whose blocks ``weight_distribution`` also counts. ``_coset_weights`` gives
the BSC simulator (d1, d2) per received word and is the one place that
chooses between table and walk. One rule, ``_decided``, decides every
(d1, d2) pair of both channels, and one check, ``_margin``, admits every
Hamming margin t.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import LN2, _log2_factorials, _log2_pmf_rows, _row_log_sum, log_sum
from .spherical import AwgnChannel, _g_cos, _tail

__all__ = [
    "WeightDistribution",
    "MarginParams",
    "LinearCode",
    "gen_linear_code",
    "weight_distribution",
    "triangle_count",
    "binary_union_bound",
    "awgn_union_bound",
    "exact_margin_probability",
]


def _length(n: int) -> int:
    """The code length n, ValueError unless n >= 1."""
    if not n >= 1:
        raise ValueError(f"code length n must be at least 1, got {n}")
    return n


@dataclass(frozen=True)
class WeightDistribution:
    """Weight distribution of a length-n code, n >= 1, stored as log2 counts."""

    n: int
    log2_counts: tuple[float, ...]  # index w -> log2 A_w, -inf for absent weights

    def __post_init__(self) -> None:
        _length(self.n)
        if len(self.log2_counts) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} counts, got {len(self.log2_counts)}")

    @classmethod
    def from_counts(cls, counts) -> "WeightDistribution":
        """From the counts A_0..A_n, a zero marking an absent weight.
        ValueError for a negative or non-finite count, which would otherwise
        read as absent and silently lower a bound."""
        bad = [c for c in counts if not 0 <= c < math.inf]
        if bad:
            raise ValueError(f"weight counts must be finite and nonnegative, got {bad[0]}")
        arr = [math.log2(c) if c > 0 else -math.inf for c in counts]
        return cls(len(counts) - 1, tuple(arr))

    @classmethod
    def gv_ensemble(cls, n: int, rate_bits: float) -> "WeightDistribution":
        """Expected spectrum floor(C(n,w) 2^{-n(1-R)}) of the rate-R ensemble.
        ValueError unless 0 <= R <= 1 bits: past 1 the counts exceed C(n, w),
        below 0 they vanish and the bound reads a zero error probability."""
        if not 0.0 <= rate_bits <= 1.0:
            raise ValueError(f"rate must lie in [0, 1] bits, got {rate_bits}")
        lf = _log2_factorials(_length(n))
        la = (lf[n] - lf - lf[::-1]) - n * (1.0 - rate_bits)
        la[la < 0.0] = -math.inf  # floor() kills expected counts below one
        la[0] = 0.0
        return cls(n, tuple(la.tolist()))

    @classmethod
    def binomial_spherical(cls, n: int, rate_nats: float) -> "WeightDistribution":
        """Binomial Hamming spectrum of a rate-R (nats) binary spherical code.
        ValueError unless 0 <= R <= ln 2 nats."""
        if not 0.0 <= rate_nats <= LN2:
            raise ValueError(f"rate must lie in [0, ln 2] nats, got {rate_nats}")
        return cls.gv_ensemble(n, rate_nats / LN2)


def _margin(t) -> int:
    """The Hamming margin t as an int: ValueError unless t is a nonnegative
    integer. A numpy integer becomes an int, so 2t cannot wrap around."""
    try:
        t = operator.index(t)  # about 0.1 us; an isinstance check on numbers.Integral, 0.6
    except TypeError:
        raise ValueError(f"margin must be an integer, got {t!r}") from None
    if t < 0:
        raise ValueError(f"margin must be nonnegative, got {t}")
    return t


@dataclass(frozen=True)
class MarginParams:
    """Margin decoder parameters: the integer Hamming margin t. The union
    bound's decoding radius follows from it, d + 2t for the error bound and
    d - 2t for the erasure bound (d the minimum distance)."""

    t: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _margin(self.t))


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


def _present(wd: WeightDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The present weights w >= 1 of ``wd``, ascending, and their log2 A_w."""
    counts = np.fromiter(wd.log2_counts, float, wd.n + 1)
    w = np.flatnonzero(counts[1:] > -math.inf) + 1
    return w, counts[w]


_ROW_BUDGET = 1 << 14  # elements of one (weights x terms) block of the union bounds
_QUAD_POINTS = 2048  # midpoint-rule nodes per weight of ``awgn_union_bound``


def binary_union_bound(
    wd: WeightDistribution, p: float, m: MarginParams, mode: str = "error"
) -> float:
    """log2 of the finite-n union bound on the margin-decoding failure
    probability: codeword competition inside radius r plus the noise tail.

    mode="error" bounds the undetected-error probability, mode="erasure" the
    error-or-erasure probability (margin sign flipped). The radius is r = d +
    2t (d - 2t for erasure), clipped to [-1, n]; a code with no nonzero
    codeword has r = n and no tail.

    Weight w contributes A_w times a sum over i errors on its support; the
    sum over the j errors off it is a binomial(n - w, p) CDF. The weights are
    evaluated in blocks of rows of at most ``_ROW_BUDGET`` elements, in the
    linear domain with one scale per row: each row's pmf is taken relative
    to its value 2^top at its mode, or at the largest j the row reads if that
    comes first, and summed by a prefix sum into its CDF; its i-terms are
    taken relative to their maximum 2^lead, and the row's sum of i-term
    times CDF is one log2 away from the piece. Every pmf row, the tail's
    too, comes from ``numerics._log2_pmf_rows``: window reads of tables that
    are +inf past n, so an i-term past w reads exactly 0. The CDF rows are
    written reversed into a buffer whose columns past the CDF are 0, so the
    CDF at r - i, for i = lo.., is one window of that buffer per row, which
    reads 0 where i > r; the buffer's zero margin is less than the i-term
    width, so it holds under twice ``_ROW_BUDGET`` elements.

    The scaling loses nothing that shows. The i = lo term reads CDF(r - lo),
    the largest CDF entry the row reads and at least 2^top; its i-term is
    the row's largest, 2^lead, when lo lies at or past the binomial(w, p)
    mode, as it does in error mode and at t = 0. So what underflow takes
    from a CDF entry or an i-term is below 2^-1074 of CDF(r - lo) or of
    2^lead, and from every term that reads it, below 2^-1074 of the i = lo
    term. An erasure margin t > 0 can put lo up to t steps below the mode,
    which widens that factor by the pmf's ratio over those steps.
    """
    if mode not in ("error", "erasure"):
        raise ValueError(f"mode must be 'error' or 'erasure', got {mode}")
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 1/2), got {p}")
    n, t = wd.n, m.t
    sign = 1 if mode == "error" else -1
    w, law = _present(wd)
    r = max(min(int(w[0]) + sign * 2 * t, n), -1) if len(w) else n  # w[0]: the minimum distance

    pmf_rows = _log2_pmf_rows(n, p)
    # Present weights that admit i in [lo, hi].
    lo = np.maximum((w + 1) // 2 + sign * t, 0)
    hi = np.minimum(r, w)
    keep = lo <= hi
    w, law, lo, hi = w[keep], law[keep], lo[keep], hi[keep]
    off = n - w
    # Where each CDF row takes its scale: its mode floor((n - w + 1) p), or
    # r - lo, its last read entry, if that comes first.
    top_j = np.minimum(((off + 1) * p).astype(int), r - lo)
    width = int((r - lo).max(initial=0)) + 1  # hi <= r: the widest row is a CDF
    rows = max(1, _ROW_BUDGET // width)
    pieces = np.empty(len(w))
    for s in range(0, len(w), rows):
        b = slice(s, s + rows)
        at = np.arange(len(w[b]))
        # Binomial(n - w, p) CDFs at j = 0..kc - 1, over 2^top, reversed into
        # buf[:, :kc]; 0 past the pmf's last entry, j = n - w. A row never
        # reads its CDF past r - lo, so the overflow there goes unseen.
        kc = r - int(lo[b].min()) + 1
        ki = int((hi - lo)[b].max()) + 1
        log_pmf = pmf_rows(off[b], 0, kc)
        top = log_pmf[at, top_j[b]]
        log_pmf -= top[:, None]
        buf = np.zeros((len(at), kc + max(ki - 1 - r + int(lo[b].max()), 0)))
        with np.errstate(over="ignore"):
            np.cumsum(np.exp2(log_pmf, out=log_pmf), axis=1, out=buf[:, kc - 1 :: -1])
        # i errors on the codeword's support, i = lo..lo + ki - 1, over
        # 2^lead, times the CDF at r - i: buf from column kc - 1 - (r - lo).
        terms = pmf_rows(w[b], lo[b], ki)
        lead = terms.max(axis=1)
        terms -= lead[:, None]
        np.exp2(terms, out=terms)
        terms *= sliding_window_view(buf, ki, axis=1)[at, kc - 1 - r + lo[b]]
        pieces[b] = law[b] + lead + top + np.log2(terms.sum(axis=1))
    # Tail: error weight beyond the decoding radius.
    if r < n:
        pieces = np.append(pieces, log_sum(pmf_rows(np.array([n]), r + 1, n - r)))
    return log_sum(pieces)


def awgn_union_bound(
    hamming_wd: WeightDistribution,
    ch: AwgnChannel,
    tau: float,
    rho: float,
) -> float:
    """ln of the finite-n tangential-sphere style union bound for a binary
    spherical code with the given Hamming spectrum.

    Each present weight w whose cone start h = theta_w / 2 + tau lies below
    rho - 1e-12 contributes A_w times a ``_QUAD_POINTS``-node midpoint rule
    over phi from h to rho, of the cap area times the cone-exit density,

        P (tan phi / tan h) (1 - tan^2 h / tan^2 phi)^((n-1)/2) e^{-n esp(phi)},

    P the normalized cap-area prefactor. Each node takes one tangent,
    t = tan phi, and no sine or cosine: with c = cos phi = (1 + t^2)^(-1/2),
    sin phi = t c and 1 - c^2 sec^2 h = c^2 (t^2 - tan^2 h), so

        1 - tan^2 h / t^2 = (1 - c^2 sec^2 h) / (t c)^2,
        esp(phi) = A/2 - (sqrt(A)/2) g c - ln(g t c),

    g = (sqrt(A) c + sqrt(A c^2 + 4)) / 2 being the saddle factor
    (``spherical._g_cos``), and the log of the integrand is

        (n-1)/2 ln[(1 - c^2 sec^2 h) g^2] + ln(g c t^2) + n (sqrt(A)/2) g c
            + ln P - ln tan h - n A/2,

    the powers of t c cancelling but one. A node costs one tan, two square
    roots and two logs; a float64 sin or cos costs about five tans. At the
    cone start rounding can push 1 - c^2 sec^2 h to or below 0, which the
    log reads as -inf. The integrands are evaluated in blocks of
    ``_ROW_BUDGET // _QUAD_POINTS`` weights by ``_QUAD_POINTS`` nodes, so
    memory stays bounded at any n, and each row is summed by a row-wise
    log-sum-exp; the per-weight constants are added to the row sums. The
    tail beyond rho is ``spherical._tail``: ValueError below the capacity
    angle.
    """
    n = hamming_wd.n
    if not 0.0 < rho < math.pi / 2.0:
        raise ValueError(f"decoding radius must lie in (0, pi/2), got {rho}")
    if n < 2:
        raise ValueError(f"dimension n must be at least 2, got {n}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    tail = -n * _tail(rho, ch)
    # Present weights whose cone starts lie inside rho; the starts rise with w.
    w, law = _present(hamming_wd)
    half = np.array([math.acos(x) for x in (1.0 - 2.0 * w / n).tolist()]) / 2.0 + tau
    keep = half < rho - 1e-12
    w, law, half = w[keep], law[keep], half[keep]
    if len(half) and half[0] <= 0.0:
        raise ValueError(f"tau={tau} puts the cone start of weight {w[0]} at {half[0]} <= 0")
    # Normalized cap-area prefactor, exact to leading order.
    log_cap_pref = (
        math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0) - 0.5 * math.log(math.pi) - math.log(n - 1)
    )
    A = ch.A
    tan_half = np.array([math.tan(h) for h in half])
    sec2_half = 1.0 + tan_half * tan_half
    # Per weight: ln(A_w P / tan h) - n A / 2 and the log of the node spacing.
    const = law * LN2 + (log_cap_pref - n * A / 2.0) - np.log(tan_half)
    const += np.log((rho - half) / _QUAD_POINTS)
    coef_gc = n * math.sqrt(A) / 2.0
    frac = (np.arange(_QUAD_POINTS) + 0.5) / _QUAD_POINTS
    pieces = np.empty(len(half))
    rows = _ROW_BUDGET // _QUAD_POINTS
    for s in range(0, len(half), rows):
        b = slice(s, s + rows)
        h = half[b, None]
        t = np.tan(h + frac * (rho - h))
        t2 = t * t
        c2 = 1.0 / (1.0 + t2)
        c = np.sqrt(c2)
        g = _g_cos(c, A)
        gc = g * c
        with np.errstate(divide="ignore"):
            integrand = np.log(np.maximum(1.0 - c2 * sec2_half[b, None], 0.0) * (g * g))
        integrand *= (n - 1) / 2.0
        integrand += np.log(gc * t2)
        integrand += coef_gc * gc
        pieces[b] = const[b] + _row_log_sum(integrand, math.e)
    return log_sum(np.append(pieces, tail), base=math.e)


_BUDGET_BITS = 20  # log2 of the element budget of one intermediate array
_MEMO_CODES = 4  # codes whose p-free coset tables ``_cosets`` keeps
_MAX_K = 26  # largest k of a ``LinearCode``: its 2^k messages are enumerated
_COSETS_LOCK = threading.Lock()  # held while ``_coset_weights`` reads ``_cosets``


def _pack(bits) -> np.ndarray:
    """Pack a (B, m) 0/1 matrix into (B, max(1, ceil(m/64))) uint64 words;
    column j goes to bit j % 64 of word j // 64. B may be 0."""
    rows, m = np.shape(bits)
    padded = np.zeros((rows, 64 * max(1, -(-m // 64))), dtype=np.uint8)
    padded[:, :m] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(rows, padded.shape[1] // 64)


def _span(rows: np.ndarray) -> np.ndarray:
    """Entry u of the (2^m, W) result is the XOR of the word rows set in u."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    for i, row in enumerate(rows):
        out[1 << i : 2 << i] = out[: 1 << i] ^ row
    return out


@dataclass(frozen=True)
class LinearCode:
    """Systematic [n, k] binary linear code with generator [I | P]."""

    n: int
    k: int
    parity: tuple[tuple[int, ...], ...]  # k x (n - k)

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if self.k > _MAX_K:
            raise ValueError(f"k={self.k} exceeds enumeration guard {_MAX_K}")
        if len(self.parity) != self.k or any(len(r) != self.n - self.k for r in self.parity):
            raise ValueError("parity block must be k x (n - k)")

    @property
    def generator(self) -> np.ndarray:
        g = np.zeros((self.k, self.n), dtype=np.uint8)
        g[:, : self.k] = np.eye(self.k, dtype=np.uint8)
        g[:, self.k :] = np.asarray(self.parity, dtype=np.uint8).reshape(self.k, self.n - self.k)
        return g

    def codewords(self) -> np.ndarray:
        """All 2^k codewords as a (2^k, n) bit matrix, message order (the generator rows' span)."""
        words = _span(_pack(self.generator)).astype("<u8", copy=False)
        return np.unpackbits(words.view(np.uint8), axis=1, count=self.n, bitorder="little")


def gen_linear_code(n: int, k: int, seed: int) -> LinearCode:
    """Random systematic code, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    parity = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
    return LinearCode(n, k, tuple(tuple(int(b) for b in row) for row in parity))


def _syndrome_columns(code) -> np.ndarray:
    """Packed syndrome of each info coordinate of a systematic code, (k, W):
    its parity rows. A parity coordinate's syndrome is its own bit."""
    return _pack(np.reshape(code.parity, (code.k, code.n - code.k)))


def _words(code, bits) -> np.ndarray:
    """(B, 1 + W) received words of the systematic ``code`` from a (B, n) 0/1
    array: the k <= 64 info bits in column 0, then the packed parity bits."""
    return np.hstack([_pack(bits[:, : code.k]), _pack(bits[:, code.k :])])


def _walk(code, words: np.ndarray):
    """Distances popcount(info ^ u) + popcount(par ^ su[u]) from received
    ``words`` (``_words``) to each message u of the systematic ``code``, su[u]
    being the parity bits of u, as (rows, block) pairs: block[i] holds the
    distances from word rows.start + i to one chunk of the messages. The
    readers take minima and histograms, which need no message index. Each
    high-bit message pattern is XORed into the words, then the span of the
    low min(k, _BUDGET_BITS) bits. A block holds at most 2^_BUDGET_BITS
    elements (or one row) and is reused by the next."""
    info, par = words[:, 0], words[:, 1:]
    rows = _syndrome_columns(code)
    low = min(code.k, _BUDGET_BITS)
    low_par, low_msgs = _span(rows[:low]), np.arange(1 << low, dtype=np.uint64)
    step = max(1, (1 << _BUDGET_BITS) >> low)
    buf = np.empty((min(step, len(info)), 1 << low), dtype=np.uint16)
    for high, high_par in enumerate(_span(rows[low:])):
        info_h, par_h = info ^ np.uint64(high << low), par ^ high_par
        for lo in range(0, len(info), step):
            block = buf[: min(step, len(info) - lo)]
            np.bitwise_count(info_h[lo : lo + step, None] ^ low_msgs, out=block)
            for w in range(low_par.shape[1]):
                block += np.bitwise_count(par_h[lo : lo + step, w, None] ^ low_par[:, w])
            yield slice(lo, lo + step), block


def _nearest(code, words: np.ndarray):
    """Per received word of ``_walk``: the least distance d1 to a codeword
    and the runner-up d2 (a tie gives d2 = d1), reduced block by block. With
    one codeword (k = 0) d2 is 2^16 - 1."""
    d1, d2 = np.full((2, len(words)), 0xFFFF, dtype=np.uint16)
    for rows, block in _walk(code, words):
        at = np.arange(len(block)), block.argmin(axis=1)
        b1, a1 = block[at], d1[rows]
        block[at] = 0xFFFF
        d2[rows] = np.minimum(np.minimum(d2[rows], block.min(axis=1)), np.maximum(a1, b1))
        d1[rows] = np.minimum(a1, b1)
    return d1, d2


def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact weight distribution: the histogram of the walk's distances from the zero word."""
    blocks = _walk(code, _words(code, np.zeros((1, code.n))))
    counts = sum(np.bincount(block[0], minlength=code.n + 1) for _, block in blocks)
    return WeightDistribution.from_counts(counts.tolist())


def _decided(d1, d2, margin, lone: bool) -> np.ndarray:
    """The margin rule on (least, runner-up) distance pairs: decoded when the
    runner-up is farther by at least ``margin``, and strictly, so ties erase.
    The one word of a ``lone`` code has no runner-up and always wins."""
    return (d2 - d1 >= margin) & (d2 > d1) | lone


def _tabulable(code) -> bool:
    """Whether the coset table (``_cosets``) fits the element budget:
    2^(n-k) syndromes and 2^k messages."""
    return max(code.n - code.k, code.k) <= _BUDGET_BITS


@functools.lru_cache(maxsize=_MEMO_CODES)
def _cosets(code):
    """The p-free part of the coset table of a ``LinearCode`` (hashable by
    value), built once per code and kept for the last ``_MEMO_CODES`` codes,
    every array read-only: su[u] (uint32, the parity bits of message u), the
    two least weights d1, d2 of each coset (uint8, n <= 40; a tie gives d2 =
    d1, a one-word coset of k = 0 has d2 = 2n + 1) indexed by the syndrome
    (parity position j -> bit j), and the runs of equal (syndrome, weight)
    keys of the messages: syndromes, weights and counts.

    A coset's weights are wt(u) + popcount(s ^ su[u]) over the messages u: a
    min-plus XOR convolution that splits by coordinate. It starts from the
    two least wt(u) per info syndrome su[u] and takes one pass per parity
    bit i, merging each syndrome s with its partner s ^ 2^i one weight up."""
    k, m = code.k, code.n - code.k
    su = _span(_syndrome_columns(code))[:, 0].astype(np.uint32)
    # Sorted (su, wt) keys list each syndrome's messages lightest first: its
    # first entry holds d1 and its second, if any, d2. Keys stay below 2^25.
    shift = k.bit_length()
    key = np.sort(su << shift | np.bitwise_count(np.arange(1 << k, dtype=np.uint32)))
    s, w = key >> shift, key & ((1 << shift) - 1)
    first = np.ones(len(key), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    second = np.zeros_like(first)
    np.greater(first[:-1], first[1:], out=second[1:])
    d = np.full((2, 1 << m), 2 * code.n + 1, dtype=np.uint8)  # rows d1, d2
    d[0, s[first]], d[1, s[second]] = w[first], w[second]
    for i in range(m):
        # Axis 2 of the (2, -1, 2, 2^i) view is bit i; reversing it pairs s with s ^ 2^i.
        a = d.reshape(2, -1, 2, 1 << i)
        b = a[:, :, ::-1] + 1
        low = np.minimum(a, b)  # d1, and min(d2, partner's d2 + 1)
        np.minimum(low[1], np.maximum(a[0], b[0]), out=low[1])
        d = low.reshape(2, -1)
    # Runs of equal keys: at most k + 1 per syndrome.
    edge = np.ones(len(key) + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=edge[1:-1])
    run = np.flatnonzero(edge)
    memo = su, d[0], d[1], s[run[:-1]], w[run[:-1]].astype(np.uint8), np.diff(run).astype(np.uint32)
    for a in memo:
        a.flags.writeable = False
    return memo


def _coset_table(code, p: float):
    """(d1, d2) from ``_cosets`` and each coset's probability on the BSC,
    the part that depends on p: count * p^wt (1-p)^(k-wt) summed over the
    runs of each info syndrome, then mixed by one pass per parity bit."""
    k, m = code.k, code.n - code.k
    _, d1, d2, s, w, count = _cosets(code)
    pw = p ** np.arange(k + 1) * (1.0 - p) ** np.arange(k, -1, -1)
    prob = np.bincount(s, weights=count * pw[w], minlength=1 << m)
    for i in range(m):
        f = prob.reshape(-1, 2, 1 << i)
        prob = ((1.0 - p) * f + p * f[:, ::-1]).reshape(-1)
    return d1, d2, prob


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and each row's index among them:
    ``np.unique(rows, axis=0, return_inverse=True)`` by one lexsort."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(rows), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return ranked[new], which


def _coset_weights(code: LinearCode, words: np.ndarray):
    """(d1, d2) of each received word (``_words``): the two least weights of
    its coset, read from the coset table at syndrome par ^ su[info] while
    ``_tabulable`` holds; past that budget ``_nearest`` runs once per
    distinct word and its pairs are scattered back. Simulation threads that
    start on a cold table wait for one build, not one each."""
    if _tabulable(code):
        with _COSETS_LOCK:
            su, d1, d2, *_ = _cosets(code)
        s = words[:, 1] ^ su[words[:, 0]]
        return d1[s], d2[s]
    distinct, which = _unique_rows(words)
    d1, d2 = _nearest(code, distinct)
    return d1[which], d2[which]


def exact_margin_probability(code, p: float, t: int) -> tuple[float, float, float]:
    """Exact (P_correct, P_undetected, P_erasure) of margin decoding on the BSC
    with the all-zero codeword sent, summed over the 2^(n-k) cosets of the
    syndrome table: a coset is decoded when its two least weights differ by
    max(2t, 1), and then only its leader decodes correctly. ``code`` is a
    ``LinearCode`` (hashable: its p-free table is kept by ``_cosets``, so a
    sweep over p and t builds it once) with n - k <= _BUDGET_BITS and k <=
    _BUDGET_BITS."""
    n, k = code.n, code.k
    if not _tabulable(code):
        raise ValueError(
            f"exact oracle limited to n - k <= {_BUDGET_BITS}, k <= {_BUDGET_BITS}, got ({n}, {k})"
        )
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {p}")
    t = _margin(t)
    d1, d2, coset = _coset_table(code, p)
    decoded = _decided(d1, d2, 2 * t, k == 0)
    prob_w = p ** np.arange(n + 1) * (1.0 - p) ** np.arange(n, -1, -1)
    leader = prob_w[d1]
    # Rounding can leave a coset's sum a few ulps off its leader's term: below
    # it anywhere, above it in the one-word cosets of k = 0, where no other
    # word can be decoded.
    p_und = np.maximum(coset - leader, 0.0)[decoded].sum() if k else 0.0
    # Pairwise sums, not BLAS dots: over 2^20 cosets a dot gives P_correct = 1 + 1.6e-13.
    return float(leader[decoded].sum()), float(p_und), float(coset[~decoded].sum())
