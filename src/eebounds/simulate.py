"""Seeded Monte Carlo simulation of the margin decoder over BSC and AWGN.

Trials are processed in fixed-size blocks; block b draws from an RNG seeded
by (seed, b), so tallies are identical for any worker count. Each simulator
does only the work its decision needs. BSC trials are classified by the
syndrome of the error pattern with the same coset kernel as the exact oracle
in ``finite``, run once per distinct syndrome of a block. An AWGN trial is
decided from its two largest inner products with the codebook. A cone-exit
trial draws only its sufficient statistic: the noise along the signal and the
chi-square energy of the rest.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .finite import WeightDistribution, _decide, _distances, _pack, _span, _syndrome_columns
from .spherical import AwgnChannel

__all__ = [
    "LinearCode",
    "SphericalCodebook",
    "TrialTally",
    "RegressionResult",
    "gen_linear_code",
    "weight_distribution",
    "margin_decode",
    "margin_decode_awgn",
    "simulate_bsc",
    "simulate_awgn",
    "simulate_cone_exit",
    "estimate_exponent",
    "wilson_interval",
]

_BLOCK = 1 << 14
_MAX_K = 26


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class TrialTally:
    trials: int
    correct: int
    undetected: int
    erasure: int
    seed: int

    def __post_init__(self) -> None:
        if self.correct + self.undetected + self.erasure != self.trials:
            raise ValueError("tally classes must sum to the trial count")

    def rate(self, cls: str) -> float:
        return getattr(self, cls) / self.trials

    def wilson(self, cls: str, confidence: float = 0.95) -> tuple[float, float]:
        return wilson_interval(getattr(self, cls), self.trials, confidence)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float


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
        """All 2^k codewords as a (2^k, n) bit matrix, message order."""
        msgs = ((np.arange(1 << self.k, dtype=np.int64)[:, None] >> np.arange(self.k)) & 1).astype(
            np.uint8
        )
        return (msgs @ self.generator) % 2


def gen_linear_code(n: int, k: int, seed: int) -> LinearCode:
    """Random systematic code, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    parity = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
    return LinearCode(n, k, tuple(tuple(int(b) for b in row) for row in parity))


def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact weight distribution: wt(u) + wt(parity bits of u) over all 2^k
    messages u, in chunks of 2^20 messages (low bits) per high-bit pattern."""
    rows = _syndrome_columns(code)[: code.k]
    low = min(code.k, 20)
    low_par, low_wt = _span(rows[:low]), np.bitwise_count(np.arange(1 << low, dtype=np.uint64))
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for high, high_par in enumerate(_span(rows[low:])):
        wts = np.bitwise_count(low_par ^ high_par).sum(axis=1, dtype=np.int64) + low_wt
        counts += np.bincount(wts + high.bit_count(), minlength=code.n + 1)
    return WeightDistribution.from_counts(counts.tolist())


def margin_decode(code: LinearCode, y: Sequence[int], t: int) -> Optional[int]:
    """Message index of the margin winner, or None for an erasure.

    At t = 0 exact distance ties are classified as erasure (no unique winner).
    """
    if t < 0:
        raise ValueError(f"margin must be nonnegative, got {t}")
    yv = np.asarray(y, dtype=np.uint64).reshape(1, code.n)
    dist = _distances(code, _pack(yv[:, : code.k])[:, 0], _pack(yv[:, code.k :]))
    return int(np.argmin(dist[0])) if _decide(dist, 2 * t)[1][0] else None


def margin_decode_awgn(
    codebook: "SphericalCodebook", y: Sequence[float], tau: float
) -> Optional[int]:
    """Index of the margin winner under angular distance, or None."""
    if tau < 0.0:
        raise ValueError(f"margin must be nonnegative, got {tau}")
    yv = np.asarray(y, dtype=np.float64)
    ny = np.linalg.norm(yv)
    if ny == 0.0:
        return None
    cosang = (codebook.points @ yv) / (ny * math.sqrt(codebook.A * codebook.n))
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    return int(np.argmin(ang)) if _decide(ang[None], 2.0 * tau)[1][0] else None


@dataclass(frozen=True)
class SphericalCodebook:
    """M points on the sphere of radius sqrt(A n) in R^n."""

    M: int
    n: int
    A: float
    points: np.ndarray  # (M, n)

    def __post_init__(self) -> None:
        if self.points.shape != (self.M, self.n):
            raise ValueError("points must be an (M, n) array")
        energy = (self.points**2).sum(axis=1)
        if not np.allclose(energy, self.A * self.n, rtol=1e-9):
            raise ValueError("codebook points must have squared norm A*n")

    @classmethod
    def random(cls, M: int, n: int, A: float, seed: int) -> "SphericalCodebook":
        """Uniform random directions, deterministic in the seed."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((M, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return cls(M, n, A, g * math.sqrt(A * n))

    @classmethod
    def binary(cls, code: LinearCode, A: float) -> "SphericalCodebook":
        """BPSK image of a binary code: bits 0/1 -> +/- sqrt(A)."""
        pts = (1.0 - 2.0 * code.codewords().astype(np.float64)) * math.sqrt(A)
        return cls(1 << code.k, code.n, A, pts)


def _run_blocks(fn, trials: int, workers: int) -> np.ndarray:
    """Sum of ``fn(b, size)`` over the blocks of ``trials`` trials."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    blocks = [(b, min(_BLOCK, trials - lo)) for b, lo in enumerate(range(0, trials, _BLOCK))]
    if workers <= 1:
        parts = [fn(b, size) for b, size in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda bs: fn(*bs), blocks))
    return np.sum(parts, axis=0)


def _tally(decoded: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """(correct, undetected, erasure) counts of one block of trials."""
    c, d = np.count_nonzero(decoded & correct), np.count_nonzero(decoded)
    return np.array([c, d - c, decoded.size - d], dtype=np.int64)


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


def simulate_bsc(
    code: LinearCode, p: float, t: int, trials: int, seed: int, workers: int = 1
) -> TrialTally:
    """Margin-decode BSC trials with the all-zero codeword transmitted
    (exact by linearity and channel symmetry). A trial is decoded when the two
    least weights d1, d2 of its error pattern's coset differ by max(2t, 1),
    and correct when also wt(e) = d1; each block runs the coset kernel once
    per distinct syndrome."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {p}")
    columns = _syndrome_columns(code)

    def block(b: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([seed, b])
        err = rng.random((size, code.n)) < p
        syndromes = np.bitwise_xor.reduce(np.where(err[:, :, None], columns, 0), axis=1)
        cosets, which = _unique_rows(syndromes)
        dist = _distances(code, np.zeros(len(cosets), dtype=np.uint64), cosets)
        d1, decoded = _decide(dist, 2 * t)
        return _tally(decoded[which], err.sum(axis=1) == d1[which])

    c, u, e = _run_blocks(block, trials, workers)
    return TrialTally(trials, int(c), int(u), int(e), seed)


def simulate_awgn(
    codebook: SphericalCodebook, tau: float, trials: int, seed: int, workers: int = 1
) -> TrialTally:
    """Margin-decode AWGN trials with a uniformly drawn transmitted point.

    The angle arccos(clip(<y, x> / (|y| |x|))) is a nonincreasing function of
    the inner product <y, x>, so the two least angles of a trial are those of
    its two largest inner products. Only those two and the sent point's are
    turned into angles; the tallies equal those of the full angle matrix."""
    pts = codebook.points
    norm_pts = math.sqrt(codebook.A * codebook.n)

    def block(b: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([seed, b])
        sent = rng.integers(0, codebook.M, size=size)
        y = pts[sent] + rng.standard_normal((size, codebook.n))
        scale = np.linalg.norm(y, axis=1, keepdims=True) * norm_pts
        dots = y @ pts.T
        rows = np.arange(size)
        best = dots.argmax(axis=1)
        # Columns: sent, best, then the runner-up when there is one.
        top = [dots[rows, sent], dots[rows, best]]
        if codebook.M > 1:
            dots[rows, best] = -np.inf
            top.append(dots.max(axis=1))
        ang = np.arccos(np.clip(np.stack(top, axis=1) / scale, -1.0, 1.0))
        a1, decoded = _decide(ang[:, 1:], 2.0 * tau)
        return _tally(decoded, ang[:, 0] == a1)

    c, u, e = _run_blocks(block, trials, workers)
    return TrialTally(trials, int(c), int(u), int(e), seed)


def simulate_cone_exit(
    n: int, ch: AwgnChannel, phi: float, trials: int, seed: int, workers: int = 1
) -> tuple[float, tuple[float, float], int]:
    """Estimate the cone-exit probability Q(phi): i.i.d. Gaussian noise
    pushing a signal point outside the cone of half-angle phi.

    The exit event depends on the noise z only through z1 (along the signal)
    and |z_rest|^2, which is chi-square with n - 1 degrees of freedom
    (Shannon 1959), so a trial draws those two numbers and costs O(1) in n.

    Returns (estimate, wilson 95% interval, exit count).
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if not 0.0 < phi < math.pi:
        raise ValueError(f"angle must lie in (0, pi), got {phi}")
    radius = math.sqrt(ch.A * n)
    cos_phi = math.cos(phi)

    def block(b: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([seed, b])
        first = radius + rng.standard_normal(size)
        rest_sq = rng.chisquare(n - 1, size)
        cosang = first / np.sqrt(first * first + rest_sq)
        return np.array([int(np.count_nonzero(cosang < cos_phi))], dtype=np.int64)

    (exits,) = _run_blocks(block, trials, workers)
    est = exits / trials
    return float(est), wilson_interval(int(exits), trials), int(exits)


def estimate_exponent(points: Sequence[tuple[float, float]]) -> RegressionResult:
    """Least-squares slope of -ln(p_hat) against n."""
    if len(points) < 3:
        raise ValueError("need at least 3 (n, p_hat) points")
    ns = np.array([q[0] for q in points], dtype=float)
    ps = np.array([q[1] for q in points], dtype=float)
    if np.any(ps <= 0.0):
        raise ValueError("all p_hat must be positive")
    if np.unique(ns).size < 2:
        raise ValueError("need at least two distinct n values")
    ys = -np.log(ps)
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(float(slope), float(intercept), r2)
