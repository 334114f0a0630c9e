"""Seeded Monte Carlo simulation of the margin decoder over BSC and AWGN.

Trials are processed in fixed-size blocks; block b draws from an RNG seeded
by (seed, b), so tallies are identical for any worker count. Each simulator
does only the work its decision needs. A BSC trial's error pattern is packed
as a received word of a ``finite.LinearCode``, and ``finite`` gives the two
least weights of its coset, from the coset table that the exact oracle sums
or, past the table's budget, from the streamed popcount walk. An AWGN trial
is decided from its two largest inner products with the codebook; this is
the package's only AWGN decision. A block draws its noise one row slice at a
time, as the next rows of its stream, so a slice holds at most
``_DOTS_BUDGET`` elements of noise and as many of inner products (one row
past that), and a thread's memory does not grow with n: one 2^14-trial block
of 48 points in n = 600 peaks at 4.9 MiB under tracemalloc. A cone-exit trial
draws only its sufficient statistic: the noise along the signal and the
chi-square energy of the rest.

Threads: ``workers`` is the number of threads a simulation keeps busy, and
blocks are spread over them. The AWGN inner products are GEMMs of at most
2^18 multiply-adds (32 trials against at most 2^13 / n codebook points each,
for n <= 2^13). That is the size up to which OpenBLAS runs a GEMM on the
calling thread (SMP_THRESHOLD_MIN x GEMM_MULTITHREAD_THRESHOLD in its
gemm.c). A larger product would wake OpenBLAS's own thread pool, which
competes with the workers and then spins for about 0.2 s after each call,
slowing whatever runs next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .finite import LinearCode, _coset_weights, _decided, _margin, _words
from .spherical import AwgnChannel

__all__ = [
    "SphericalCodebook",
    "TrialTally",
    "RegressionResult",
    "simulate_bsc",
    "simulate_awgn",
    "simulate_cone_exit",
    "estimate_exponent",
    "wilson_interval",
]

_BLOCK = 1 << 14
_DOTS_BUDGET = 1 << 18  # elements of one (rows x M) slice of AWGN inner products
_GEMM_MADDS = 1 << 18  # multiply-adds of one AWGN inner-product GEMM (OpenBLAS: caller thread)
_GEMM_ROWS = 32  # trials of one inner-product GEMM
_DRAW_BUDGET = 1 << 16  # uniforms of one (rows x n) slice of BSC error draws


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, each end clamped to
    the proportion itself, which rounding can cross at 0 and n successes."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials={trials}], got {successes}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


@dataclass(frozen=True)
class TrialTally:
    trials: int
    correct: int
    undetected: int
    erasure: int
    seed: int

    def __post_init__(self) -> None:
        if min(self.correct, self.undetected, self.erasure) < 0:
            raise ValueError(
                f"tally classes must be nonnegative, got correct={self.correct}, "
                f"undetected={self.undetected}, erasure={self.erasure}"
            )
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
class SphericalCodebook:
    """M points on the sphere of radius sqrt(A n) in R^n."""

    M: int
    n: int
    A: float
    points: np.ndarray  # (M, n)

    def __post_init__(self) -> None:
        if self.points.shape != (self.M, self.n):
            raise ValueError("points must be an (M, n) array")
        energy = np.einsum("ij,ij->i", self.points, self.points)
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
        s = math.sqrt(A)
        return cls(1 << code.k, code.n, A, np.where(code.codewords(), -s, s))


def _run_blocks(fn, trials: int, workers: int) -> np.ndarray:
    """Sum of ``fn(b, size)`` over the blocks of ``trials`` trials."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    blocks = [(b, min(_BLOCK, trials - lo)) for b, lo in enumerate(range(0, trials, _BLOCK))]
    if workers <= 1:
        parts = [fn(b, size) for b, size in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # with logging, ~7 ms cold

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda bs: fn(*bs), blocks))
    return np.sum(parts, axis=0)


def _pieces(size: int, step: int) -> list[tuple[int, int]]:
    """[0, size) as its whole steps and the rest, each nonempty."""
    whole = size - size % step
    return [(lo, hi) for lo, hi in ((0, whole), (whole, size)) if hi > lo]


def _inner_products(y: np.ndarray, columns: np.ndarray, out: np.ndarray) -> None:
    """out = y @ columns, with the codebook as a C-ordered (n, M) array, in
    GEMMs of ``_GEMM_ROWS`` rows of y against chunks of ``width`` columns (a
    one-row rest is a matrix-vector product of at most 2^13 entries, also on
    the calling thread). Each piece (whole row groups or the rest, against
    whole chunks or the rest) is one broadcast matmul, (groups, 1, rows, n) @
    (chunks, n, cols) -> (groups, chunks, rows, cols), written through a view
    of ``out``, so numpy loops over the GEMMs without copying."""
    n, M = columns.shape
    width = min(M, max(1, _GEMM_MADDS // (_GEMM_ROWS * n)))
    for r0, r1 in _pieces(len(y), _GEMM_ROWS):
        rows = min(_GEMM_ROWS, r1 - r0)
        for c0, c1 in _pieces(M, width):
            cols = min(width, c1 - c0)
            dest = out[r0:r1, c0:c1].reshape(-1, rows, (c1 - c0) // cols, cols)
            np.matmul(
                y[r0:r1].reshape(-1, 1, rows, n),
                columns[:, c0:c1].reshape(n, -1, cols).transpose(1, 0, 2),
                out=dest.transpose(0, 2, 1, 3),
            )


def _tally(decoded: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """(correct, undetected, erasure) counts of one block of trials."""
    c, d = np.count_nonzero(decoded & correct), np.count_nonzero(decoded)
    return np.array([c, d - c, decoded.size - d], dtype=np.int64)


def simulate_bsc(
    code: LinearCode, p: float, t: int, trials: int, seed: int, workers: int = 1
) -> TrialTally:
    """Margin-decode BSC trials with the all-zero codeword transmitted
    (exact by linearity and channel symmetry): the error pattern is the
    received word. A trial is decoded when the two least weights d1, d2 of
    its coset differ by max(2t, 1), and correct when also wt(e) = d1. Each
    block reads (d1, d2) per word from ``finite._coset_weights``, which
    owns the choice between the coset table, shared with the exact oracle,
    and the walk. A block draws its error bits in row slices of about
    ``_DRAW_BUDGET`` uniforms, packed as they come: the same stream as one
    (block x n) draw."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {p}")
    t = _margin(t)
    rows = max(1, _DRAW_BUDGET // code.n)

    def block(b: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([seed, b])
        draws = (rng.random((min(rows, size - lo), code.n)) < p for lo in range(0, size, rows))
        words = np.vstack([_words(code, err) for err in draws])
        d1, d2 = _coset_weights(code, words)
        # Column by column: a row-wise sum over the few columns costs ten times more.
        weight = sum(map(np.bitwise_count, words.T), np.zeros(size, dtype=np.uint16))
        return _tally(_decided(d1, d2, 2 * t, code.k == 0), weight == d1)

    c, u, e = _run_blocks(block, trials, workers)
    return TrialTally(trials, int(c), int(u), int(e), seed)


def simulate_awgn(
    codebook: SphericalCodebook, tau: float, trials: int, seed: int, workers: int = 1
) -> TrialTally:
    """Margin-decode AWGN trials with a uniformly drawn transmitted point.

    The angle arccos(clip(<y, x> / (|y| |x|))) is a nonincreasing function of
    the inner product <y, x>, so the two least angles of a trial are those of
    its two largest inner products, and only those two are turned into
    angles. A decoded trial is correct when its best point is the sent one
    (a sent point tying the best elsewhere leaves an equal runner-up: an
    erasure), so the tallies equal those of the full angle matrix. The
    inner products are caller-thread GEMMs (see the module docstring). A
    block draws ``sent``, then its noise one slice of ``_DOTS_BUDGET //
    max(M, n)`` rows at a time, each the next rows of the block's stream:
    the same stream as one (block x n) draw, so tallies do not depend on
    the slicing or the worker count."""
    if not 0.0 <= tau < math.inf:  # NaN too
        raise ValueError(f"margin must be finite and nonnegative, got {tau}")
    pts = codebook.points
    # GEMMs on chunks of this copy run as fast as one whole product; on
    # chunks of the transposed view pts.T they ran about 30% slower.
    columns = np.ascontiguousarray(pts.T)
    norm_pts = math.sqrt(codebook.A * codebook.n)
    step = max(1, _DOTS_BUDGET // max(codebook.M, codebook.n))

    def block(b: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([seed, b])
        sent = rng.integers(0, codebook.M, size=size)
        scale = np.empty((size, 1))
        # Columns: best, then the runner-up (-inf, an angle of pi, when M = 1).
        top = np.empty((size, 2))
        hit = np.empty(size, dtype=bool)
        for lo in range(0, size, step):
            part = slice(lo, lo + step)
            # The next rows of the block's noise stream.
            y = rng.standard_normal((min(step, size - lo), codebook.n))
            y += pts[sent[part]]
            scale[part, 0] = np.linalg.norm(y, axis=1)
            dots = np.empty((len(y), codebook.M))
            _inner_products(y, columns, dots)
            rows = np.arange(len(dots))
            best = dots.argmax(axis=1)
            hit[part] = best == sent[part]
            top[part, 0] = dots[rows, best]
            dots[rows, best] = -np.inf
            # An argmax read costs about a third of a row-wise max here.
            top[part, 1] = dots[rows, dots.argmax(axis=1)]
        scale *= norm_pts
        ang = np.arccos(np.clip(top / scale, -1.0, 1.0))
        decoded = _decided(ang[:, 0], ang[:, 1], 2.0 * tau, codebook.M == 1)
        return _tally(decoded, hit)

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
    if ns.min() == ns.max():
        raise ValueError("need at least two distinct n values")
    ys = -np.log(ps)
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(float(slope), float(intercept), r2)
