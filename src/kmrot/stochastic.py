"""Stochastic averaged iteration and its Monte Carlo harness.

The update is x_{k+1} = (1 - alpha) x_k + alpha (T(x_k) + w_k) with
zero-mean Gaussian noise whose second moment tracks the state:
E||w_k||_2^2 = a + b * ||x_k||_2^2, realized with equality and split evenly
across the two components.  Under the Euclidean norm the harness pairs the
empirical mean of ||x_k||^2 with the closed-form mean-square bound; the
max-norm variant is simulation only and carries no bound.

Reproducibility: the noise comes in blocks of _NOISE_BLOCK = 2048
replicas.  Block b holds replicas [2048 b, 2048 (b + 1)), the run's last
block cut at R, and is fed by default_rng([seed, b]) (replica_rng): at each
step it draws one standard_normal((n_b, 2)), n_b = min(2048, R - 2048 b),
and replica r's noise pair is row r - 2048 b of that draw.  So a path
depends only on (seed, r), plus R for the replicas of a last, partial
block; never on the step block or the worker count.

Up to one process per available CPU, at most one per noise block and with
no option, each runs a share of whole noise blocks, contiguous and
near-equal in count.  A run goes one step block at a time, _BLOCK values of
a whole noise block, at most 1024 steps: a process steps its share a window
of _WINDOW noise blocks at a time and adds each block's squared norms into
exact Python-int sums of x and x^2 per step (ExactSums).  The processes'
integer totals are added exactly, so every byte of the result is
independent of the order of the sums and of the worker count.  Memory per
process is O(replicas / workers) plus one window's scratch and one step
block's totals: between step blocks a process keeps its coordinates (16
bytes per replica) and one generator per noise block.  Each mean is the
exact mean rounded once; each standard error is the square root of the
exact sample variance rounded once.  A noise-free run (a = b = 0) has one
path, which run_km steps as its rows are read.

numpy is imported by the functions that use it, not by the module: kmrot
and its CLI import this module's names, and simulate, bound and a
noise-free mc never build an array, so they run without loading it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import count
from typing import TYPE_CHECKING, BinaryIO, NamedTuple

from .bounds import BoundCurve, noise_bound
from .engine import run_km
from .errors import NonFiniteError, OutOfRangeError, UnstableError, check_alpha, check_count, check_finite_nonneg
from .rotation import Angle, NormKind, Vec2, km_step, sin_cos_pi

if TYPE_CHECKING:
    import numpy as np

_NOISE_BLOCK = 2048  # replicas whose noise one generator draws; part of the output contract
_WINDOW = 8  # noise blocks stepped together; sizes the scratch
_BLOCK = 2**14  # samples of a noise block per step block
_ADD_SAMPLES = 2**16
_PASS = 2**12  # samples, and bins, per frexp/bincount pass: temporaries below glibc's mmap threshold
_SPAN = 36  # the largest piece shift, in exponent steps
_LIMB = 5  # bins per int64 limb of the fold
_UNIT = 1073 + 53  # frexp exponents are >= -1073, so 2^-_UNIT divides every x

# Between step blocks a run keeps about 16.6 bytes per replica: one process
# with 2^24 replicas peaked at 300 MiB (x86-64 Linux, numpy 2.4.6).
MAX_MC_REPLICAS = 2**24


class NoiseParams(namedtuple("NoiseParams", "a b")):
    """Affine second-moment parameters: E||w||^2 = a + b * ||x||^2.

    a is the additive noise floor, b scales with the squared state norm.
    a = 0 with b = 0 degenerates to the noiseless iteration.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float = 0.0) -> NoiseParams:
        check_finite_nonneg("noise parameter a", a)
        check_finite_nonneg("noise parameter b", b)
        return super().__new__(cls, a, b)


class McConfig(namedtuple("McConfig", "theta alpha x1 noise replicas steps seed norm_kind")):
    __slots__ = ()

    def __new__(cls, theta: Angle, alpha: float, x1: Vec2, noise: NoiseParams, replicas: int, steps: int,
                seed: int, norm_kind: NormKind = NormKind.L2) -> McConfig:
        check_alpha(alpha)
        check_count("replicas", replicas)
        check_count("steps", steps)
        if replicas > MAX_MC_REPLICAS:
            raise OutOfRangeError(f"replicas must be <= {MAX_MC_REPLICAS}: got {replicas}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer: got {seed}")
        return super().__new__(cls, theta, alpha, x1, noise, replicas, steps, seed, norm_kind)


class McResult(NamedTuple):
    """Per-step rows (mean of the squared norm, its standard error), computed as they are read.

    bound is the mean-square curve when one exists (Euclidean norm, stable
    noise level); unstable is set when the noise level breaks the stability
    condition, in which case no finite bound exists but the simulation
    still runs.
    """

    rows: Iterator[tuple[float, float]]
    bound: BoundCurve | None
    unstable: bool


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The generator that draws `replica`'s noise in a run seeded with `seed`.

    It feeds noise block replica // _NOISE_BLOCK, as the module docstring
    describes.  _NOISE_BLOCK is part of the output contract: another value
    changes every noisy byte.
    """
    import numpy as np

    return np.random.default_rng([seed, replica // _NOISE_BLOCK])


class ExactSums:
    """Exact per-series sums of x and x^2 over float64 samples added in blocks.

    A finite sample is f * 2^e (np.frexp) = M * 2^(e-53) with an integer
    |M| < 2^53, split as M = a*2^36 + b*2^18 + c with |a| <= 2^17 and b, c in
    [0, 2^18).  The sum of x bins the pieces a*2^18 + b and c; the sum of x^2
    bins the five products of M^2 = a^2*2^72 + 2ab*2^54 + (2ac + b^2)*2^36
    + 2bc*2^18 + c^2, each below 2^37 in size.  Each `add` bins its samples
    per (series, exponent) with np.bincount, from each series' smallest
    exponent in that call, and folds the bins at once into exact Python-int
    totals, _LIMB adjacent bins to one int64 limb; the totals are all it
    keeps between calls.  A zero adds nothing to its bin (exponent 0); a pass
    holds as many rows as fit in _PASS bins, however far a row spans.  This
    is a small superaccumulator (Neal 2015, arXiv:1505.05571); the split of
    x^2 is error-free, like Dekker's (1971), and exact for subnormals too.
    Integer totals make the sums independent of the order of samples and of
    blocks, and each mean is the exact mean rounded once.

    Every series is to receive n samples in all; the moments divide by n.
    Exactness limits: a bin gains less than 2^37 per sample, so one `add`
    takes at most _ADD_SAMPLES = 2^16 samples per series (enforced), which
    keeps its float64 bincount sums below 2^53; a limb then sums bins
    weighted 1, 4, ..., 4^(_LIMB-1), which stays below 2^53 * 341 < 2^62.
    Non-finite samples are counted per series instead of summed.
    """

    def __init__(self, series: int, n: int) -> None:
        self.n = n
        # units of 2^-_UNIT for x and 4^-_UNIT for x^2
        self._sx = [0] * series
        self._sxx = [0] * series
        self._bad = [0] * series

    def add(self, block: np.ndarray) -> None:
        """Add samples: block[k] holds new samples of series k."""
        import numpy as np

        count = block.shape[1]
        if count == 0:
            return
        if count > _ADD_SAMPLES:
            raise ValueError(f"at most {_ADD_SAMPLES} samples per add: got {count}")
        finite = np.isfinite(block)
        if not finite.all():
            for k, bad in enumerate((count - finite.sum(axis=1)).tolist()):
                self._bad[k] += bad
            block = np.where(finite, block, 0.0)
        rows, done = max(1, _PASS // count), 0
        while done < len(block):
            rows = self._add_rows(done, block[done:done + rows])
            done += rows

    def _add_rows(self, first: int, block: np.ndarray) -> int:
        """Bin rows block[0 ..] as series first ..; return how many rows that took."""
        import numpy as np

        f, e = np.frexp(block)
        lo = e.min(axis=1)
        # bin e - lo of row r, in rows of whole limbs; a piece shifted by s
        # lands s bins higher
        width = -(-(int((e.max(axis=1) - lo).max()) + 1 + _SPAN) // _LIMB) * _LIMB
        if len(block) > 1 and len(block) * width > _PASS:
            return self._add_rows(first, block[:len(block) // 2])  # the bins, too, stay within _PASS
        size = len(block) * width
        index = (e - lo[:, None] + np.arange(0, size, width)[:, None]).ravel()
        m = f * 2.0**53
        a = np.floor(m * 2.0**-36)
        m -= a * 2.0**36
        b = np.floor(m * 2.0**-18)
        c = m - b * 2.0**18
        sums = (((18, a * 2.0**18 + b), (0, c)),
                ((36, a * a), (27, 2.0 * a * b), (18, 2.0 * a * c + b * b), (9, 2.0 * b * c), (0, c * c)))
        # bin i of row r holds multiples of 2^(j-53) for x and 4^(j-53) for
        # x^2, j = lo[r] + i
        offsets = (lo + _UNIT - 53).tolist()
        for bits, totals, pieces in zip((1, 2), (self._sx, self._sxx), sums):
            total = np.zeros(size)
            for shift, piece in pieces:
                total[shift:] += np.bincount(index, piece.ravel(), size)[:size - shift]
            weights = 1 << bits * np.arange(_LIMB)
            limbs = total.reshape(len(block), -1, _LIMB).astype(np.int64) @ weights
            for k, (o, row) in enumerate(zip(offsets, limbs.tolist()), first):
                totals[k] += sum(v << bits * (o + _LIMB * i) for i, v in enumerate(row) if v)
        return len(block)

    def merge(self, other: ExactSums) -> None:
        """Add in the totals of `other`, which holds other samples of the same series, in place."""
        for mine, theirs in (self._sx, other._sx), (self._sxx, other._sxx), (self._bad, other._bad):
            for k, v in enumerate(theirs):
                mine[k] += v

    def moments(self, first: int = 0) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-series mean and standard error of the mean.

        mean = the exact mean rounded once, never larger in size than the
        largest sample.  std_err = sqrt(var) / sqrt(n), where the sample
        variance (n * sum x^2 - (sum x)^2) / (n (n - 1)) is an exact ratio
        of integers rounded once; it is exactly 0 when all samples are
        equal, and 0 for n = 1.  Raises NonFiniteError when a series holds a
        non-finite sample, naming the first such series k (counted from
        first + 1) and the count.
        """
        k = next((k for k, bad in enumerate(self._bad) if bad), None)
        if k is not None:
            raise NonFiniteError(f"squared norm not finite at k = {first + k + 1}: "
                                 f"{self._bad[k]} of {self.n} replicas")
        n = self.n
        # sx counts units of 2^-_UNIT
        mean = tuple(sx / (n << _UNIT) for sx in self._sx)
        if n == 1:
            return mean, (0.0,) * len(mean)
        den = n * (n - 1) << 2 * _UNIT
        root_n = math.sqrt(n)
        serr = tuple(_sqrt_ratio(n * sxx - sx * sx, den) / root_n
                     for sx, sxx in zip(self._sx, self._sxx))
        return mean, serr


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for integers p >= 0 and q > 0, with p / q rounded once.

    p / q is scaled by an even power of two into [1/4, 4) first, so the
    result equals math.sqrt(p / q) wherever p / q is a normal double, and
    stays finite and accurate where p / q alone would overflow or underflow.
    """
    h = (p.bit_length() - q.bit_length()) // 2
    r = p / (q << 2 * h) if h >= 0 else (p << -2 * h) / q
    return math.ldexp(math.sqrt(r), h)


def _simulate_share(cfg: McConfig, blocks: range) -> Iterator[tuple[int, ExactSums]]:
    """Each step block's first step and the exact sums of the squared norms of noise blocks `blocks`.

    The share keeps its coordinates and one generator per noise block
    (replica_rng), which fills its block's rows of each step's draw; after
    the last record none draws, so a 1-step run builds no generator.
    km_step steps a window of replicas in place, element-wise, so no path
    depends on the step block or window bounds.
    """
    import numpy as np

    m = min(blocks.stop * _NOISE_BLOCK, cfg.replicas) - blocks.start * _NOISE_BLOCK
    a, b = cfg.noise.a, cfg.noise.b
    s, c = sin_cos_pi(cfg.theta.fraction)
    linf = cfg.norm_kind is NormKind.LINF
    rngs = [replica_rng(cfg.seed, block * _NOISE_BLOCK) for block in blocks] if cfg.steps > 1 else []
    x1, x2 = np.full(m, cfg.x1.x1), np.full(m, cfg.x1.x2)
    scale = math.sqrt(a * 0.5)  # for b = 0; b * ||x||^2 would be 0 * inf = nan where ||x||^2 overflows
    steps = min(1024, max(1, _BLOCK // min(_NOISE_BLOCK, cfg.replicas)))
    window = min(m, _WINDOW * _NOISE_BLOCK)
    z, w, scratch = np.empty((window, 2)), np.empty((2, window)), np.empty(steps * window)
    for first in range(0, cfg.steps, steps):
        n = min(steps, cfg.steps - first)
        sums = ExactSums(n, cfg.replicas)
        # errstate is a context variable: held across the yield, it would hold for the reader too
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, m, window):
                y1, y2 = x1[lo:lo + window], x2[lo:lo + window]
                width = len(y1)
                zw, (w1, w2) = z[:width], w[:, :width]
                z1, z2 = zw.T
                sq = scratch[:n * width].reshape(n, width)
                draws = [(rng, zw[j:j + _NOISE_BLOCK])
                         for rng, j in zip(rngs[lo // _NOISE_BLOCK:], range(0, width, _NOISE_BLOCK))]
                for k, row in enumerate(sq, first):
                    if k:  # step from the last record
                        for rng, out in draws:
                            rng.standard_normal(out=out)
                        if b > 0.0:
                            # w1 = sqrt((a + b * ||x||_2^2) * 0.5), then the noise
                            if linf or k == first:  # no l2 record of x in this block yet
                                np.multiply(y1, y1, out=w1)
                                w1 += np.multiply(y2, y2, out=w2)
                                w1 *= b
                            else:
                                np.multiply(b, sq[k - first - 1], out=w1)
                            w1 += a
                            w1 *= 0.5
                            np.sqrt(w1, out=w1)
                            np.multiply(w1, z2, out=w2)
                            w1 *= z1
                        else:
                            np.multiply(scale, z1, out=w1)
                            np.multiply(scale, z2, out=w2)
                        km_step(c, s, cfg.alpha, y1, y2, linf, w1, w2, out=(y1, y2))
                    if linf:
                        np.maximum(np.abs(y1, out=w1), np.abs(y2, out=w2), out=row)
                        row *= row
                    else:
                        np.multiply(y1, y1, out=row)
                        row += np.multiply(y2, y2, out=w1)
                for j in range(0, width, _NOISE_BLOCK):
                    sums.add(sq[:, j:j + _NOISE_BLOCK])
        yield first, sums


def _workers(blocks: int) -> int:
    """Processes to share `blocks` noise blocks: one per available CPU, at most one per block."""
    import os

    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), blocks)


def run_stochastic_km(cfg: McConfig) -> McResult:
    """Run `replicas` independent chains and average the squared norms.

    Returns after the Euclidean bound and its initial-distance check; the
    rows (mean, std_err) are computed as they are read, a step block at a
    time.  Of the n noise blocks, process w of W runs the share
    [n * w // W, n * (w + 1) // W) (_workers sets W); the first row read
    forks the others.  Per step block this process adds each worker's exact
    sums to its own, in fork order, and yields the block's rows.  Without
    noise (a = b = 0) all replicas follow one path, which run_km steps as
    the rows are read, with no array and no fork: each mean is its squared
    norm and each standard error 0.  A non-finite squared norm raises
    NonFiniteError at its step; a worker that sends no totals raises
    RuntimeError.  When the rows end, fail or are closed, the workers are
    killed if still running, and reaped.
    """
    bound: BoundCurve | None = None
    unstable = False
    if cfg.norm_kind is NormKind.L2:
        d_sq = cfg.x1.x1 * cfg.x1.x1 + cfg.x1.x2 * cfg.x1.x2
        try:
            bound = noise_bound(cfg.theta, cfg.alpha, d_sq, cfg.noise.a, cfg.noise.b, cfg.steps)
        except UnstableError:
            unstable = True
    if cfg.noise != (0.0, 0.0):
        return McResult(_noisy_rows(cfg), bound, unstable)

    # km_step without noise is averaged_step bit for bit, and the exact
    # mean of equal samples is that sample
    def row(k: int, y: tuple[float, float, float]) -> tuple[float, float]:
        sq = y[0] * y[0] + y[1] * y[1] if cfg.norm_kind is NormKind.L2 else y[2] * y[2]
        if not math.isfinite(sq):  # before the next step, which may overflow
            raise NonFiniteError(f"squared norm not finite at k = {k}: {cfg.replicas} of {cfg.replicas} replicas")
        return sq, 0.0

    path = run_km(cfg.theta, cfg.norm_kind, cfg.alpha, cfg.x1, cfg.steps)
    return McResult(map(row, count(1), path), bound, unstable)


def _noisy_rows(cfg: McConfig) -> Iterator[tuple[float, float]]:
    """The rows of a noisy run, one step block at a time, as run_stochastic_km describes."""
    # numpy first: it loads pickle itself, and a 20 000 x 500 run that
    # imported pickle before numpy peaked about 0.9 MiB higher
    import numpy  # noqa: F401

    import os
    import pickle
    import signal
    import sys

    n = -(-cfg.replicas // _NOISE_BLOCK)
    workers = _workers(n)
    shares = [range(n * w // workers, n * (w + 1) // workers) for w in range(workers)]
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), until it is reaped
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            if (pid := os.fork()) == 0:  # the child: send each step block's sums, leave without clean-up
                try:
                    with open(wfd, "wb") as pipe:
                        for _, sums in _simulate_share(cfg, shares[w]):
                            pickle.dump(sums, pipe)
                            pipe.flush()
                    os._exit(0)
                except Exception:
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(1)
            os.close(wfd)
            children.append((pid, open(r, "rb")))
        for first, sums in _simulate_share(cfg, shares[0]):
            for _, pipe in children:  # one worker at a time, in fork order
                try:
                    sums.merge(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError("a Monte Carlo worker process ended without sending its totals") from None
            yield from zip(*sums.moments(first))
    finally:
        # at the end every worker has sent all it will, so killing it loses nothing
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
