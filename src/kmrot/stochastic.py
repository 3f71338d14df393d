"""Stochastic averaged iteration and its Monte Carlo harness.

The update is x_{k+1} = (1 - alpha) x_k + alpha (T(x_k) + w_k) with
zero-mean Gaussian noise whose second moment tracks the state:
E||w_k||_2^2 = a + b * ||x_k||_2^2, realized with equality and split evenly
across the two components.  Under the Euclidean norm the harness pairs the
empirical mean of ||x_k||^2 with the closed-form mean-square bound; the
max-norm variant is simulation only and carries no bound.

Reproducibility: replica r draws all of its Gaussians from a generator
seeded by (seed, r), so per-replica paths never depend on how replicas are
chunked or how steps are blocked.  A chunk of replicas runs one block of
steps at a time; each block's squared norms are binned and folded at once
into exact Python-int sums of x and x^2 per step (ExactSums) and dropped;
no bins, exponent window or fold threshold outlive the block.  So the
result does not depend on the order in which blocks arrive, and memory is
O(_CHUNK * _STEPS) plus the per-step totals, for any replica or step
count.  Each mean is the exact sum rounded once and divided by the replica
count, which is math.fsum's value, or the exact mean rounded once where
only that rounded sum overflows; each standard error is the square root of
the exact sample variance rounded once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bounds import BoundCurve, noise_bound
from .errors import NonFiniteError, UnstableError
from .rotation import Angle, NormKind, RotationOp, Vec2, km_step

_CHUNK = 2048  # replicas stepped together
_STEPS = 128  # steps drawn, stepped and summed together
_ADD_SAMPLES = 2**16
_BLOCK = 2**14  # samples, and bins, per frexp/bincount pass; bounds the temporaries
_SPAN = 36  # the largest piece shift, in exponent steps
_LIMB = 5  # bins per int64 limb of the fold
_UNIT = 1073 + 53  # frexp exponents are >= -1073, so 2^-_UNIT divides every x


@dataclass(frozen=True)
class NoiseParams:
    """Affine second-moment parameters: E||w||^2 = a + b * ||x||^2.

    a is the additive noise floor, b scales with the squared state norm.
    a = 0 with b = 0 degenerates to the noiseless iteration.
    """

    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"noise parameters must be finite: a={self.a}, b={self.b}")
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError(f"noise parameters must be >= 0: a={self.a}, b={self.b}")


@dataclass(frozen=True)
class McConfig:
    theta: Angle
    alpha: float
    x1: Vec2
    noise: NoiseParams
    replicas: int
    steps: int
    seed: int
    norm_kind: NormKind = NormKind.L2

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1): got {self.alpha}")
        if self.replicas < 1 or self.steps < 1:
            raise ValueError(f"replicas and steps must be >= 1: got {self.replicas}, {self.steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer: got {self.seed}")


@dataclass(frozen=True)
class McResult:
    """Per-step mean of the squared norm with its standard error.

    bound is the mean-square curve when one exists (Euclidean norm, stable
    noise level); unstable is set when the noise level breaks the stability
    condition, in which case no finite bound exists but the simulation
    still ran.
    """

    mean_sq_norm: tuple[float, ...]
    std_err: tuple[float, ...]
    bound: BoundCurve | None
    unstable: bool


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The generator feeding replica `replica` of a run seeded with `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, replica]))


class ExactSums:
    """Exact per-series sums of x and x^2 over float64 samples added in blocks.

    A finite sample is f * 2^e (np.frexp) = M * 2^(e-53) with an integer
    |M| < 2^53, split as M = a*2^36 + b*2^18 + c with |a| <= 2^17 and b, c in
    [0, 2^18).  The sum of x bins the pieces a*2^18 + b and c; the sum of x^2
    bins the five products of M^2 = a^2*2^72 + 2ab*2^54 + (2ac + b^2)*2^36
    + 2bc*2^18 + c^2, each below 2^37 in size.  Each `add` bins its samples
    per (series, exponent) with np.bincount, from each series' smallest
    exponent in that call, and folds the bins at once into exact Python-int
    totals, _LIMB adjacent bins to one int64 limb; no bins, exponent window
    or fold threshold outlive the call.  This is a small superaccumulator
    (Neal 2015, arXiv:1505.05571); the split of x^2 is error-free, like
    Dekker's (1971), and exact for subnormals too.  Integer totals make the
    sums independent of the order of samples and of blocks, and each result
    is rounded once from them.

    Exactness limits: a bin gains less than 2^37 per sample, so one `add`
    takes at most _ADD_SAMPLES = 2^16 samples per series (enforced), which
    keeps its float64 bincount sums below 2^53; a limb then sums bins
    weighted 1, 4, ..., 4^(_LIMB-1), which stays below 2^53 * 341 < 2^62.
    Non-finite samples are counted per series instead of summed.
    """

    def __init__(self, series: int) -> None:
        self.n = 0
        # units of 2^-_UNIT for x and 4^-_UNIT for x^2
        self._sx = [0] * series
        self._sxx = [0] * series
        self._bad = np.zeros(series, np.int64)

    def add(self, block: np.ndarray, first: int = 0) -> None:
        """Add samples: block[k] holds new samples of series first + k.

        n counts the samples added to series 0, so each set of samples must
        reach every series, in one add or in row slices at their offsets,
        with the same count.
        """
        count = block.shape[1]
        if count == 0:
            return
        if count > _ADD_SAMPLES:
            raise ValueError(f"at most {_ADD_SAMPLES} samples per add: got {count}")
        if first == 0:
            self.n += count
        finite = np.isfinite(block)
        if not finite.all():
            self._bad[first:first + len(block)] += count - finite.sum(axis=1)
            block = np.where(finite, block, 0.0)
        rows, done = max(1, _BLOCK // count), 0
        while done < len(block):
            rows = self._add_rows(first + done, block[done:done + rows])
            done += rows

    def _add_rows(self, first: int, block: np.ndarray) -> int:
        """Bin rows block[0 ..] as series first ..; return how many rows that took."""
        f, e = np.frexp(block)
        # zeros add nothing; they take the exponent of their row's largest
        # sample, so they do not widen the row
        e = np.where(f != 0.0, e, np.frexp(np.abs(block).max(axis=1))[1][:, None])
        lo = e.min(axis=1)
        # bin e - lo of row r, in rows of whole limbs; a piece shifted by s
        # lands s bins higher
        width = -(-(int((e.max(axis=1) - lo).max()) + 1 + _SPAN) // _LIMB) * _LIMB
        if len(block) > 1 and len(block) * width > _BLOCK:
            return self._add_rows(first, block[:len(block) // 2])  # the bins, too, stay within _BLOCK
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

    def _check_finite(self) -> None:
        bad = np.flatnonzero(self._bad)
        if bad.size:
            k = int(bad[0])
            raise NonFiniteError(f"squared norm not finite at k = {k + 1}: "
                                 f"{self._bad[k]} of {self.n} replicas")

    def totals(self) -> tuple[float, ...]:
        """Each series' sum, rounded once from the exact sum: math.fsum's value.

        Raises NonFiniteError when a series holds a non-finite sample, naming
        the first such series k (counted from 1) and the count, or when a sum
        does not round to a finite double.
        """
        self._check_finite()
        out = []
        for k, sx in enumerate(self._sx):
            try:
                out.append(sx / (1 << _UNIT))
            except OverflowError:
                raise NonFiniteError(f"the sum of {self.n} squared norms at k = {k + 1} "
                                     "does not round to a finite double") from None
        return tuple(out)

    def moments(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-series mean and standard error of the mean.

        mean = the exact sum rounded once, divided by n, which is
        math.fsum(x) / n; where only that rounded sum overflows, the exact
        mean, no larger in size than the largest sample, is rounded once
        instead.  std_err = sqrt(var) / sqrt(n), where the sample variance
        (n * sum x^2 - (sum x)^2) / (n (n - 1)) is an exact ratio of integers
        rounded once; it is exactly 0 when all samples are equal, and 0 for
        n = 1.  Raises NonFiniteError when a series holds a non-finite
        sample.
        """
        self._check_finite()
        n = self.n
        mean = tuple(_mean(sx, n) for sx in self._sx)
        if n == 1:
            return mean, (0.0,) * len(mean)
        den = n * (n - 1) << 2 * _UNIT
        root_n = math.sqrt(n)
        serr = tuple(_sqrt_ratio(n * sxx - sx * sx, den) / root_n
                     for sx, sxx in zip(self._sx, self._sxx))
        return mean, serr


def _mean(sx: int, n: int) -> float:
    # sx counts units of 2^-_UNIT
    try:
        return sx / (1 << _UNIT) / n
    except OverflowError:
        return sx / (n << _UNIT)


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for integers p >= 0 and q > 0, with p / q rounded once.

    p / q is scaled by an even power of two into [1/4, 4) first, so the
    result equals math.sqrt(p / q) wherever p / q is a normal double, and
    stays finite and accurate where p / q alone would overflow or underflow.
    """
    if p == 0:
        return 0.0
    h = (p.bit_length() - q.bit_length()) // 2
    r = p / (q << 2 * h) if h >= 0 else (p << -2 * h) / q
    return math.ldexp(math.sqrt(r), h)


def _simulate_chunk(cfg: McConfig, op: RotationOp, start: int,
                    stop: int) -> Iterator[tuple[int, np.ndarray]]:
    """Squared norms of replicas start .. stop-1, _STEPS steps at a time.

    Yields (first, sq), where sq[j] holds step first + j of each replica.
    The replicas' generators live across blocks, and each block draws every
    replica's normals into its own row; a stream drawn in pieces gives the
    same numbers as one draw.  Vectorized over the replicas; km_step is
    element-wise, so the per-replica paths do not depend on the chunk or
    block bounds.
    """
    steps = cfg.steps
    m = stop - start
    a, b = cfg.noise.a, cfg.noise.b
    linf = cfg.norm_kind is NormKind.LINF

    rngs = [replica_rng(cfg.seed, r) for r in range(start, stop)]
    z = np.empty((m, min(_STEPS, steps), 2))
    x1 = np.full(m, cfg.x1.x1)
    x2 = np.full(m, cfg.x1.x2)
    for first in range(0, steps, _STEPS):
        block = min(_STEPS, steps - first)
        draws = min(block, steps - 1 - first)  # the run's last step draws nothing
        for g, row in zip(rngs, z):
            g.standard_normal(out=row[:draws])
        sq = np.empty((block, m))
        for j in range(block):
            sq_l2 = x1 * x1 + x2 * x2
            if linf:
                mx = np.maximum(np.abs(x1), np.abs(x2))
                sq[j] = mx * mx
            else:
                sq[j] = sq_l2
            if j == draws:
                break
            scale = np.sqrt((a + b * sq_l2) * 0.5)
            x1, x2 = km_step(op.cos_theta, op.sin_theta, cfg.alpha, x1, x2, linf,
                             scale * z[:, j, 0], scale * z[:, j, 1])
        yield first, sq


def run_stochastic_km(cfg: McConfig) -> McResult:
    """Run `replicas` independent chains and average the squared norms.

    Replicas run _CHUNK at a time and _STEPS steps at a time, and each
    block's squared norms are added to exact per-step sums (ExactSums) and
    then dropped, so memory is O(_CHUNK * _STEPS) plus the per-step totals
    for any replica or step count.  Identical configs give identical results
    for any chunk or block size: replicas own their noise streams and the
    sums are exact.  The Euclidean bound's initial-distance check runs
    before the simulation.  A replica whose squared norm overflows or turns
    nan raises NonFiniteError.
    """
    bound: BoundCurve | None = None
    unstable = False
    if cfg.norm_kind is NormKind.L2:
        d_sq = cfg.x1.x1 * cfg.x1.x1 + cfg.x1.x2 * cfg.x1.x2
        try:
            bound = noise_bound(cfg.theta, cfg.alpha, d_sq, cfg.noise.a, cfg.noise.b, cfg.steps)
        except UnstableError:
            unstable = True

    op = RotationOp(cfg.theta)
    sums = ExactSums(cfg.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, cfg.replicas, _CHUNK):
            for first, sq in _simulate_chunk(cfg, op, lo, min(lo + _CHUNK, cfg.replicas)):
                sums.add(sq, first)
    mean, serr = sums.moments()
    return McResult(mean, serr, bound, unstable)
