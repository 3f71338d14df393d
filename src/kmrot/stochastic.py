"""Stochastic averaged iteration and its Monte Carlo harness.

The update is x_{k+1} = (1 - alpha) x_k + alpha (T(x_k) + w_k) with
zero-mean Gaussian noise whose second moment tracks the state:
E||w_k||_2^2 = a + b * ||x_k||_2^2, realized with equality and split evenly
across the two components.  Under the Euclidean norm the harness pairs the
empirical mean of ||x_k||^2 with the closed-form mean-square bound; the
max-norm variant is simulation only and carries no bound.

Reproducibility: replica r draws all of its Gaussians from a generator
seeded by (seed, r), so per-replica paths never depend on how replicas are
chunked, and the final means use exact column sums (math.fsum), which are
insensitive to accumulation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundCurve, noise_bound
from .errors import UnstableError
from .rotation import Angle, NormKind, RotationOp, Vec2, km_step

_CHUNK = 2048


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


def _simulate_chunk(cfg: McConfig, op: RotationOp, start: int, stop: int) -> np.ndarray:
    # Vectorized over the replicas of one chunk; km_step is element-wise,
    # so the per-replica paths do not depend on the chunk bounds.
    steps = cfg.steps
    m = stop - start
    a, b = cfg.noise.a, cfg.noise.b
    linf = cfg.norm_kind is NormKind.LINF

    draws = [replica_rng(cfg.seed, r).standard_normal((steps - 1, 2)) for r in range(start, stop)]
    z = np.stack(draws, axis=1) if steps > 1 else np.empty((0, m, 2))

    x1 = np.full(m, cfg.x1.x1)
    x2 = np.full(m, cfg.x1.x2)
    sq = np.empty((m, steps))
    for j in range(steps):
        sq_l2 = x1 * x1 + x2 * x2
        if linf:
            mx = np.maximum(np.abs(x1), np.abs(x2))
            sq[:, j] = mx * mx
        else:
            sq[:, j] = sq_l2
        if j == steps - 1:
            break
        scale = np.sqrt((a + b * sq_l2) * 0.5)
        x1, x2 = km_step(op.cos_theta, op.sin_theta, cfg.alpha, x1, x2, linf,
                         scale * z[j, :, 0], scale * z[j, :, 1])
    return sq


def run_stochastic_km(cfg: McConfig) -> McResult:
    """Run `replicas` independent chains and average the squared norms.

    Identical configs give identical results for any chunk size: replicas
    own their noise streams and aggregation sums each column exactly.
    """
    sq = np.empty((cfg.replicas, cfg.steps))
    op = RotationOp(cfg.theta)
    for lo in range(0, cfg.replicas, _CHUNK):
        hi = min(lo + _CHUNK, cfg.replicas)
        sq[lo:hi] = _simulate_chunk(cfg, op, lo, hi)

    n = cfg.replicas
    mean = []
    serr = []
    for k in range(cfg.steps):
        col = sq[:, k]
        m = math.fsum(col.tolist()) / n
        mean.append(m)
        if n == 1:
            serr.append(0.0)
        else:
            dev = col - m
            var = math.fsum((dev * dev).tolist()) / (n - 1)
            serr.append(math.sqrt(var) / math.sqrt(n))

    bound: BoundCurve | None = None
    unstable = False
    if cfg.norm_kind is NormKind.L2:
        d_sq = cfg.x1.x1 * cfg.x1.x1 + cfg.x1.x2 * cfg.x1.x2
        try:
            bound = noise_bound(cfg.theta, cfg.alpha, d_sq, cfg.noise.a, cfg.noise.b, cfg.steps)
        except UnstableError:
            unstable = True

    return McResult(tuple(mean), tuple(serr), bound, unstable)
