"""Averaged (Krasnosel'skii-Mann) iteration for 2D rotation operators.

Trajectories under the Euclidean and max norms, closed-form per-iteration
bounds, a brute-force search for the max-norm per-period contraction
factor, and a reproducible Monte Carlo harness for the iteration with
affine-variance noise.
"""

from .beta_search import (
    REFERENCE_BETA_U,
    BetaSearchResult,
    PeriodCheckReport,
    beta_l,
    pseudo_period,
    search_beta_u,
    verify_period_contraction,
)
from .bounds import (
    BoundCurve,
    l2_bound,
    linf_bound,
    mu,
    noise_bound,
    optimal_alpha_l2,
)
from .engine import Schedule, ScheduleKind, Trajectory, run_km, step_size
from .errors import (
    InvalidAlphaError,
    KmrotError,
    NonFiniteError,
    OutOfRangeError,
    UnstableError,
    UnsupportedAlphaError,
    ZeroVectorError,
)
from .rotation import (
    Angle,
    NormKind,
    RotationOp,
    Vec2,
    apply_averaged,
    gamma,
    norm,
    normalized_rotate,
    rotate,
    sin_cos_pi,
    tan_pi,
)
from .stochastic import (
    McConfig,
    McResult,
    NoiseParams,
    replica_rng,
    run_stochastic_km,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "BetaSearchResult",
    "BoundCurve",
    "InvalidAlphaError",
    "KmrotError",
    "McConfig",
    "McResult",
    "NoiseParams",
    "NonFiniteError",
    "NormKind",
    "OutOfRangeError",
    "PeriodCheckReport",
    "REFERENCE_BETA_U",
    "RotationOp",
    "Schedule",
    "ScheduleKind",
    "Trajectory",
    "UnstableError",
    "UnsupportedAlphaError",
    "Vec2",
    "ZeroVectorError",
    "apply_averaged",
    "beta_l",
    "gamma",
    "l2_bound",
    "linf_bound",
    "mu",
    "noise_bound",
    "norm",
    "normalized_rotate",
    "optimal_alpha_l2",
    "pseudo_period",
    "replica_rng",
    "rotate",
    "run_km",
    "run_stochastic_km",
    "search_beta_u",
    "sin_cos_pi",
    "step_size",
    "tan_pi",
    "verify_period_contraction",
]
