"""Averaged (Krasnosel'skii-Mann) iteration for 2D rotation operators.

Trajectories under the Euclidean and max norms, closed-form per-iteration
bounds, a brute-force search for the max-norm per-period contraction
factor, and a reproducible Monte Carlo harness for the iteration with
affine-variance noise.
"""

from .beta_search import (
    beta_l,
    pseudo_period,
    search_beta_u,
)
from .bounds import (
    l2_bound,
    linf_bound,
    mu,
    noise_bound,
    optimal_alpha_l2,
)
from .engine import run_km
from .errors import (
    InvalidAlphaError,
    KmrotError,
    NonFiniteError,
    OutOfRangeError,
    UnstableError,
    UnsupportedAlphaError,
)
from .rotation import (
    Angle,
    NormKind,
    Vec2,
    norm,
)
from .stochastic import (
    McConfig,
    NoiseParams,
    run_stochastic_km,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "InvalidAlphaError",
    "KmrotError",
    "McConfig",
    "NoiseParams",
    "NonFiniteError",
    "NormKind",
    "OutOfRangeError",
    "UnstableError",
    "UnsupportedAlphaError",
    "Vec2",
    "beta_l",
    "l2_bound",
    "linf_bound",
    "mu",
    "noise_bound",
    "norm",
    "optimal_alpha_l2",
    "pseudo_period",
    "run_km",
    "run_stochastic_km",
    "search_beta_u",
]
