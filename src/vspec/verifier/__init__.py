"""Built-in sound-and-complete verifier for ReLU-network linear queries."""

from .engine import (
    DEFAULT_PHASE_BUDGET,
    Skeleton,
    check_query,
    propagate_bounds,
    unroll_meta_network,
)
from .lp import LPConstraint, LPProblem, feasible

__all__ = [
    "DEFAULT_PHASE_BUDGET",
    "LPConstraint",
    "LPProblem",
    "Skeleton",
    "check_query",
    "feasible",
    "propagate_bounds",
    "unroll_meta_network",
]
