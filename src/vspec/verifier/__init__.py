"""Built-in sound-and-complete verifier for ReLU-network linear queries."""

from .engine import DEFAULT_PHASE_BUDGET, check_query
from .lp import LPConstraint, LPProblem, feasible

__all__ = [
    "DEFAULT_PHASE_BUDGET",
    "LPConstraint",
    "LPProblem",
    "check_query",
    "feasible",
]
