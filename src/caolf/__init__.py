"""Competitive-tolerance scalarization against historical metric references.

Given a history of good operating points, one per metric, the solvers find a
single new decision that is simultaneously within a factor (1 + gamma) of
every recorded value (or (1 - gamma) for maximized metrics), and make gamma
as small as the geometry allows.
"""

from .geometry import Mono, Norm, Sense, clip, dual_norm_value, norm_value
from .lp import LpBasis, LpProblem, LpSolution, LpStatus, solve_lp
from .model import (
    CompetitiveSolution,
    ConcaveLinear,
    ConvexQuadratic,
    FeasibleSet,
    LipschitzNorm,
    MetricRef,
)
from .solver import (
    SolveConfig,
    SolveError,
    grid_oracle_caolf,
    grid_oracle_swcm,
    solve_approx,
    solve_caolf,
    stability_probe,
    verify_competitiveness,
)

__all__ = [
    "Mono", "Norm", "Sense", "clip", "dual_norm_value", "norm_value",
    "LpBasis", "LpProblem", "LpSolution", "LpStatus", "solve_lp",
    "CompetitiveSolution", "ConcaveLinear", "ConvexQuadratic", "FeasibleSet",
    "LipschitzNorm", "MetricRef",
    "SolveConfig", "SolveError", "grid_oracle_caolf", "grid_oracle_swcm",
    "solve_approx", "solve_caolf", "stability_probe", "verify_competitiveness",
]

__version__ = "0.1.0"
