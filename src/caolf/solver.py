"""Solvers for the competitive-tolerance problem and its verification oracles.

The decision problem at a fixed tolerance gamma is convex feasibility: stay
inside the decision region while keeping each metric's clipped displacement
norm within a radius proportional to gamma.  The optimal gamma is found by
bisection, which is sound because enlarging gamma only enlarges every
radius.  Euclidean instances use alternating projections; L1 and LINF
instances have polyhedral radius constraints and go through the simplex
kernel as one epigraph linear program instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BallSet,
    ClippedBallSet,
    ClippedNormSurrogate,
    HalfspaceSet,
    Norm,
    Sense,
    clip,
    extrapolated_projections,
    norm_value,
    quadratic_cap_ball,
)
from .lp import LpProblem, LpStatus, solve_lp
from .model import (
    CompetitiveSolution,
    ConcaveLinear,
    ConvexQuadratic,
    FeasibleSet,
    LipschitzNorm,
    SolveDiagnostics,
)


class SolveError(RuntimeError):
    """Raised when a solver cannot certify an answer."""


@dataclass
class SolveConfig:
    norm: Norm = Norm.L2
    gamma_tolerance: float = 1e-6
    feasibility_tolerance: float = 1e-7

    def __post_init__(self):
        if self.gamma_tolerance <= 0 or self.feasibility_tolerance <= 0:
            raise ValueError("tolerances must be positive")


def _bisect(build_sets, certify, start, region: FeasibleSet, config: SolveConfig,
            method: str) -> CompetitiveSolution:
    """Shared bisection driver over the gamma axis.

    The search starts from the projection of ``start`` into the region.
    ``build_sets(gamma)`` yields the projectable constraint sets at that
    tolerance and ``certify`` maps a point to the smallest tolerance it
    satisfies every constraint at; the latter is also the reported gamma, so
    the answer is always a value the returned point actually achieves.
    """
    x_best = region.find_point(start, tol=min(1e-9, config.feasibility_tolerance))
    region_sets = region.sets()
    lo, hi = 0.0, certify(x_best)
    total_iters = 0
    while hi - lo > config.gamma_tolerance:
        mid = 0.5 * (lo + hi)
        probe = extrapolated_projections(build_sets(mid) + region_sets, x_best,
                                         tol=config.feasibility_tolerance)
        total_iters += probe.iterations
        if probe.converged:
            x_best = probe.x
            # projections land on the active constraint surface, so the point
            # usually certifies a tolerance well below mid; shrink the bracket
            # to that certified value instead of mid
            hi = min(mid, certify(probe.x))
            if hi <= lo:
                break
        else:
            lo = mid
    # hard lower bounds hold exactly so downstream metric evaluation never
    # sees a tolerance-scale negative capacity
    x_best = np.maximum(x_best, region.lower)
    gamma = certify(x_best)
    diag = SolveDiagnostics(iterations=total_iters, residual=region.violation(x_best), method=method)
    return CompetitiveSolution(x=x_best, gamma=gamma, diagnostics=diag)


def solve_caolf(refs, region: FeasibleSet, config: SolveConfig | None = None) -> CompetitiveSolution:
    """Minimize the tolerance gamma subject to one clipped-norm radius per metric.

    Each metric contributes the constraint that the clipped displacement from
    its reference, measured in the configured norm, stays within
    gamma * value / bound.  Metrics that share a reference point and effective
    monotonicity are solved as one, at the largest rate of the group, which
    certifies every one of them.  The reported gamma is certified at the
    returned point, so it never understates what the point achieves.
    """
    config = config or SolveConfig()
    refs = list(refs)
    dim = region.dim
    for r in refs:
        if r.dim != dim:
            raise ValueError(f"metric {r.id!r} has dimension {r.dim}, region has {dim}")
    surrogate = ClippedNormSurrogate(refs, config.norm).merged()
    if config.norm != Norm.L2:
        return _solve_caolf_lp(surrogate, region, config)

    def build_sets(gamma):
        return [surrogate.ball(i, gamma) for i in range(len(surrogate.ids))]

    return _bisect(build_sets, surrogate.certify, np.mean([r.x_ref for r in refs], axis=0),
                   region, config, method="bisection-projection-l2")


def _solve_caolf_lp(surrogate: ClippedNormSurrogate, region, config) -> CompetitiveSolution:
    """Epigraph linear program for the L1 and LINF radius constraints.

    Layout: decision coordinates, then (L1 only) one magnitude variable per
    coordinate of each metric, then gamma last.  Coordinate by coordinate, a
    metric bounds +x_j where it is increasing or non-monotone and -x_j where
    it is decreasing or non-monotone.  Under L1 the bound is the coordinate's
    magnitude variable, and one row per metric caps their sum at gamma/rate;
    under LINF each bound is gamma/rate itself.
    """
    dim, count = region.dim, len(surrogate.ids)
    n_var = dim + (count * dim if config.norm == Norm.L1 else 0) + 1
    # one row per (metric, coordinate, direction) in that order, + before -
    ref_i, coord, side = np.nonzero(np.stack([surrogate.eff_mono >= 0,
                                              surrogate.eff_mono <= 0], axis=2))
    sign = 1.0 - 2.0 * side
    rows = np.arange(sign.size)
    a_ub = np.zeros((sign.size, n_var))
    a_ub[rows, coord] = sign
    b_ub = sign * surrogate.x_ref[ref_i, coord]
    if config.norm == Norm.L1:
        a_ub[rows, dim + ref_i * dim + coord] = -1.0
        sums = np.hstack([np.zeros((count, dim)), np.kron(np.eye(count), np.ones(dim)),
                          -1.0 / surrogate.rate[:, None]])
        # each metric's sum row follows its last coordinate row
        ends = np.searchsorted(ref_i, np.arange(count), side="right")
        a_ub, b_ub = np.insert(a_ub, ends, sums, axis=0), np.insert(b_ub, ends, 0.0)
    else:
        a_ub[:, -1] = -1.0 / surrogate.rate[ref_i]
    caps = np.reshape([a for a, _ in region.halfspaces], (-1, dim))
    a_ub = np.vstack([a_ub, np.pad(caps, ((0, 0), (0, n_var - dim)))])
    b_ub = np.concatenate([b_ub, [b for _, b in region.halfspaces]])

    lower = np.concatenate([region.lower, np.zeros(n_var - dim)])
    c = np.zeros(n_var)
    c[-1] = 1.0
    problem = LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, lower=lower)
    sol = solve_lp(problem)
    if sol.status != LpStatus.OPTIMAL:
        raise SolveError(f"epigraph LP ended with status {sol.status.value}")
    x = sol.x[:dim]
    gamma = surrogate.certify(x)
    diag = SolveDiagnostics(iterations=sol.iterations, residual=region.violation(x),
                            method=f"epigraph-lp-{config.norm.value}")
    return CompetitiveSolution(x=x, gamma=gamma, diagnostics=diag)


def _model_entry(r, m):
    """Model ``m`` of metric ``r`` as (set at gamma, gamma needed at x); None
    for a hyperplane model with a zero gradient, which holds everywhere."""
    ref, v = r.x_ref, r.value
    if isinstance(m, LipschitzNorm):
        if m.norm != Norm.L2:
            raise ValueError(f"metric {r.id!r}: only l2 Lipschitz models are usable here, got {m.norm.value}")
        geom, rate = r.geometry(m), m.bound / v
        return (lambda g: ClippedBallSet(geom, g / rate),
                lambda x: rate * norm_value(clip(x, geom), Norm.L2))
    if isinstance(m, ConcaveLinear):
        if float(np.dot(m.grad, m.grad)) == 0.0:
            return None
        return (lambda g: HalfspaceSet(m.grad, g * v + float(np.dot(m.grad, ref))),
                lambda x: float(np.dot(m.grad, x - ref)) / v)
    if isinstance(m, ConvexQuadratic):
        a, lip = m.grad, m.curvature
        return (lambda g: BallSet(*quadratic_cap_ball(ref, a, lip, g * v)),
                lambda x: (lip * float(np.dot(x - ref, x - ref)) + float(np.dot(a, x - ref))) / v)
    raise TypeError(f"unknown constraint model {type(m).__name__}")


def model_entries(refs, dim: int) -> list[list[tuple]]:
    """Per metric, the (set at gamma, gamma needed at x) pair of each usable
    model, in model order: the constraints `solve_approx` solves with."""
    for r in refs:
        if r.dim != dim:
            raise ValueError(f"metric {r.id!r} has dimension {r.dim}, region has {dim}")
    return [[e for e in (_model_entry(r, m) for m in r.models) if e is not None] for r in refs]


def solve_approx(refs, region: FeasibleSet, config: SolveConfig | None = None) -> CompetitiveSolution:
    """Mixed-model variant: metrics may carry clipped-norm radii (Euclidean),
    supporting-hyperplane caps, or curvature-augmented tangent caps, in any
    combination; all of a metric's models constrain simultaneously.
    """
    config = config or SolveConfig()
    if config.norm != Norm.L2:
        raise ValueError("the mixed-model solver works in the l2 norm")
    refs = list(refs)
    entries = [e for own in model_entries(refs, region.dim) for e in own]
    if not entries:
        raise ValueError("no usable constraint models")

    def build_sets(gamma):
        return [at(gamma) for at, _ in entries]

    def certify(x):
        return max([0.0] + [need(x) for _, need in entries])

    return _bisect(build_sets, certify, np.mean([r.x_ref for r in refs], axis=0), region,
                   config, method="bisection-projection-mixed")


def stability_probe(refs, region: FeasibleSet, config: SolveConfig, kappas) -> CompetitiveSolution:
    """Re-solve with every metric's Lipschitz bound scaled by its kappa.

    Models the situation where the true sensitivity constants were misjudged
    by known factors; the solution degrades by at most max(kappa)/kappa_i
    per metric, which the stability tests assert.
    """
    refs = list(refs)
    kappas = np.asarray(kappas, dtype=float)
    if kappas.shape != (len(refs),):
        raise ValueError(f"need one scale factor per metric, got {kappas.shape} for {len(refs)}")
    scaled = [r.scaled(float(k)) for r, k in zip(refs, kappas)]
    return solve_caolf(scaled, region, config)


VERIFY_REL_TOL = 1e-9  # slack on top of gamma in `verify_competitiveness`
GRID_MEMBERSHIP_TOL = 1e-9  # region violation up to which a grid point is inside


def _checked_metrics(metrics) -> list:
    """``metrics`` as a list; raises unless every reference value is positive and finite."""
    metrics = list(metrics)
    for _, value, _ in metrics:
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"reference value must be positive, got {value}")
    return metrics


def _relative_slack(f: float, value: float, sense: Sense) -> float:
    return f / value - 1.0 if sense == Sense.MINIMIZE else 1.0 - f / value


def verify_competitiveness(x, gamma: float, metrics):
    """Check realized metric values against the (1 +/- gamma) envelope.

    ``metrics`` is an iterable of (evaluator, reference_value, sense).
    Returns (slacks, ok): slack is the relative excess f(x)/v - 1 for
    minimized metrics and 1 - f(x)/v for maximized ones, so ``ok`` means
    every slack is at most gamma (plus ``VERIFY_REL_TOL``).
    """
    x = np.asarray(x, dtype=float)
    slacks = np.asarray([_relative_slack(float(evaluate(x)), value, sense)
                         for evaluate, value, sense in _checked_metrics(metrics)])
    ok = bool(np.all(slacks <= gamma + VERIFY_REL_TOL))
    return slacks, ok


def _grid_axes(region: FeasibleSet, resolution: int, box):
    if region.dim > 3:
        raise ValueError("grid oracles are for dimensions up to 3")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if box is None:
        raise ValueError("grid oracles need an explicit bounding box per dimension")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != region.dim:
        raise ValueError("bounding box dimension mismatch")
    for lo, hi in box:
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise ValueError("bounding box must have finite, increasing endpoints")
    return [np.linspace(lo, hi, resolution) for lo, hi in box]


def grid_oracle_swcm(metrics, region: FeasibleSet, resolution: int, box):
    """Brute-force the smallest worst-case relative slack on a dense grid.

    ``metrics`` is an iterable of (evaluator, reference_value, sense).
    Independent of the solvers by construction: it evaluates the metrics
    themselves, not any surrogate model.  Returns (gamma, point).
    """
    metrics = _checked_metrics(metrics)
    if not metrics:
        raise ValueError("need at least one metric")
    axes = _grid_axes(region, resolution, box)
    best = np.inf
    best_point = None
    for coords in itertools.product(*axes):
        p = np.asarray(coords)
        if region.violation(p) > GRID_MEMBERSHIP_TOL:
            continue
        worst = 0.0
        for evaluate, value, sense in metrics:
            worst = max(worst, _relative_slack(float(evaluate(p)), value, sense))
        if worst < best:
            best = worst
            best_point = p
    if best_point is None:
        raise ValueError("no grid point fell inside the region; enlarge the box or resolution")
    return max(best, 0.0), best_point


def grid_oracle_caolf(refs, region: FeasibleSet, resolution: int, box, norm: Norm = Norm.L2):
    """Brute-force the smallest radius-scaled clipped norm on a dense grid.

    Same search as `grid_oracle_swcm` but over the surrogate objective
    max_i bound_i * ||clip(x, ref_i)|| / value_i, vectorized over the grid.
    Returns (gamma, point).
    """
    surrogate = ClippedNormSurrogate(refs, norm)
    axes = _grid_axes(region, resolution, box)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)  # (P, dim)
    keep = np.ones(len(pts), dtype=bool)
    for s in region.sets():
        keep &= np.array([s.violation(p) <= GRID_MEMBERSHIP_TOL for p in pts])
    pts = pts[keep]
    if len(pts) == 0:
        raise ValueError("no grid point fell inside the region; enlarge the box or resolution")
    worst = surrogate.on_grid(pts)
    i = int(np.argmin(worst))
    return float(worst[i]), pts[i]
