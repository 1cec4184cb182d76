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
    ClippedNormSurrogate,
    HalfspaceSet,
    Norm,
    Sense,
    extrapolated_projections,
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
    non-safe coordinate of each metric, then gamma last.  Increasing and
    decreasing coordinates need one inequality each; non-monotone
    coordinates bound the displacement from both sides.
    """
    dim = region.dim
    norm = config.norm
    aux_offsets = []
    n_aux = 0
    if norm == Norm.L1:
        for _ in surrogate.ids:
            aux_offsets.append(dim + n_aux)
            n_aux += dim
    n_var = dim + n_aux + 1
    g_col = n_var - 1

    rows_a: list[np.ndarray] = []
    rows_b: list[float] = []

    def add_row(cols: dict[int, float], rhs: float):
        row = np.zeros(n_var)
        for j, v in cols.items():
            row[j] = v
        rows_a.append(row)
        rows_b.append(rhs)

    for idx, (ref, eff, rate) in enumerate(
            zip(surrogate.x_ref, surrogate.eff_mono, surrogate.rate)):
        if norm == Norm.L1:
            off = aux_offsets[idx]
            for j in range(dim):
                if eff[j] >= 0:
                    add_row({j: 1.0, off + j: -1.0}, float(ref[j]))
                if eff[j] <= 0:
                    add_row({j: -1.0, off + j: -1.0}, float(-ref[j]))
            add_row({off + j: 1.0 for j in range(dim)} | {g_col: -1.0 / rate}, 0.0)
        else:
            for j in range(dim):
                if eff[j] >= 0:
                    add_row({j: 1.0, g_col: -1.0 / rate}, float(ref[j]))
                if eff[j] <= 0:
                    add_row({j: -1.0, g_col: -1.0 / rate}, float(-ref[j]))
    for a, b in region.halfspaces:
        row = np.zeros(n_var)
        row[:dim] = a
        rows_a.append(row)
        rows_b.append(b)

    lower = np.full(n_var, -np.inf)
    lower[:dim] = region.lower
    lower[dim:] = 0.0
    c = np.zeros(n_var)
    c[g_col] = 1.0
    problem = LpProblem(c=c, a_ub=np.array(rows_a), b_ub=np.array(rows_b), lower=lower)
    sol = solve_lp(problem, max_iters=200000)
    if sol.status != LpStatus.OPTIMAL:
        raise SolveError(f"epigraph LP ended with status {sol.status.value}")
    x = sol.x[:dim]
    gamma = surrogate.certify(x)
    diag = SolveDiagnostics(iterations=sol.iterations, residual=region.violation(x),
                            method=f"epigraph-lp-{norm.value}")
    return CompetitiveSolution(x=x, gamma=gamma, diagnostics=diag)


def solve_approx(refs, region: FeasibleSet, config: SolveConfig | None = None) -> CompetitiveSolution:
    """Mixed-model variant: metrics may carry clipped-norm radii (Euclidean),
    supporting-hyperplane caps, or curvature-augmented tangent caps, in any
    combination; all of a metric's models constrain simultaneously.
    """
    config = config or SolveConfig()
    if config.norm != Norm.L2:
        raise ValueError("the mixed-model solver works in the l2 norm")
    refs = list(refs)
    if not refs:
        raise ValueError("need at least one metric reference")
    dim = region.dim
    builders = []  # None marks the next clipped ball of the surrogate
    needed = []
    lipschitz = []  # (ref, model) pairs behind the surrogate
    for r in refs:
        if r.dim != dim:
            raise ValueError(f"metric {r.id!r} has dimension {r.dim}, region has {dim}")
        for m in r.models:
            if isinstance(m, LipschitzNorm):
                if m.norm != Norm.L2:
                    raise ValueError(
                        f"metric {r.id!r}: only l2 Lipschitz models are usable here, got {m.norm.value}")
                builders.append(None)
                lipschitz.append((r, m))
            elif isinstance(m, ConcaveLinear):
                grad, ref, v = m.grad, r.x_ref, r.value
                if float(np.dot(grad, grad)) == 0.0:
                    continue  # satisfied by every x at any gamma >= 0
                builders.append(lambda g, grad=grad, ref=ref, v=v:
                                HalfspaceSet(grad, g * v + float(np.dot(grad, ref))))
                needed.append(lambda x, grad=grad, ref=ref, v=v:
                              float(np.dot(grad, x - ref)) / v)
            elif isinstance(m, ConvexQuadratic):
                grad, ref, v, lip = m.grad, r.x_ref, r.value, m.curvature
                builders.append(lambda g, grad=grad, ref=ref, v=v, lip=lip:
                                BallSet(*quadratic_cap_ball(ref, grad, lip, g * v)))
                needed.append(lambda x, grad=grad, ref=ref, v=v, lip=lip:
                              (lip * float(np.dot(x - ref, x - ref)) + float(np.dot(grad, x - ref))) / v)
            else:
                raise TypeError(f"unknown constraint model {type(m).__name__}")
    if not builders:
        raise ValueError("no usable constraint models")
    surrogate = None
    if lipschitz:
        surrogate = ClippedNormSurrogate([r for r, _ in lipschitz], Norm.L2,
                                         [m for _, m in lipschitz])

    def build_sets(gamma):
        balls = (surrogate.ball(i, gamma) for i in range(len(lipschitz)))
        return [next(balls) if b is None else b(gamma) for b in builders]

    def certify(x):
        worst = surrogate.certify(x) if surrogate else 0.0
        return max([worst] + [need(x) for need in needed])

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


def verify_competitiveness(x, gamma: float, metrics):
    """Check realized metric values against the (1 +/- gamma) envelope.

    ``metrics`` is an iterable of (evaluator, reference_value, sense).
    Returns (slacks, ok): slack is the relative excess f(x)/v - 1 for
    minimized metrics and 1 - f(x)/v for maximized ones, so ``ok`` means
    every slack is at most gamma (plus ``VERIFY_REL_TOL``).
    """
    x = np.asarray(x, dtype=float)
    slacks = []
    for evaluate, value, sense in metrics:
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"reference value must be positive, got {value}")
        f = float(evaluate(x))
        if sense == Sense.MINIMIZE:
            slacks.append(f / value - 1.0)
        else:
            slacks.append(1.0 - f / value)
    slacks = np.asarray(slacks)
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
    metrics = list(metrics)
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
            f = float(evaluate(p))
            slack = f / value - 1.0 if sense == Sense.MINIMIZE else 1.0 - f / value
            worst = max(worst, slack)
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
