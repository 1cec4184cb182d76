"""Solvers for the competitive-tolerance problem and its verification oracles.

Minimizing the tolerance gamma is a convex program: stay inside the decision
region while keeping each metric's clipped displacement norm within a radius
proportional to gamma.  Euclidean instances, and mixed models, are solved by
the log-barrier method over (x, gamma^2); L1 and LINF instances have
polyhedral radius constraints and go through the simplex kernel as one
epigraph linear program instead.  A Euclidean table without cap rows first
asks one feasibility LP whether some point of the region lies in every safe
box: then the optimal gamma is exactly 0, and that point is the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Norm, Sense, harm
from .lp import LpProblem, LpStatus, solve_lp
from .model import ClippedNormSurrogate, CompetitiveSolution, FeasibleSet, SolveDiagnostics


class SolveError(RuntimeError):
    """Raised when a solver cannot certify an answer."""


@dataclass
class SolveConfig:
    norm: Norm = Norm.L2
    gamma_tolerance: float = 1e-6
    feasibility_tolerance: float = 1e-7

    def __post_init__(self):
        self.norm = Norm(self.norm)
        # NaN fails every comparison, so this form rejects it too
        if not (0 < self.gamma_tolerance < np.inf and 0 < self.feasibility_tolerance < np.inf):
            raise ValueError("tolerances must be positive and finite")


# The log-barrier method of `_barrier` (Boyd & Vandenberghe, *Convex
# Optimization*, 11.3).
BARRIER_GROWTH = 20.0  # factor on the barrier weight tau between centerings
# a centering ends once half the squared Newton decrement is at most this, or
# at most the rounding of the barrier objective where that is larger
CENTERED = 1e-8
BACKTRACK = 0.25  # step factor of the backtracking line search
ARMIJO = 0.01  # share of the predicted decrease a step must achieve
MIN_STEP = 1e-4  # a centering ends, without the step, once backtracking falls below this


def _barrier(table: ClippedNormSurrogate, start, region: FeasibleSet, config: SolveConfig):
    """Minimize gamma by the log-barrier method over y = (x, t), t = gamma^2;
    returns (x, Newton steps, method).

    The rows of the l2 ``table``: a clip row (rate, lo, hi) gives
    ||rate_i (x - clamp(x, lo_i, hi_i))||^2 < t, a cap row gives
    sum_j curv_k u_j^2 + grad_kj u_j < sqrt(t) with u = x - center_k, where
    curv and grad are the row's curvature and gradient over its value.
    The region adds x_j > lower_j and a.x < b + feasibility_tolerance * ||a||
    per halfspace; the widening gives a region without interior one.  A
    centering is damped Newton on tau*t - sum log(slack) + sum slack/slack0
    over the region rows and the x part of the hyperplane rows (curv 0), the
    rows whose slack can grow without bound; slack0 is the slack at the start,
    and the term keeps the iterates from running off along directions no
    other row bounds.  A centering ends when half the squared Newton
    decrement, the decrease a full step predicts, is at most ``CENTERED`` or
    at most 4 eps tau t: the line search sees a decrease only through
    tau * (t1 - t), which rounds at about eps tau t, so below that floor it
    cannot tell a step from noise and would crawl (Boyd & Vandenberghe 9.5).
    The search starts at ``start`` when it is strictly inside the widened
    region; otherwise it starts halfway from the point of deepest region slack
    to where the segment from that point toward ``start`` leaves the region,
    so no projection is needed.
    """
    rate, lo, hi, center = table.rate, table.lo, table.hi, table.center
    curv, grad = table.curvature / table.value, table.grad / table.value[:, None]
    dim, lower = region.dim, region.lower
    if curv.size:  # caps need the row t > 0: a clip row of rate 0
        rate, lo, hi = (np.append(rate, 0.0), np.vstack([lo, np.full(dim, -np.inf)]),
                        np.vstack([hi, np.full(dim, np.inf)]))
    bounded, deepest = np.flatnonzero(np.isfinite(lower)), region.slack_lp(config.feasibility_tolerance)
    normals, rhs = region.normals, deepest.b_ub[bounded.size:]  # rhs of the widened halfspaces
    # region rows: slack = fixed . y + region_slack(0), with fixed's t column 0
    fixed = -deepest.a_ub
    fixed[:, dim] = 0.0

    def region_slack(x):
        return np.concatenate([x[bounded] - lower[bounded], rhs - normals @ x])

    m, k = rate.size, curv.size
    rate2, n = rate * rate, m + k + len(fixed)

    def slacks(x, t):
        h, u = harm(x, lo, hi), x - center
        s = np.concatenate([t - rate2 * np.einsum("ij,ij->i", h, h),
                            np.sqrt(max(t, 0.0)) - np.einsum("ij,ij->i", u, curv[:, None] * u + grad),
                            region_slack(x)])
        return s, h, u

    x = np.asarray(start, dtype=float)
    if not np.all(region_slack(x) > 0):
        deep = solve_lp(deepest)
        if deep.status != LpStatus.OPTIMAL:
            raise SolveError(f"interior-point LP ended with status {deep.status.value}")
        d, sd, sx = deep.x[:dim], region_slack(deep.x[:dim]), region_slack(x)
        shrink = sx < sd
        theta = min(1.0, np.min(sd[shrink] / (sd[shrink] - sx[shrink]), initial=1.0))
        x = d + 0.5 * theta * (x - d)
    t = (1.0 + table.certify(x)) ** 2
    s, h, u = slacks(x, t)
    if not np.all(s > 0):
        raise SolveError("the region has no interior point")
    # the gradient of the slack/slack0 terms, which are linear in y
    lin = fixed.T @ (1.0 / s[m + k:])
    lin[:dim] -= ((curv == 0) / s[m:m + k]) @ grad
    # H is singular along directions no row depends on: within the coordinates
    # without a lower bound that no clip row is outside its box in, those
    # normal to every hyperplane row and halfspace; quadratic caps leave none
    free_coords = ~np.isfinite(lower) & np.all(curv == 0)
    planes = np.vstack([grad[curv == 0], normals])
    planes /= np.linalg.norm(planes, axis=1)[:, None]
    G = np.zeros((n, dim + 1))
    G[m + k:], G[:m, dim] = fixed, 1.0
    tau, steps, eps = n / t, 0, np.finfo(float).eps
    while True:
        while True:  # centering
            G[:m, :dim] = -2.0 * rate2[:, None] * h
            G[m:m + k, :dim] = -(2.0 * curv[:, None] * u + grad)
            G[m:m + k, dim] = 0.5 / np.sqrt(t)
            W = G / s[:, None]
            g = lin - W.sum(axis=0)
            g[dim] += tau
            outside = h != 0
            H = W.T @ W + np.diag(np.append(
                2.0 * (np.sum(outside * (rate2 / s[:m])[:, None], axis=0) + np.sum(curv / s[m:m + k])),
                0.25 * np.sum(1.0 / s[m:m + k]) / t ** 1.5))
            free = free_coords & ~np.any(outside, axis=0)
            if free.any():  # solve on the complement of the flat directions
                _, sv, vt = np.linalg.svd(planes[:, free])
                flat = np.zeros((dim + 1, free.sum()))
                flat[free.nonzero()] = vt.T
                flat = flat[:, np.sum(sv > 1e-10):]
                keep = np.eye(dim + 1) - flat @ flat.T
                H, g = keep @ H @ keep + flat @ flat.T, keep @ g
            try:
                dy = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                dy = np.linalg.lstsq(H, -g, rcond=None)[0]
            slope = float(g @ dy)  # minus the squared Newton decrement
            # the Armijo test sees the predicted decrease -slope/2 through
            # tau * (t1 - t), whose rounding is about eps * tau * t; four such
            # units leave room for the rounding of the log and linear terms
            if not -0.5 * slope > max(CENTERED, 4.0 * eps * tau * t):
                break
            step = 1.0
            while step >= MIN_STEP:
                x1, t1 = x + step * dy[:dim], t + step * dy[dim]
                s1, h1, u1 = slacks(x1, t1)
                if np.all(s1 > 0) and (tau * (t1 - t) - np.sum(np.log(s1 / s))
                                       + step * float(lin @ dy) <= ARMIJO * step * slope):
                    break
                step *= BACKTRACK
            else:
                break
            x, t, s, h, u = x1, t1, s1, h1, u1
            steps += 1
        if np.sqrt(t) - np.sqrt(max(t - n / tau, 0.0)) <= config.gamma_tolerance:
            break
        tau *= BARRIER_GROWTH
    return x, steps, "barrier-mixed" if curv.size else "barrier-l2"


def _zero_lp(table: ClippedNormSurrogate, region: FeasibleSet):
    """A point where every clip row of ``table`` needs gamma 0, by one LP;
    returns (x, pivots, method), or None when gamma must be positive or the
    table has a cap row.

    Such a point lies in the region and in every clip row's safe box, that is
    in the box intersection [max lo, min hi].  An empty intersection needs no
    LP; otherwise a feasibility LP over the true region, with the intersection
    as variable bounds, decides it.  The point is clipped into the box, so
    its certificate is exactly 0.
    """
    if table.curvature.size:
        return None
    lo, hi = np.maximum(table.lo.max(axis=0), region.lower), table.hi.min(axis=0)
    if np.any(lo > hi):
        return None
    sol = solve_lp(LpProblem(c=np.zeros(region.dim), a_ub=region.normals, b_ub=region.rhs,
                             lower=lo, upper=hi))
    if sol.status == LpStatus.INFEASIBLE:
        return None
    if sol.status != LpStatus.OPTIMAL:
        raise SolveError(f"zero-gamma LP ended with status {sol.status.value}")
    return np.clip(sol.x, lo, hi), sol.iterations, "zero-lp"


def _check_dims(refs, dim: int) -> None:
    for r in refs:
        if r.dim != dim:
            raise ValueError(f"metric {r.id!r} has dimension {r.dim}, region has {dim}")


def _solve(refs, region: FeasibleSet, config: SolveConfig) -> CompetitiveSolution:
    """Minimize gamma over the constraint table of ``refs`` in ``config.norm``, the
    one `caolf verify` and `grid_oracle_caolf` read: one clip row per safe box.
    Every solution is built here: the reported gamma is the table's certificate
    at the returned point, and the residual is the point's region violation."""
    refs = list(refs)
    _check_dims(refs, region.dim)
    table = ClippedNormSurrogate(refs, config.norm)
    if not table.owner.size:
        raise ValueError("no usable constraint models")
    if config.norm != Norm.L2:
        x, iterations, method = _solve_caolf_lp(table, region, config)
    else:
        x, iterations, method = _zero_lp(table, region) or _barrier(
            table, np.mean([r.x_ref for r in refs], axis=0), region, config)
    if not np.all(np.isfinite(x)):
        raise SolveError(f"the {method} solve returned a non-finite point")
    # hard lower bounds hold exactly so downstream metric evaluation never
    # sees a tolerance-scale negative capacity
    x = np.maximum(x, region.lower)
    gamma = table.certify(x)
    diag = SolveDiagnostics(iterations=iterations, residual=region.violation(x), method=method)
    return CompetitiveSolution(x=x, gamma=gamma, diagnostics=diag)


def solve_caolf(refs, region: FeasibleSet, config: SolveConfig | None = None) -> CompetitiveSolution:
    """Minimize the tolerance gamma subject to one clipped-norm radius per model.

    Each Lipschitz model stated in the configured norm contributes the
    constraint that the clipped displacement from its metric's reference
    stays within gamma * value / bound; in the l2 norm, hyperplane and
    quadratic models add their caps as in `solve_approx`.  Models that share
    a reference point and effective monotonicity are solved as one, at the
    largest rate of the group, which certifies every one of them.  The
    reported gamma is certified at the returned point, so it never
    understates what the point achieves.
    """
    return _solve(refs, region, config or SolveConfig())


def _solve_caolf_lp(surrogate: ClippedNormSurrogate, region, config):
    """Epigraph linear program for the L1 and LINF radius constraints;
    returns (x, pivots, method).

    Layout: decision coordinates, then (L1 only) one magnitude variable per
    coordinate of each clip row, then gamma last.  A clip row gives a row per
    finite end of its box [lo, hi]: x_j - hi_j <= bound where hi_j is finite
    and lo_j - x_j <= bound where lo_j is finite.  Under L1 the bound is the
    coordinate's magnitude variable, and one sum row per clip row caps their
    sum at gamma/rate; under LINF each bound is gamma/rate itself.
    """
    dim, count = region.dim, surrogate.rate.size
    n_var = dim + (count * dim if config.norm == Norm.L1 else 0) + 1
    # one row per (clip row, coordinate, direction) in that order, + before -
    ends = np.stack([surrogate.hi, -surrogate.lo], axis=2)
    ref_i, coord, side = np.nonzero(np.isfinite(ends))
    rows = np.arange(side.size)
    a_ub = np.zeros((side.size, n_var))
    a_ub[rows, coord] = 1.0 - 2.0 * side
    b_ub = ends[ref_i, coord, side]
    if config.norm == Norm.L1:
        a_ub[rows, dim + ref_i * dim + coord] = -1.0
        sums = np.hstack([np.zeros((count, dim)), np.kron(np.eye(count), np.ones(dim)),
                          -1.0 / surrogate.rate[:, None]])
        # each clip row's sum row follows its last coordinate row
        ends = np.searchsorted(ref_i, np.arange(count), side="right")
        a_ub, b_ub = np.insert(a_ub, ends, sums, axis=0), np.insert(b_ub, ends, 0.0)
    else:
        a_ub[:, -1] = -1.0 / surrogate.rate[ref_i]
    a_ub = np.vstack([a_ub, np.pad(region.normals, ((0, 0), (0, n_var - dim)))])
    b_ub = np.concatenate([b_ub, region.rhs])

    lower = np.concatenate([region.lower, np.zeros(n_var - dim)])
    c = np.zeros(n_var)
    c[-1] = 1.0
    problem = LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, lower=lower)
    sol = solve_lp(problem)
    if sol.status != LpStatus.OPTIMAL:
        raise SolveError(f"epigraph LP ended with status {sol.status.value}")
    return sol.x[:dim], sol.iterations, f"epigraph-lp-{config.norm.value}"


def solve_approx(refs, region: FeasibleSet, config: SolveConfig | None = None) -> CompetitiveSolution:
    """Mixed-model variant: metrics may carry clipped-norm radii (Euclidean),
    supporting-hyperplane caps, or curvature-augmented tangent caps, in any
    combination; all of a metric's models constrain simultaneously.
    """
    config = config or SolveConfig()
    if config.norm != Norm.L2:
        raise ValueError("the mixed-model solver works in the l2 norm")
    return _solve(refs, region, config)


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
    every slack is at most gamma (plus ``VERIFY_REL_TOL``).  A NaN gamma
    raises, since no slack compares with it; a negative one is allowed.
    """
    if math.isnan(gamma):
        raise ValueError("gamma must not be NaN")
    x = np.asarray(x, dtype=float)
    slacks = np.asarray([_relative_slack(float(evaluate(x)), value, sense)
                         for evaluate, value, sense in _checked_metrics(metrics)])
    ok = bool(np.all(slacks <= gamma + VERIFY_REL_TOL))
    return slacks, ok


def _grid_points(region: FeasibleSet, resolution: int, box) -> np.ndarray:
    """The points of a regular grid over ``box`` that lie in ``region``, as
    rows (P, dim) in `itertools.product` order: the last coordinate fastest."""
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
    mesh = np.meshgrid(*(np.linspace(lo, hi, resolution) for lo, hi in box), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[region.violation(pts) <= GRID_MEMBERSHIP_TOL]
    if len(pts) == 0:
        raise ValueError("no grid point fell inside the region; enlarge the box or resolution")
    return pts


def grid_oracle_swcm(metrics, region: FeasibleSet, resolution: int, box):
    """Brute-force the smallest worst-case relative slack on a dense grid.

    ``metrics`` is an iterable of (evaluator, reference_value, sense).
    Independent of the solvers by construction: it evaluates the metrics
    themselves, not any surrogate model.  Returns (gamma, point).
    """
    metrics = _checked_metrics(metrics)
    if not metrics:
        raise ValueError("need at least one metric")
    pts = _grid_points(region, resolution, box)
    worst = np.zeros(len(pts))
    for k, p in enumerate(pts):
        for i, (evaluate, value, sense) in enumerate(metrics):
            slack = _relative_slack(float(evaluate(p)), value, sense)
            if math.isnan(slack):
                raise ValueError(f"metric {i} evaluates to NaN at {p.tolist()}")
            worst[k] = max(worst[k], slack)
    k = int(np.argmin(worst))
    return float(worst[k]), pts[k]


def grid_oracle_caolf(refs, region: FeasibleSet, resolution: int, box, norm: Norm = Norm.L2):
    """Brute-force the smallest surrogate gamma on a dense grid.

    Same search as `grid_oracle_swcm` but over the largest row need of the
    constraint table, every clip and cap row of the solvers, vectorized over
    the grid.  Returns (gamma, point).
    """
    refs = list(refs)
    _check_dims(refs, region.dim)
    pts = _grid_points(region, resolution, box)
    worst = ClippedNormSurrogate(refs, norm).on_grid(pts)
    i = int(np.argmin(worst))
    return float(worst[i]), pts[i]
