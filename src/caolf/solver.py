"""Solvers for the competitive-tolerance problem and its verification oracles.

Minimizing the tolerance gamma is a convex program: stay inside the decision
region while keeping each metric's clipped displacement norm within a radius
proportional to gamma.  Euclidean instances, and mixed models, are solved by
the log-barrier method over (x, gamma^2); L1 and LINF instances have
polyhedral radius constraints and go through the simplex kernel as one
epigraph linear program instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import ClippedNormSurrogate, Norm, Sense, clip, norm_value
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


# The log-barrier method of `_barrier` (Boyd & Vandenberghe, *Convex
# Optimization*, 11.3).
BARRIER_GROWTH = 20.0  # factor on the barrier weight tau between centerings
CENTERED = 1e-8  # a centering ends once half the squared Newton decrement is at most this
BACKTRACK = 0.25  # step factor of the backtracking line search
ARMIJO = 0.01  # share of the predicted decrease a step must achieve
MIN_STEP = 1e-4  # a centering ends, without the step, once backtracking falls below this


def _stack(rows, dim: int):
    """(scalar, vector, vector) rows as arrays of shapes (k,), (k, dim), (k, dim)."""
    return (np.array([c for c, _, _ in rows], dtype=float),
            np.reshape([v for _, v, _ in rows], (-1, dim)),
            np.reshape([w for _, _, w in rows], (-1, dim)))


def _barrier(clips, caps, certify, start, region: FeasibleSet, config: SolveConfig,
             method: str) -> CompetitiveSolution:
    """Minimize gamma by the log-barrier method over y = (x, t), t = gamma^2.

    The rows, each stacked by `_stack`: ``clips`` = (rate, lo, hi) gives
    ||rate_i (x - clamp(x, lo_i, hi_i))||^2 < t, ``caps`` = (curv, center, grad)
    gives sum_j curv_k u_j^2 + grad_kj u_j < sqrt(t) with u = x - center_k.
    The region adds x_j > lower_j and a.x < b + feasibility_tolerance * ||a||
    per halfspace; the widening gives a region without interior one.  A
    centering is damped Newton on tau*t - sum log(slack) + sum slack/slack0
    over the region rows and the x part of the hyperplane rows (curv 0), the
    rows whose slack can grow without bound; slack0 is the slack at the start,
    and the term keeps the iterates from running off along directions no
    other row bounds.  The search starts at ``start``, or midway between its
    projection into the region and the point of deepest region slack.  The
    reported gamma is ``certify`` at the returned point.
    """
    (rate, lo, hi), (curv, center, grad) = clips, caps
    dim, lower = region.dim, region.lower
    if curv.size:  # caps need the row t > 0: a clip row of rate 0
        rate, lo, hi = (np.append(rate, 0.0), np.vstack([lo, np.full(dim, -np.inf)]),
                        np.vstack([hi, np.full(dim, np.inf)]))
    bounded = np.flatnonzero(np.isfinite(lower))
    normals = np.reshape([a for a, _ in region.halfspaces], (-1, dim))
    rhs = np.array([b for _, b in region.halfspaces], dtype=float) \
        + config.feasibility_tolerance * np.linalg.norm(normals, axis=1)
    # region rows: slack = fixed . y + region_slack(0), with fixed's t column 0
    fixed = np.zeros((bounded.size + len(normals), dim + 1))
    fixed[np.arange(bounded.size), bounded] = 1.0
    fixed[bounded.size:, :dim] = -normals

    def region_slack(x):
        return np.concatenate([x[bounded] - lower[bounded], rhs - normals @ x])

    m, k = rate.size, curv.size
    rate2, n = rate * rate, m + k + len(fixed)

    def slacks(x, t):
        h, u = x - np.clip(x, lo, hi), x - center
        s = np.concatenate([t - rate2 * np.einsum("ij,ij->i", h, h),
                            np.sqrt(max(t, 0.0)) - np.einsum("ij,ij->i", u, curv[:, None] * u + grad),
                            region_slack(x)])
        return s, h, u

    x = np.asarray(start, dtype=float)
    if not np.all(region_slack(x) > 0):
        deep = solve_lp(LpProblem(
            c=-np.eye(dim + 1)[dim], a_ub=np.column_stack([-fixed[:, :dim], np.ones(len(fixed))]),
            b_ub=region_slack(np.zeros(dim)), lower=np.full(dim + 1, -np.inf),
            upper=np.append(np.full(dim, np.inf), 1.0)))
        if deep.status != LpStatus.OPTIMAL:
            raise SolveError(f"interior-point LP ended with status {deep.status.value}")
        near = region.find_point(x, tol=min(1e-9, config.feasibility_tolerance))
        x = 0.5 * (near + deep.x[:dim])
    t = (1.0 + certify(x)) ** 2
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
    tau, steps = n / t, 0
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
            if not -0.5 * slope > CENTERED:
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
    # hard lower bounds hold exactly so downstream metric evaluation never
    # sees a tolerance-scale negative capacity
    x = np.maximum(x, lower)
    diag = SolveDiagnostics(iterations=steps, residual=region.violation(x), method=method)
    return CompetitiveSolution(x=x, gamma=certify(x), diagnostics=diag)


def _check_dims(refs, dim: int) -> None:
    for r in refs:
        if r.dim != dim:
            raise ValueError(f"metric {r.id!r} has dimension {r.dim}, region has {dim}")


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
    _check_dims(refs, region.dim)
    surrogate = ClippedNormSurrogate(refs, config.norm).merged()
    if config.norm != Norm.L2:
        return _solve_caolf_lp(surrogate, region, config)
    return _barrier((surrogate.rate, surrogate.lo, surrogate.hi), _stack([], region.dim),
                    surrogate.certify, np.mean([r.x_ref for r in refs], axis=0), region, config,
                    method="barrier-l2")


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
    """Model ``m`` of metric ``r`` as (barrier row, gamma needed at x); None
    for a hyperplane model with a zero gradient, which holds everywhere.  A
    row is ("clip", rate, lo, hi) or ("cap", curvature, center, gradient) in
    the terms of `_barrier`, already divided by the reference value."""
    ref, v = r.x_ref, r.value
    if isinstance(m, LipschitzNorm):
        if m.norm != Norm.L2:
            raise ValueError(f"metric {r.id!r}: only l2 Lipschitz models are usable here, got {m.norm.value}")
        geom, rate = r.geometry(m), m.bound / v
        return (("clip", rate, geom.lo, geom.hi),
                lambda x: rate * norm_value(clip(x, geom), Norm.L2))
    if isinstance(m, ConcaveLinear):
        if float(np.dot(m.grad, m.grad)) == 0.0:
            return None
        return (("cap", 0.0, ref, m.grad / v),
                lambda x: float(np.dot(m.grad, x - ref)) / v)
    if isinstance(m, ConvexQuadratic):
        a, lip = m.grad, m.curvature
        return (("cap", lip / v, ref, a / v),
                lambda x: (lip * float(np.dot(x - ref, x - ref)) + float(np.dot(a, x - ref))) / v)
    raise TypeError(f"unknown constraint model {type(m).__name__}")


def model_entries(refs, dim: int) -> list[list[tuple]]:
    """Per metric, the (barrier row, gamma needed at x) pair of each usable
    model, in model order: the constraints `solve_approx` solves with."""
    _check_dims(refs, dim)
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
    rows = {"clip": [], "cap": []}
    for (kind, *row), _ in entries:
        rows[kind].append(row)

    def certify(x):
        return max([0.0] + [need(x) for _, need in entries])

    return _barrier(_stack(rows["clip"], region.dim), _stack(rows["cap"], region.dim), certify,
                    np.mean([r.x_ref for r in refs], axis=0), region, config,
                    method="barrier-mixed")


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
    refs = list(refs)
    _check_dims(refs, region.dim)
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
