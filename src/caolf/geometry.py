"""Norms, the monotonicity-aware clip operator, and projectable sets.

Every metric has a reference point, per-coordinate monotonicity tags and a
sense.  `MetricRef.safe_box` turns them into the reference's safe box
[lo, hi]: the points reached from the reference by harmless movement only,
movement that cannot increase a minimized metric (or decrease a maximized
one).  The harmful movement is the displacement out of that box; `clip`
gives it signed, `harm` without the sign flip.  Norms of the harmful
movement are what the solvers bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np


class Norm(str, Enum):
    """Which norm a Lipschitz bound is stated in."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


_DUAL = {Norm.L1: Norm.LINF, Norm.L2: Norm.L2, Norm.LINF: Norm.L1}


def norm_value(v, kind: Norm) -> float:
    """Evaluate ``kind`` on vector ``v``."""
    v = np.asarray(v, dtype=float)
    if kind == Norm.L1:
        return float(np.sum(np.abs(v)))
    if kind == Norm.L2:
        return float(np.sqrt(np.dot(v, v)))
    if kind == Norm.LINF:
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm kind: {kind!r}")


def dual_norm_value(v, kind: Norm) -> float:
    """Evaluate the dual norm of ``kind`` on vector ``v``."""
    return norm_value(v, _DUAL[kind])


class Mono(IntEnum):
    """Per-coordinate monotonicity of a metric."""

    DECREASING = -1
    NON_MONOTONE = 0
    INCREASING = 1


def as_mono_array(mono) -> np.ndarray:
    """Coerce a monotonicity signature, one entry per coordinate, into an
    int8 array of -1/0/+1 entries.

    Accepts Mono members, integral numbers (not bools; 1.0 but not 0.5), or
    the strings "inc"/"dec"/"none".  A signature that is not 1-D raises.
    """
    names = {"inc": 1, "dec": -1, "none": 0}
    if np.ndim(mono) != 1:
        raise ValueError("a monotonicity signature needs one entry per coordinate")
    out = np.empty(len(mono), dtype=np.int8)
    for j, m in enumerate(mono):
        if isinstance(m, str):
            if m not in names:
                raise ValueError(f"bad monotonicity tag {m!r}")
            out[j] = names[m]
        else:
            if isinstance(m, (bool, np.bool_)) or m not in (-1, 0, 1):
                raise ValueError(f"monotonicity entries must be -1, 0 or +1, got {m}")
            out[j] = m
    return out


class Sense(str, Enum):
    """Whether a metric is to be kept low or kept high."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


def harm(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x - clamp(x, lo, hi): the displacement out of the safe box, `clip` without its sign flip."""
    return x - np.minimum(np.maximum(x, lo), hi)


def clip(x, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Harmful part of the displacement from the reference to ``x``, given
    the reference's safe box [lo, hi] (`MetricRef.safe_box`).

    Coordinates the metric (effectively) increases in keep only positive
    displacement, decreasing coordinates keep only negative displacement
    (sign-flipped), and non-monotone coordinates keep the displacement as is.
    The reference point is finite, so hi is +inf exactly on the decreasing
    coordinates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != lo.shape:
        raise ValueError(f"point has shape {x.shape}, reference has {lo.shape}")
    p = np.minimum(np.maximum(x, lo), hi)
    return np.where(hi == np.inf, p - x, x - p)


# ---------------------------------------------------------------------------
# Projectable sets and the alternating-projection feasibility routine.


class LowerBoundSet:
    """{x : x >= lower} with -inf entries allowed."""

    def __init__(self, lower):
        self.lower = np.asarray(lower, dtype=float)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, self.lower)

    def violation(self, x: np.ndarray) -> float:
        return norm_value(np.maximum(self.lower - x, 0.0), Norm.L2)


class HalfspaceSet:
    """{x : a.x <= b}."""

    def __init__(self, a, b: float):
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)
        if float(np.dot(self.a, self.a)) <= 0.0:
            raise ValueError("halfspace normal must be nonzero")

    def project(self, x: np.ndarray) -> np.ndarray:
        excess = float(np.dot(self.a, x)) - self.b
        if excess <= 0.0:
            return x.copy()
        return x - (excess / float(np.dot(self.a, self.a))) * self.a

    def violation(self, x: np.ndarray) -> float:
        excess = float(np.dot(self.a, x)) - self.b
        return max(0.0, excess) / norm_value(self.a, Norm.L2)


class ClippedBallSet:
    """{x : ||clip(x, lo, hi)||_2 <= radius}; radius 0 gives the safe box [lo, hi].

    The set is the safe box fattened by ``radius``, so the projection moves
    straight toward the nearest safe point (the clamp into the box, nearest
    in every p-norm) until the clipped norm equals the radius.  Only the
    Euclidean case exists; L1/LINF instances go through the LP path.
    """

    def __init__(self, lo, hi, radius: float):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.radius = float(radius)

    def project(self, x: np.ndarray) -> np.ndarray:
        p = np.minimum(np.maximum(x, self.lo), self.hi)
        d = x - p
        gn = norm_value(d, Norm.L2)
        if gn <= self.radius:
            return x.copy()
        return p + (self.radius / gn) * d

    def violation(self, x: np.ndarray) -> float:
        d = x - np.minimum(np.maximum(x, self.lo), self.hi)
        return max(0.0, norm_value(d, Norm.L2) - self.radius)


class BallSet:
    """{x : ||x - center||_2 <= radius}."""

    def __init__(self, center, radius: float):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        dn = norm_value(d, Norm.L2)
        if dn <= self.radius:
            return x.copy()
        return self.center + (self.radius / dn) * d

    def violation(self, x: np.ndarray) -> float:
        return max(0.0, norm_value(x - self.center, Norm.L2) - self.radius)


@dataclass
class ProjectionRun:
    """Outcome of an alternating-projection pass over a family of sets.

    A run that did not converge reports the best residual it saw, at ``x``.
    """

    x: np.ndarray
    residual: float
    iterations: int
    converged: bool


def max_violation(sets: Sequence, x: np.ndarray) -> float:
    return max((s.violation(x) for s in sets), default=0.0)


# Stall rule of the projection loop: it stops once the best residual
# has gained less than STALL_RTOL (relative) over STALL_WINDOW cycles, or has
# not moved at all for STALL_FROZEN cycles, which means the iteration is
# periodic (disjoint sets) and the full window need not be waited out.
STALL_WINDOW = 100
STALL_RTOL = 1e-4
STALL_FROZEN = STALL_WINDOW // 4


def _stalled(history: list, tol: float) -> bool:
    """Whether ``history``, the best residual after each cycle, has stalled."""
    n, best = len(history), history[-1]
    if n > STALL_FROZEN and history[-STALL_FROZEN - 1] - best <= 0.0:
        return True
    return n > STALL_WINDOW and history[-STALL_WINDOW - 1] - best <= STALL_RTOL * max(best, tol)


def dykstra(sets: Sequence, start, tol: float = 1e-9, max_iters: int = 5000) -> ProjectionRun:
    """Dykstra's alternating projections onto the intersection of ``sets``.

    Keeps one correction increment per set so the limit is the true projection
    of ``start`` when the intersection is non-empty.  The loop exits early when
    the best residual stalls, which is the practical signal for an empty
    intersection (or a tangency too slow to be worth chasing).
    """
    x = np.array(start, dtype=float)
    sets = list(sets)
    if not sets:
        return ProjectionRun(x=x, residual=0.0, iterations=0, converged=True)
    start_res = max_violation(sets, x)
    if start_res <= tol:
        return ProjectionRun(x=x, residual=start_res, iterations=0, converged=True)
    increments = [np.zeros_like(x) for _ in sets]
    best = np.inf  # best cycle-end residual; the raw start does not count
    best_x = x.copy()
    history = []
    for it in range(1, max_iters + 1):
        for k, s in enumerate(sets):
            shifted = x + increments[k]
            y = s.project(shifted)
            increments[k] = shifted - y
            x = y
        res = max_violation(sets, x)
        if res < best:
            best = res
            best_x = x.copy()
        if best <= tol:
            return ProjectionRun(x=best_x, residual=best, iterations=it, converged=True)
        history.append(best)
        if _stalled(history, tol):
            break
    return ProjectionRun(x=best_x, residual=best, iterations=len(history), converged=False)
