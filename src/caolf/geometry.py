"""Norms, the monotonicity-aware clip operator, and projectable sets.

Every metric carries a reference point together with per-coordinate
monotonicity tags.  The clip operator turns the displacement from that
reference into a vector of *harmful* movement only: movement in a direction
that cannot increase a minimized metric (or decrease a maximized one) is
zeroed out.  Norms of clipped displacements are what the solvers bound.
The points with zero clip form a box, the reference's safe region, and the
harmful movement is the displacement out of that box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def as_mono_array(mono, dim: int | None = None) -> np.ndarray:
    """Coerce a monotonicity signature into an int8 array of -1/0/+1 entries.

    Accepts Mono members, integral numbers (not bools; 1.0 but not 0.5), or
    the strings "inc"/"dec"/"none".  A scalar is broadcast to ``dim``.
    """
    names = {"inc": 1, "dec": -1, "none": 0}
    if np.ndim(mono) == 0:
        if dim is None:
            raise ValueError("scalar monotonicity signature needs an explicit dimension")
        mono = [mono] * dim
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
    if dim is not None and out.size != dim:
        raise ValueError(f"monotonicity signature has length {out.size}, expected {dim}")
    return out


class Sense(str, Enum):
    """Whether a metric is to be kept low or kept high."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True, eq=False)
class RefGeometry:
    """A reference point plus the monotonicity pattern of one metric.

    ``sense`` flips the harmful direction: for a maximized metric, moving a
    coordinate the metric increases in can only help, so the roles of
    increasing and decreasing coordinates swap.
    """

    x_ref: np.ndarray
    mono: np.ndarray
    sense: Sense = Sense.MINIMIZE
    # monotonicity after folding in the optimization sense
    eff_mono: np.ndarray = field(init=False, repr=False)
    # the safe region: the box [lo, hi] on which the clipped displacement is 0
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_ref", np.asarray(self.x_ref, dtype=float))
        object.__setattr__(self, "mono", as_mono_array(self.mono, dim=self.x_ref.size))
        if self.x_ref.ndim != 1 or self.x_ref.size == 0:
            raise ValueError("reference point must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.x_ref)):
            raise ValueError("reference point must be finite")
        eff = (-self.mono).astype(np.int8) if self.sense == Sense.MAXIMIZE else self.mono
        object.__setattr__(self, "eff_mono", eff)
        object.__setattr__(self, "lo", np.where(eff > 0, -np.inf, self.x_ref))
        object.__setattr__(self, "hi", np.where(eff < 0, np.inf, self.x_ref))

    @property
    def dim(self) -> int:
        return self.x_ref.size


def harm(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x - clamp(x, lo, hi): the displacement out of the safe box, `clip` without its sign flip."""
    return x - np.minimum(np.maximum(x, lo), hi)


def clip(x, geom: RefGeometry) -> np.ndarray:
    """Harmful part of the displacement from ``geom.x_ref`` to ``x``.

    Coordinates the metric (effectively) increases in keep only positive
    displacement, decreasing coordinates keep only negative displacement
    (sign-flipped), and non-monotone coordinates keep the displacement as is.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != geom.x_ref.shape:
        raise ValueError(f"point has shape {x.shape}, reference has {geom.x_ref.shape}")
    p = np.minimum(np.maximum(x, geom.lo), geom.hi)
    return np.where(geom.eff_mono < 0, p - x, x - p)


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
    """{x : ||clip(x, geom)||_2 <= radius}; radius 0 gives the safe region.

    The set is the safe box fattened by ``radius``, so the projection moves
    straight toward the nearest safe point (the clamp into the box, nearest
    in every p-norm) until the clipped norm equals the radius.  Only the
    Euclidean case exists; L1/LINF instances go through the LP path.
    """

    def __init__(self, geom: RefGeometry, radius: float):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.geom = geom
        self.radius = float(radius)

    def project(self, x: np.ndarray) -> np.ndarray:
        p = np.minimum(np.maximum(x, self.geom.lo), self.geom.hi)
        d = x - p
        gn = norm_value(d, Norm.L2)
        if gn <= self.radius:
            return x.copy()
        return p + (self.radius / gn) * d

    def violation(self, x: np.ndarray) -> float:
        d = x - np.minimum(np.maximum(x, self.geom.lo), self.geom.hi)
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
