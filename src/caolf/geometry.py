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

import copy
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

    Accepts Mono members, ints, or the strings "inc"/"dec"/"none".
    A scalar is broadcast to ``dim``.
    """
    names = {"inc": 1, "dec": -1, "none": 0}
    if isinstance(mono, (Mono, int, str)) and not isinstance(mono, bool):
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
            val = int(m)
            if val not in (-1, 0, 1):
                raise ValueError(f"monotonicity entries must be -1, 0 or +1, got {val}")
            out[j] = val
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


def _harm(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """Per-coordinate distance of ``x`` out of the safe box [lo, hi], signed by ``eff``."""
    p = np.minimum(np.maximum(x, lo), hi)
    return np.where(eff < 0, p - x, x - p)


def clip(x, geom: RefGeometry) -> np.ndarray:
    """Harmful part of the displacement from ``geom.x_ref`` to ``x``.

    Coordinates the metric (effectively) increases in keep only positive
    displacement, decreasing coordinates keep only negative displacement
    (sign-flipped), and non-monotone coordinates keep the displacement as is.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != geom.x_ref.shape:
        raise ValueError(f"point has shape {x.shape}, reference has {geom.x_ref.shape}")
    return _harm(x, geom.lo, geom.hi, geom.eff_mono)


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


class ClippedNormSurrogate:
    """The clipped-norm surrogate of m metric references in one norm.

    Reference i admits a point x at tolerance gamma when
    rate_i * ||clip_i(x)|| <= gamma, where clip_i folds in the metric's sense
    and monotonicity and rate_i = bound_i / value_i.  Built once from metric
    references (`MetricRef`), each through its Lipschitz model in ``norm``.
    """

    def __init__(self, refs, norm: Norm):
        refs = list(refs)
        if not refs:
            raise ValueError("need at least one metric reference")
        norm = Norm(norm)
        models = [r.lipschitz_model(norm) for r in refs]
        self.norm = norm
        self.ids = tuple(r.id for r in refs)
        self.geoms = tuple(r.geometry(m) for r, m in zip(refs, models))
        self.x_ref = np.array([g.x_ref for g in self.geoms])        # (m, d)
        self.eff_mono = np.array([g.eff_mono for g in self.geoms])  # (m, d)
        self.lo = np.array([g.lo for g in self.geoms])              # (m, d)
        self.hi = np.array([g.hi for g in self.geoms])              # (m, d)
        self.rate = np.array([m.bound / r.value for r, m in zip(refs, models)])

    def merged(self) -> "ClippedNormSurrogate":
        """The same surrogate with one reference per distinct geometry.

        References with equal ``x_ref`` and ``eff_mono`` have the same clipped
        displacement at every x, so of each such group only the largest rate
        can bind; it is kept (the first on a tie), in the original order.
        Rounding is monotone in the rate, so `certify` and `on_grid` of the
        result equal the full surrogate's bit for bit.
        """
        best: dict[tuple[bytes, bytes], int] = {}
        for i, key in enumerate(zip(map(np.ndarray.tobytes, self.x_ref),
                                    map(np.ndarray.tobytes, self.eff_mono))):
            j = best.setdefault(key, i)
            if self.rate[i] > self.rate[j]:
                best[key] = i
        keep = sorted(best.values())
        out = copy.copy(self)
        out.ids = tuple(self.ids[i] for i in keep)
        out.geoms = tuple(self.geoms[i] for i in keep)
        for name in ("x_ref", "eff_mono", "lo", "hi", "rate"):
            setattr(out, name, getattr(self, name)[keep])
        return out

    def needed(self, x) -> np.ndarray:
        """Smallest tolerance each reference admits ``x`` at, shape (m,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.x_ref.shape[1:]:
            raise ValueError(f"point has shape {x.shape}, references have {self.x_ref.shape[1:]}")
        harm = _harm(x, self.lo, self.hi, self.eff_mono)
        # norm_value row by row: vectorised row norms differ in the last bit
        return self.rate * np.array([norm_value(h, self.norm) for h in harm])

    def certify(self, x) -> float:
        """Smallest tolerance every reference admits ``x`` at."""
        return max(0.0, float(np.max(self.needed(x))))

    def on_grid(self, pts: np.ndarray) -> np.ndarray:
        """`certify` for each row of ``pts`` (P, d), vectorised over the rows.

        Row norms are taken with array reductions, so a value can differ
        from `certify` in the last bit.
        """
        worst = np.zeros(len(pts))
        for lo, hi, eff, rate in zip(self.lo, self.hi, self.eff_mono, self.rate):
            harm = _harm(pts, lo, hi, eff)
            if self.norm == Norm.L1:
                g = np.sum(np.abs(harm), axis=1)
            elif self.norm == Norm.L2:
                g = np.sqrt(np.sum(harm * harm, axis=1))
            else:
                g = np.max(np.abs(harm), axis=1)
            worst = np.maximum(worst, g * rate)
        return worst


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
