"""Problem data types: metric references, constraint models and their table, feasible sets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .geometry import (
    HalfspaceSet,
    LowerBoundSet,
    Norm,
    Sense,
    as_mono_array,
    dykstra,
    harm,
    norm_value,
)
from .lp import LpProblem, LpStatus, solve_lp

REGION_PROJECTION_ITERS = 10000  # cycle cap of find_point
REGION_TOL = 1e-9  # distance up to which the emptiness check takes a point as inside


@dataclass(frozen=True, eq=False)
class LipschitzNorm:
    """Metric changes by at most ``bound`` per unit of clipped movement in ``norm``."""

    bound: float
    norm: Norm
    mono: np.ndarray

    def __post_init__(self):
        if not (self.bound > 0 and np.isfinite(self.bound)):
            raise ValueError("Lipschitz bound must be positive and finite")
        # isinstance first: built in bulk, and an enum call costs ten times as much
        object.__setattr__(self, "norm", self.norm if isinstance(self.norm, Norm) else Norm(self.norm))
        mono = as_mono_array(self.mono)
        mono.flags.writeable = False  # the constraint table trusts this validation
        object.__setattr__(self, "mono", mono)


def _checked_grad(grad) -> np.ndarray:
    g = np.asarray(grad, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"gradient must be a 1-D vector, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    return g


@dataclass(frozen=True, eq=False)
class ConcaveLinear:
    """Concave metric handled through its supporting hyperplane at the reference."""

    grad: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grad", _checked_grad(self.grad))


@dataclass(frozen=True, eq=False)
class ConvexQuadratic:
    """Smooth convex metric handled through a curvature-augmented tangent bound."""

    grad: np.ndarray
    curvature: float

    def __post_init__(self):
        if not (self.curvature > 0 and np.isfinite(self.curvature)):
            raise ValueError("curvature must be positive and finite")
        object.__setattr__(self, "grad", _checked_grad(self.grad))


ConstraintModel = Union[LipschitzNorm, ConcaveLinear, ConvexQuadratic]


@dataclass(frozen=True, eq=False)
class MetricRef:
    """One historical metric: its reference point, realized value, and models.

    ``value`` is the metric evaluated at ``x_ref`` and must be positive, since
    competitiveness is stated relatively.  Each attached model licenses one
    family of surrogate constraints tying movement away from ``x_ref`` to the
    tolerance parameter.
    """

    id: str
    x_ref: np.ndarray
    value: float
    sense: Sense = Sense.MINIMIZE
    models: tuple[ConstraintModel, ...] = ()

    def __post_init__(self):
        x_ref = np.array(self.x_ref, dtype=float)  # a copy: callers share their arrays
        x_ref.flags.writeable = False
        object.__setattr__(self, "x_ref", x_ref)
        object.__setattr__(self, "sense", self.sense if isinstance(self.sense, Sense) else Sense(self.sense))
        object.__setattr__(self, "models", tuple(self.models))
        if self.x_ref.ndim != 1 or self.x_ref.size == 0:
            raise ValueError(f"metric {self.id!r}: reference point must be a 1-D vector")
        if not np.all(np.isfinite(self.x_ref)):
            raise ValueError(f"metric {self.id!r}: reference point must be finite")
        if not (self.value > 0 and np.isfinite(self.value)):
            raise ValueError(f"metric {self.id!r}: reference value must be positive, got {self.value}")
        if not self.models:
            raise ValueError(f"metric {self.id!r}: needs at least one constraint model")
        for m in self.models:
            if isinstance(m, LipschitzNorm) and m.mono.size != self.x_ref.size:
                raise ValueError(f"metric {self.id!r}: monotonicity length mismatch")
            if isinstance(m, (ConcaveLinear, ConvexQuadratic)) and m.grad.size != self.x_ref.size:
                raise ValueError(f"metric {self.id!r}: gradient length mismatch")

    @property
    def dim(self) -> int:
        return self.x_ref.size

    def lipschitz_model(self, norm: Norm) -> LipschitzNorm:
        """The attached Lipschitz model stated in ``norm``."""
        for m in self.models:
            if isinstance(m, LipschitzNorm) and m.norm == norm:
                return m
        have = [m.norm.value for m in self.models if isinstance(m, LipschitzNorm)]
        raise ValueError(
            f"metric {self.id!r} has no Lipschitz model in norm {norm.value!r} (available: {have})")

    def safe_box(self, model: LipschitzNorm) -> tuple[np.ndarray, np.ndarray]:
        """The safe box [lo, hi] of ``model``, one of this metric's Lipschitz
        models: lo is -inf where the metric, with its sense folded in,
        increases, hi is +inf where it decreases, and both are ``x_ref``
        elsewhere."""
        eff = -model.mono if self.sense == Sense.MAXIMIZE else model.mono
        return np.where(eff > 0, -np.inf, self.x_ref), np.where(eff < 0, np.inf, self.x_ref)

    def scaled(self, kappa: float) -> "MetricRef":
        """Copy with every Lipschitz bound multiplied by ``kappa``."""
        if not (kappa > 0 and np.isfinite(kappa)):
            raise ValueError("scale factor must be positive and finite")
        models = tuple(
            replace(m, bound=m.bound * kappa) if isinstance(m, LipschitzNorm) else m
            for m in self.models)
        return replace(self, models=models)


class ClippedNormSurrogate:
    """The surrogate constraints of m metric references in one norm, as rows.

    A Lipschitz model in ``norm`` needs rate * ||clip(x)|| <= gamma, rate =
    bound / value, where clip folds in the metric's sense and monotonicity.
    Models with one safe box [lo, hi] (`MetricRef.safe_box`) share a clip
    row (rate, lo, hi) at the group's largest rate (the first model's on a
    tie), in the order of those models; ``model_row`` and ``model_rate``
    hold each model's row and own rate.  Other norms give no row.  A cap row (curvature, center, grad,
    value) is a hyperplane (curvature 0) or quadratic model, l2 only:
    (curvature ||u||^2 + grad . u) / value <= gamma with u = x - center; a
    zero gradient holds everywhere and gives no row.
    ``owner`` names the metric of each clip model, then of each cap row.
    """

    def __init__(self, refs, norm: Norm):
        refs = list(refs)
        if not refs:
            raise ValueError("need at least one metric reference")
        norm, dim = Norm(norm), refs[0].dim
        clips, caps = [], []
        for i, r in enumerate(refs):
            if r.dim != dim:
                raise ValueError(f"metric {r.id!r} has dimension {r.dim}, "
                                 f"metric {refs[0].id!r} has {dim}")
            if all(isinstance(m, LipschitzNorm) and m.norm != norm for m in r.models):
                r.lipschitz_model(norm)  # raises, naming the norms the metric has
            for m in r.models:
                if isinstance(m, LipschitzNorm):
                    if m.norm == norm:
                        clips.append((i, *r.safe_box(m), m.bound / r.value))
                elif not isinstance(m, (ConcaveLinear, ConvexQuadratic)):
                    raise TypeError(f"unknown constraint model {type(m).__name__}")
                elif norm != Norm.L2:
                    raise ValueError(f"metric {r.id!r}: hyperplane and quadratic models work "
                                     f"in the l2 norm only, not {norm.value}")
                elif isinstance(m, ConvexQuadratic):
                    caps.append((i, m.curvature, m.grad, r))
                elif float(np.dot(m.grad, m.grad)) != 0.0:
                    caps.append((i, 0.0, m.grad, r))
        keys = [(lo.tobytes(), hi.tobytes()) for _, lo, hi, _ in clips]
        best: dict[tuple[bytes, bytes], int] = {}  # group -> its largest-rate model
        for j, (key, (_, _, _, rate)) in enumerate(zip(keys, clips)):
            if rate > clips[best.setdefault(key, j)][3]:
                best[key] = j
        rows = sorted(best.values())
        self.norm = norm
        self.ids = tuple(r.id for r in refs)
        self.owner = np.array([row[0] for row in clips + caps], dtype=int)
        self.model_row = np.searchsorted(rows, [best[key] for key in keys])
        self.model_rate = np.array([rate for _, _, _, rate in clips])
        self.lo = np.reshape([clips[j][1] for j in rows], (-1, dim))  # (m, d)
        self.hi = np.reshape([clips[j][2] for j in rows], (-1, dim))  # (m, d)
        self.rate = self.model_rate[rows]                                 # (m,)
        self.curvature = np.array([c for _, c, _, _ in caps])             # (k,)
        self.center = np.reshape([r.x_ref for _, _, _, r in caps], (-1, dim))  # (k, d)
        self.grad = np.reshape([g for _, _, g, _ in caps], (-1, dim))          # (k, d)
        self.value = np.array([r.value for _, _, _, r in caps])                # (k,)

    def needed(self, x) -> np.ndarray:
        """Smallest tolerance each metric admits ``x`` at, shape (len(ids),): the
        largest need of its models (0 without a row), each at its own rate."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.lo.shape[1:]:
            raise ValueError(f"point has shape {x.shape}, references have {self.lo.shape[1:]}")
        # row by row: vectorised row norms and dot products differ in the last bit
        clips = [norm_value(h, self.norm) for h in harm(x, self.lo, self.hi)]
        caps = [(c * float(np.dot(u, u)) + float(np.dot(g, u))) / v
                for c, u, g, v in zip(self.curvature, x - self.center, self.grad, self.value)]
        out = np.zeros(len(self.ids))
        np.maximum.at(out, self.owner,
                      np.concatenate([self.model_rate * np.take(clips, self.model_row), caps]))
        return out

    def certify(self, x) -> float:
        """Smallest tolerance every metric admits ``x`` at; NaN when a need is NaN."""
        return float(np.max(self.needed(x)))

    def on_grid(self, pts: np.ndarray) -> np.ndarray:
        """`certify` for each row of ``pts`` (P, d), vectorised over the points.

        Row norms and dot products are taken with array reductions, so a
        value can differ from `certify` in the last bit.
        """
        worst = np.zeros(len(pts))
        for lo, hi, rate in zip(self.lo, self.hi, self.rate):
            h = harm(pts, lo, hi)
            if self.norm == Norm.L1:
                g = np.sum(np.abs(h), axis=1)
            elif self.norm == Norm.L2:
                g = np.sqrt(np.sum(h * h, axis=1))
            else:
                g = np.max(np.abs(h), axis=1)
            worst = np.maximum(worst, g * rate)
        for c, center, grad, v in zip(self.curvature, self.center, self.grad, self.value):
            u = pts - center
            worst = np.maximum(worst, (c * np.sum(u * u, axis=1) + u @ grad) / v)
        return worst


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Convex decision region: coordinate lower bounds plus linear caps.

    Construction raises on an empty region: unless the origin-clamped lower
    bounds are within ``REGION_TOL`` of it, `slack_lp(REGION_TOL)` must reach 0.
    Halfspace i is normals[i] . x <= rhs[i]; ``halfspaces`` holds views of the rows.
    """

    lower: np.ndarray
    halfspaces: tuple[tuple[np.ndarray, float], ...] = ()
    normals: np.ndarray = field(init=False, repr=False)  # (k, dim)
    rhs: np.ndarray = field(init=False, repr=False)  # (k,)

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        if self.lower.ndim != 1 or self.lower.size == 0:
            raise ValueError("lower bounds must form a 1-D vector")
        if np.any(np.isnan(self.lower)) or np.any(self.lower == np.inf):
            raise ValueError("lower bounds must be finite or -inf")
        rows = [(np.asarray(a, dtype=float), b) for a, b in self.halfspaces]
        for a, b in rows:
            if a.shape != self.lower.shape:
                raise ValueError("halfspace normal dimension mismatch")
            if not np.all(np.isfinite(a)) or not np.isfinite(b):
                raise ValueError("halfspace coefficients must be finite")
            if float(np.dot(a, a)) <= 0.0:
                raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normals", np.reshape([a for a, _ in rows], (-1, self.dim)))
        object.__setattr__(self, "rhs", np.array([float(b) for _, b in rows]))
        object.__setattr__(self, "halfspaces", tuple(zip(self.normals, self.rhs.tolist())))
        if self.violation(np.maximum(self.lower, 0.0)) > REGION_TOL:
            deep = solve_lp(self.slack_lp(REGION_TOL))
            if deep.status != LpStatus.OPTIMAL:
                raise ValueError(f"emptiness check LP ended with status {deep.status.value}")
            if deep.x[-1] < 0.0:
                raise ValueError(f"feasible set is empty: deepest slack {deep.x[-1]:.3e}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def nonnegative(cls, dim: int, halfspaces=()) -> "FeasibleSet":
        return cls(lower=np.zeros(dim), halfspaces=tuple(halfspaces))

    @classmethod
    def unconstrained(cls, dim: int) -> "FeasibleSet":
        return cls(lower=np.full(dim, -np.inf))

    def slack_lp(self, widening: float) -> LpProblem:
        """The LP over (x, s) that maximizes s up to 1 subject to x_j - lower_j >= s
        and a . x + s <= b + widening * ||a||: the region widened by ``widening``
        has a point iff the optimal s is at least 0."""
        dim, bounded = self.dim, np.flatnonzero(np.isfinite(self.lower))
        a_ub = np.vstack([-np.eye(dim)[bounded], self.normals])
        b_ub = np.concatenate([0.0 - self.lower[bounded],
                               self.rhs + widening * np.linalg.norm(self.normals, axis=1)])
        return LpProblem(c=-np.eye(dim + 1)[dim], a_ub=np.c_[a_ub, np.ones(len(a_ub))], b_ub=b_ub,
                         lower=np.full(dim + 1, -np.inf), upper=np.append(np.full(dim, np.inf), 1.0))

    def sets(self) -> list:
        out = []
        if np.any(np.isfinite(self.lower)):
            out.append(LowerBoundSet(self.lower))
        for a, b in self.halfspaces:
            out.append(HalfspaceSet(a, b))
        return out

    def violation(self, x):
        """Distance from the lower bounds or the farthest halfspace, whichever
        is larger: a float for a point (dim,), an array for rows (P, dim)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"point has shape {x.shape}, the region needs ({self.dim},) "
                             f"or (P, {self.dim})")
        # a row sum, not a matmul, so a row of (P, dim) gets the bits of the point alone
        over = np.maximum(np.sum(x[..., None, :] * self.normals, axis=-1) - self.rhs, 0.0) \
            / np.linalg.norm(self.normals, axis=1)
        v = np.maximum(np.linalg.norm(np.maximum(self.lower - x, 0.0), axis=-1),
                       np.max(over, axis=-1, initial=0.0))
        return float(v) if x.ndim == 1 else v

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.violation(x) <= tol

    def find_point(self, start, tol: float = 1e-9) -> np.ndarray:
        """Project ``start`` into the set."""
        run = dykstra(self.sets(), start, tol=tol, max_iters=REGION_PROJECTION_ITERS)
        if not run.converged:
            raise ValueError(f"could not reach the feasible set: residual {run.residual:.3e}")
        return run.x


@dataclass
class SolveDiagnostics:
    iterations: int
    residual: float
    method: str


@dataclass(eq=False)
class CompetitiveSolution:
    """A decision point with its certified tolerance parameter."""

    x: np.ndarray
    gamma: float
    diagnostics: SolveDiagnostics

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        # NaN fails every comparison, so this form rejects it too
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"tolerance parameter must be nonnegative and finite, got {self.gamma}")

