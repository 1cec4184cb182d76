"""Problem data types: metric references, constraint models and their table, feasible sets."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .geometry import (
    HalfspaceSet,
    LowerBoundSet,
    Norm,
    RefGeometry,
    Sense,
    as_mono_array,
    dykstra,
    harm,
    norm_value,
)

REGION_PROJECTION_ITERS = 10000  # cycle cap of the emptiness check and find_point


@dataclass(frozen=True, eq=False)
class LipschitzNorm:
    """Metric changes by at most ``bound`` per unit of clipped movement in ``norm``."""

    bound: float
    norm: Norm
    mono: np.ndarray

    def __post_init__(self):
        if not (self.bound > 0 and np.isfinite(self.bound)):
            raise ValueError("Lipschitz bound must be positive and finite")
        object.__setattr__(self, "mono", as_mono_array(self.mono))


@dataclass(frozen=True, eq=False)
class ConcaveLinear:
    """Concave metric handled through its supporting hyperplane at the reference."""

    grad: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient must be finite")
        object.__setattr__(self, "grad", g)


@dataclass(frozen=True, eq=False)
class ConvexQuadratic:
    """Smooth convex metric handled through a curvature-augmented tangent bound."""

    grad: np.ndarray
    curvature: float

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient must be finite")
        if not (self.curvature > 0 and np.isfinite(self.curvature)):
            raise ValueError("curvature must be positive and finite")
        object.__setattr__(self, "grad", g)


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
        object.__setattr__(self, "x_ref", np.asarray(self.x_ref, dtype=float))
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

    def geometry(self, model: LipschitzNorm) -> RefGeometry:
        return RefGeometry(self.x_ref, model.mono, self.sense)

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

    A clip row (rate, lo, hi) stands for a Lipschitz model stated in
    ``norm``: rate * ||clip(x)|| <= gamma, where clip folds in the metric's
    sense and monotonicity and rate = bound / value.  Lipschitz models in
    other norms give no row.  A cap row (curvature, center, grad, value)
    stands for a hyperplane (curvature 0) or quadratic model, l2 only:
    (curvature ||u||^2 + grad . u) / value <= gamma with u = x - center.  A
    hyperplane model with a zero gradient holds everywhere and gives no row.
    ``owner`` names each row's metric, clip rows first, then cap rows.
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
                        clips.append((i, r.geometry(m), m.bound / r.value))
                elif not isinstance(m, (ConcaveLinear, ConvexQuadratic)):
                    raise TypeError(f"unknown constraint model {type(m).__name__}")
                elif norm != Norm.L2:
                    raise ValueError(f"metric {r.id!r}: hyperplane and quadratic models work "
                                     f"in the l2 norm only, not {norm.value}")
                elif isinstance(m, ConvexQuadratic):
                    caps.append((i, m.curvature, m.grad, r))
                elif float(np.dot(m.grad, m.grad)) != 0.0:
                    caps.append((i, 0.0, m.grad, r))
        self.norm = norm
        self.ids = tuple(r.id for r in refs)
        self.owner = np.array([row[0] for row in clips + caps], dtype=int)
        self.geoms = tuple(g for _, g, _ in clips)
        self.x_ref = np.reshape([g.x_ref for g in self.geoms], (-1, dim))      # (m, d)
        self.eff_mono = np.reshape([g.eff_mono for g in self.geoms], (-1, dim))  # (m, d)
        self.lo = np.reshape([g.lo for g in self.geoms], (-1, dim))            # (m, d)
        self.hi = np.reshape([g.hi for g in self.geoms], (-1, dim))            # (m, d)
        self.rate = np.array([rate for _, _, rate in clips])
        self.curvature = np.array([c for _, c, _, _ in caps])                  # (k,)
        self.center = np.reshape([r.x_ref for _, _, _, r in caps], (-1, dim))  # (k, d)
        self.grad = np.reshape([g for _, _, g, _ in caps], (-1, dim))          # (k, d)
        self.value = np.array([r.value for _, _, _, r in caps])                # (k,)

    def merged(self) -> "ClippedNormSurrogate":
        """The same surrogate with one clip row per distinct geometry.

        Clip rows with equal ``x_ref`` and ``eff_mono`` have the same clipped
        displacement at every x, so of each such group only the largest rate
        can bind; it is kept (the first on a tie), in the original order.
        Cap rows are all kept, and metrics left without a row are dropped.
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
        out.geoms = tuple(self.geoms[i] for i in keep)
        for name in ("x_ref", "eff_mono", "lo", "hi", "rate"):
            setattr(out, name, getattr(self, name)[keep])
        kept, out.owner = np.unique(np.concatenate([self.owner[keep], self.owner[self.rate.size:]]),
                                    return_inverse=True)
        out.ids = tuple(self.ids[i] for i in kept)
        return out

    def needed(self, x) -> np.ndarray:
        """Smallest tolerance each metric admits ``x`` at, shape (len(ids),):
        its largest row need, and 0 for a metric without a row."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.x_ref.shape[1:]:
            raise ValueError(f"point has shape {x.shape}, references have {self.x_ref.shape[1:]}")
        # row by row: vectorised row norms and dot products differ in the last bit
        clips = [norm_value(h, self.norm) for h in harm(x, self.lo, self.hi, self.eff_mono)]
        caps = [(c * float(np.dot(u, u)) + float(np.dot(g, u))) / v
                for c, u, g, v in zip(self.curvature, x - self.center, self.grad, self.value)]
        out = np.zeros(len(self.ids))
        np.maximum.at(out, self.owner, np.concatenate([self.rate * clips, caps]))
        return out

    def certify(self, x) -> float:
        """Smallest tolerance every metric admits ``x`` at."""
        return max(0.0, float(np.max(self.needed(x))))

    def on_grid(self, pts: np.ndarray) -> np.ndarray:
        """`certify` for each row of ``pts`` (P, d), vectorised over the points.

        Row norms and dot products are taken with array reductions, so a
        value can differ from `certify` in the last bit.
        """
        worst = np.zeros(len(pts))
        for lo, hi, eff, rate in zip(self.lo, self.hi, self.eff_mono, self.rate):
            h = harm(pts, lo, hi, eff)
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

    Emptiness is checked at construction by projecting the origin-clamped
    lower-bound point onto the intersection; an unreachable tolerance raises.
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
        start = np.where(np.isfinite(self.lower), np.maximum(self.lower, 0.0), 0.0)
        run = dykstra(self.sets(), start, tol=1e-9, max_iters=REGION_PROJECTION_ITERS)
        if not run.converged:
            raise ValueError(
                f"feasible set appears empty: projection residual {run.residual:.3e}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def nonnegative(cls, dim: int, halfspaces=()) -> "FeasibleSet":
        return cls(lower=np.zeros(dim), halfspaces=tuple(halfspaces))

    @classmethod
    def unconstrained(cls, dim: int) -> "FeasibleSet":
        return cls(lower=np.full(dim, -np.inf))

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
        if self.gamma < 0:
            # tolerate roundoff-scale negatives from certification only
            if self.gamma < -1e-12:
                raise ValueError(f"tolerance parameter must be nonnegative, got {self.gamma}")
            self.gamma = 0.0

