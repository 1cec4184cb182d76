"""Problem data types: metric references, constraint models, feasible sets."""

from __future__ import annotations

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

