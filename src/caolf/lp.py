"""Dense two-phase simplex solver.

Self-contained on purpose: the rest of the package needs exact, inspectable
control over pivoting, statuses, and determinism, and the problems it feeds
in are desk-scale (hundreds to low thousands of variables).  Bland's rule is
used for both the entering and the leaving choice, so the method cannot
cycle; the tableau is refactorized from the original data every
``REFACTOR_EVERY`` pivots to keep drift bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

REFACTOR_EVERY = 50
REDUCED_COST_TOL = 1e-9  # a column may enter once its reduced cost is below minus this


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    STALLED = "stalled"


@dataclass(eq=False)
class LpProblem:
    """min c.x  s.t.  a_ub.x <= b_ub,  a_eq.x == b_eq,  lower <= x <= upper.

    ``lower`` defaults to 0 and ``upper`` to +inf; -inf/+inf entries are
    allowed and free variables are split internally.
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass(eq=False)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    value: float
    iterations: int


def _as_matrix(a, b, n, label):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValueError(f"{label}: matrix shape {a.shape} does not match rhs size {b.size} and {n} variables")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(f"{label}: coefficients must be finite")
    return a, b


def _pivot(T, r, basis, row, col):
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    if r is not None:
        r -= r[col] * T[row, :-1]
    basis[row] = col


def _refactor(T, basis, A0, b0) -> bool:
    try:
        fresh = np.linalg.solve(A0[:, basis], np.column_stack([A0, b0]))
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(fresh)):
        return False
    T[:, :] = fresh
    return True


def _run_phase(T, basis, A0, b0, cost, max_iters, counter):
    """Bland-rule simplex iterations on tableau ``T``; returns (status, counter)."""
    ncols = T.shape[1] - 1
    r = cost - cost[basis] @ T[:, :ncols]
    r[basis] = 0.0
    since_refactor = 0
    while True:
        negative = np.nonzero(r < -REDUCED_COST_TOL)[0]
        if negative.size == 0:
            return "optimal", counter
        j = int(negative[0])
        col = T[:, j]
        rows = np.nonzero(col > 1e-9)[0]
        if rows.size == 0:
            return "unbounded", counter
        ratios = np.maximum(T[rows, ncols], 0.0) / col[rows]
        rmin = float(ratios.min())
        tied = rows[ratios <= rmin + 1e-9 * (1.0 + rmin)]
        row = int(tied[np.argmin(basis[tied])])
        _pivot(T, r, basis, row, j)
        counter += 1
        since_refactor += 1
        if counter >= max_iters:
            return "stalled", counter
        if since_refactor >= REFACTOR_EVERY:
            if not _refactor(T, basis, A0, b0):
                return "stalled", counter
            r = cost - cost[basis] @ T[:, :ncols]
            r[basis] = 0.0
            since_refactor = 0


def solve_lp(problem: LpProblem, max_iters: int | None = None) -> LpSolution:
    """Solve ``problem`` with the two-phase dense simplex method.

    Returns OPTIMAL with the minimizer, INFEASIBLE / UNBOUNDED when phase one
    or two proves it, and STALLED when the iteration or accuracy budget is
    exhausted.  An OPTIMAL answer is re-verified against the original data
    before being reported; a failed check demotes the status to STALLED
    rather than ever reporting a wrong optimum.
    """
    c = np.asarray(problem.c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("objective must be a non-empty 1-D vector")
    n = c.size
    lower = np.zeros(n) if problem.lower is None else np.asarray(problem.lower, dtype=float)
    upper = np.full(n, np.inf) if problem.upper is None else np.asarray(problem.upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bound vectors must match the number of variables")
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(lower == np.inf) or np.any(upper == -np.inf):
        raise ValueError("bounds must be finite, -inf (lower) or +inf (upper)")
    if np.any(lower > upper):
        return LpSolution(LpStatus.INFEASIBLE, None, np.nan, 0)
    a_ub, b_ub = _as_matrix(problem.a_ub, problem.b_ub, n, "a_ub")
    a_eq, b_eq = _as_matrix(problem.a_eq, problem.b_eq, n, "a_eq")

    # Shift/mirror/split every variable so the working variables are all >= 0.
    col_map: list[tuple[int, float]] = []
    shift = np.zeros(n)
    bound_rows: list[tuple[int, float]] = []  # (working column, upper bound on it)
    for j in range(n):
        lb, ub = lower[j], upper[j]
        if np.isfinite(lb):
            shift[j] = lb
            col_map.append((j, 1.0))
            if np.isfinite(ub):
                bound_rows.append((len(col_map) - 1, ub - lb))
        elif np.isfinite(ub):
            shift[j] = ub
            col_map.append((j, -1.0))
        else:
            col_map.append((j, 1.0))
            col_map.append((j, -1.0))
    nt = len(col_map)
    S = np.zeros((n, nt))
    for t_idx, (j, sgn) in enumerate(col_map):
        S[j, t_idx] = sgn
    c_t = S.T @ c

    ub_t = a_ub @ S
    ub_rhs = b_ub - a_ub @ shift
    if bound_rows:
        extra = np.zeros((len(bound_rows), nt))
        for i, (t_idx, cap) in enumerate(bound_rows):
            extra[i, t_idx] = 1.0
        ub_t = np.vstack([ub_t, extra])
        ub_rhs = np.concatenate([ub_rhs, [cap for _, cap in bound_rows]])
    eq_t = a_eq @ S
    eq_rhs = b_eq - a_eq @ shift

    m_ub, m_eq = ub_t.shape[0], eq_t.shape[0]
    m = m_ub + m_eq

    def finish(t_vals: np.ndarray, iterations: int) -> LpSolution:
        x = shift + S @ t_vals
        value = float(np.dot(c, x))
        viol = 0.0
        if m_ub and a_ub.shape[0]:
            viol = max(viol, float(np.max(a_ub @ x - b_ub, initial=0.0)))
        if m_eq:
            viol = max(viol, float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)))
        viol = max(viol, float(np.max(np.where(np.isfinite(lower), lower - x, 0.0), initial=0.0)))
        viol = max(viol, float(np.max(np.where(np.isfinite(upper), x - upper, 0.0), initial=0.0)))
        scale = 1.0 + max(
            float(np.max(np.abs(b_ub), initial=0.0)),
            float(np.max(np.abs(b_eq), initial=0.0)),
            float(np.max(np.abs(x), initial=0.0)))
        if viol > 1e-6 * scale:
            return LpSolution(LpStatus.STALLED, None, np.nan, iterations)
        return LpSolution(LpStatus.OPTIMAL, x, value, iterations)

    if m == 0:
        if np.any(c_t < -REDUCED_COST_TOL):
            return LpSolution(LpStatus.UNBOUNDED, None, np.nan, 0)
        return finish(np.zeros(nt), 0)

    # Standard form with one slack per inequality row, then flip rows so every
    # right-hand side is nonnegative; rows whose slack got flipped, and all
    # equality rows, receive an artificial variable for phase one.
    A_std = np.zeros((m, nt + m_ub))
    A_std[:m_ub, :nt] = ub_t
    A_std[:m_ub, nt:nt + m_ub] = np.eye(m_ub)
    A_std[m_ub:, :nt] = eq_t
    b_std = np.concatenate([ub_rhs, eq_rhs])
    negate = b_std < 0
    A_std[negate] *= -1.0
    b_std = np.abs(b_std)

    art_rows = [i for i in range(m) if (i < m_ub and negate[i]) or i >= m_ub]
    art_off = nt + m_ub
    A0 = np.hstack([A_std, np.zeros((m, len(art_rows)))])
    basis = np.empty(m, dtype=int)
    for k, i in enumerate(art_rows):
        A0[i, art_off + k] = 1.0
        basis[i] = art_off + k
    for i in range(m_ub):
        if not negate[i]:
            basis[i] = nt + i

    b0 = b_std.copy()
    T = np.column_stack([A0, b0])
    if max_iters is None:
        max_iters = 2000 + 10 * (m + A0.shape[1])

    cost1 = np.zeros(A0.shape[1])
    cost1[art_off:] = 1.0
    status, iters = _run_phase(T, basis, A0, b0, cost1, max_iters, 0)
    if status == "stalled" or status == "unbounded":
        return LpSolution(LpStatus.STALLED, None, np.nan, iters)
    art_total = float(np.sum(T[basis >= art_off, -1], initial=0.0))
    if art_total > 1e-7 * (1.0 + float(np.max(b0, initial=0.0))):
        return LpSolution(LpStatus.INFEASIBLE, None, np.nan, iters)

    # Drive leftover artificials out of the basis; a row with no eligible
    # pivot is linearly dependent on the others and is dropped.
    drop = []
    for i in range(m):
        if basis[i] < art_off:
            continue
        j = int(np.argmax(np.abs(T[i, :art_off])))
        if abs(T[i, j]) > 1e-8:
            _pivot(T, None, basis, i, j)
        else:
            drop.append(i)
    if drop:
        keep = np.setdiff1d(np.arange(m), np.array(drop))
        T = T[keep]
        basis = basis[keep]
        A0 = A0[keep]
        b0 = b0[keep]
    T = np.column_stack([T[:, :art_off], T[:, -1]])
    A0 = A0[:, :art_off]
    if not _refactor(T, basis, A0, b0):
        return LpSolution(LpStatus.STALLED, None, np.nan, iters)

    cost2 = np.concatenate([c_t, np.zeros(m_ub)])
    status, iters = _run_phase(T, basis, A0, b0, cost2, max_iters, iters)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, np.nan, iters)
    if status == "stalled":
        return LpSolution(LpStatus.STALLED, None, np.nan, iters)

    if not _refactor(T, basis, A0, b0):
        return LpSolution(LpStatus.STALLED, None, np.nan, iters)
    t_vals = np.zeros(art_off)
    t_vals[basis] = np.maximum(T[:, -1], 0.0)
    return finish(t_vals[:nt], iters)
