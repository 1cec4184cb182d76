"""Dense two-phase simplex solver.

Self-contained on purpose: the rest of the package needs exact, inspectable
control over pivoting, statuses, and determinism, and the problems it feeds
in are desk-scale (hundreds to low thousands of variables).  The tableau
keeps only the nonbasic columns and the right-hand side, B⁻¹[N | b] (the
condensed, or Tucker, tableau; Chvatal, *Linear Programming*, 1983): a
basic column is a unit vector by definition, and in an epigraph LP more
than half of the columns are basic.  A pivot swaps the entering and the
leaving variable in place, so tableau order is not standard-form order, and
every choice among equals takes the lowest standard-form index among the
values within rounding of the least (`_lowest_tied`).  The primal simplex
uses Bland's rule for both the entering and the leaving choice, so it
cannot cycle; the tableau is refactorized from the original data every
``REFACTOR_EVERY`` pivots to keep drift bounded.  A refactorization
factorizes only the basic columns that are not column singletons (most are
slacks), so neither the all-slack basis nor the cold start's costs a
factorization: rows keep their signs and an artificial takes its row's.  It
inverts that block and applies the inverse to the nonbasic columns by one
matrix product.  The optimal basis closes with one solve (`_closing_solve`)
for the basic values B⁻¹b and the row prices y = c_B B⁻¹, the row duals
(`LpSolution.duals`); a problem without rows takes the same path.

A solve can start from any dual-feasible basis of its problem
(`LpBasis`), for example the optimal basis of an earlier solve that differs
only in the right-hand side (`LpSolution.basis`), or one a caller builds
from the problem's structure.  A dual simplex (Chvatal, *Linear
Programming*, ch. 10) then restores primal feasibility in a few pivots
instead of a cold phase one.  A start that is primal feasible needs no dual
pivots, so it may also be one that is not dual feasible, for example an
optimal basis after new columns joined the problem: the primal simplex
goes on from it.  Without a start, a problem with no equality rows and no
negative working cost starts from its all-slack basis, which is then dual
feasible.  The dual simplex lets the row with the most negative basic value
leave (Dantzig's rule, ties within rounding going to the lowest basic
index); that rule can cycle, so after ``DEGENERATE_RUN_LIMIT`` dual pivots
in a row with a zero dual ratio it switches to Bland's dual rule for the
rest of the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

REFACTOR_EVERY = 50
DEGENERATE_RUN_LIMIT = 100  # zero-ratio dual pivots in a row before Bland's dual rule takes over
REDUCED_COST_TOL = 1e-9  # a column may enter once its reduced cost is below minus this
PRIMAL_TOL = 1e-9  # a basic value below minus this times (1 + max |b|) must leave in the dual simplex


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


@dataclass(frozen=True, eq=False)
class LpBasis:
    """A basis of the standard form, as an optimal solve ends on or as
    ``solve_lp``'s start.

    ``shape`` is the standard form's (rows, columns) without artificials,
    ``rows`` the kept rows (phase one drops dependent ones) and ``cols`` the
    basic column of each kept row.  The rows are the ``a_ub`` rows, then one
    row per boxed variable (finite lower and upper bound) for its upper
    bound, then the ``a_eq`` rows.  The columns are the working columns (one
    per variable, two per free one: its + then its - part), then one slack
    per inequality row, in row order.  A solve only reads its start basis.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray


@dataclass(eq=False)
class LpSolution:
    """A solve's outcome.  ``basis`` and ``duals`` are set when OPTIMAL; a
    problem without constraint rows gets a basis with no rows, and empty duals.

    ``duals`` holds u >= 0 for each ``a_ub`` row, then v for each ``a_eq``
    row, in the problem's row order, such that the reduced costs are
    d = c + a_ubᵀu - a_eqᵀv: at the optimum d >= 0 where x sits at its lower
    bound only, d <= 0 at its upper bound only and d = 0 in between (to
    rounding), and c.x = d.x - u.b_ub + v.b_eq.  A row that phase one
    dropped as dependent gets 0.
    """

    status: LpStatus
    x: np.ndarray | None
    value: float
    iterations: int
    basis: LpBasis | None = None
    duals: np.ndarray | None = None


def _as_matrix(a, b, n, label):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise ValueError(f"{label}: the {'matrix' if a is None else 'right-hand side'} is missing")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValueError(f"{label}: matrix shape {a.shape} does not match rhs size {b.size} and {n} variables")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(f"{label}: coefficients must be finite")
    return a, b


def _pivot(T, r, basis, nonbasic, row, k):
    """Swap tableau column ``k``'s variable into the basis on ``row``.

    The leaving variable takes over column ``k`` as the unit vector of
    ``row``, so after the update it reads -factor/p, with 1/p on ``row``,
    for the pivot column ``factor`` and pivot ``p``; ``r``, unless None,
    follows the same way.
    """
    factor = T[:, k].copy()
    p = factor[row]
    T[:, k] = 0.0
    T[row, k] = 1.0
    T[row] /= p
    # Only rows with a nonzero in the pivot column change.  Updating just those
    # pays off on a large tableau with sparse pivot columns, as a 24-dim L1
    # epigraph LP's (median 27% nonzero), and is about even on a routing path
    # master's; on denser columns gathering the rows costs more than it saves.
    rows = np.nonzero(factor)[0]
    if 2 * rows.size < T.shape[0]:
        rows = rows[rows != row]
        T[rows] -= np.outer(factor[rows], T[row])
    else:
        factor[row] = 0.0
        T -= np.outer(factor, T[row])
    if r is not None:
        rk, r[k] = r[k], 0.0
        r -= rk * T[row, :-1]
    basis[row], nonbasic[k] = nonbasic[k], basis[row]


def _split(B):
    """B's column singletons S, each on its row of ``s_rows``, and the other
    columns J with the rows R no singleton covers; None when two singletons
    share a row, so B is singular."""
    nonzero = B != 0.0
    single = np.count_nonzero(nonzero, axis=0) == 1
    S, J = np.nonzero(single)[0], np.nonzero(~single)[0]
    s_rows = np.nonzero(nonzero[:, S].T)[1]
    uncovered = np.ones(B.shape[0], dtype=bool)
    uncovered[s_rows] = False
    R = np.flatnonzero(uncovered)
    return (S, J, s_rows, R) if R.size == J.size else None


def _refactor(T, basis, nonbasic, A0, b0):
    """Write B⁻¹[A0[:, nonbasic] | b0] into ``T``, for B = A0[:, basis];
    returns False when B is singular or the result is not finite.

    A basic column s with a single nonzero (every slack, and the odd
    structural column) is absent from every row but its own.  So only the
    block B[R, J] of the rows R no such singleton covers and the other basic
    columns J is factorized, and each singleton's row of the result follows
    from its own row of B by one substitution, (M_s - B[s, J] X_J) / B[s, s]
    for M = [A0[:, nonbasic] | b0] (Suhl & Suhl, *ORSA J. Computing* 2(4),
    1990).  The all-slack basis factorizes nothing.  The block is inverted
    once and the inverse applied to all of M[R] by one matrix product.  The
    basic columns are not written: B⁻¹B is the identity.
    """
    B = A0[:, basis]
    split = _split(B)
    if split is None:
        return False
    S, J, s_rows, R = split
    N = A0[:, nonbasic]
    T[J, -1], T[S, -1] = b0[R], b0[s_rows]
    T[J, :-1], T[S, :-1] = N[R], N[s_rows]
    if J.size:
        try:
            T[J] = np.linalg.inv(B[np.ix_(R, J)]) @ T[J]
        except np.linalg.LinAlgError:
            return False
        T[S] -= B[np.ix_(s_rows, J)] @ T[J]
    T[S] /= B[s_rows, S][:, None]
    return bool(np.all(np.isfinite(T)))


def _closing_solve(A0, b0, basis, cost_b):
    """B⁻¹b0 and the row prices y with yB = ``cost_b``, for B = A0[:, basis];
    None when B is singular or either is not finite.

    B⁻¹b0 is `_refactor`'s last column by one LU solve with the block.  The
    singleton split carries over to the transpose: each singleton column s
    fixes its row's price, y[s_row] = c_s / B[s_row, s], and the other basic
    columns J then give y[R] by one solve with the block B[R, J]ᵀ.
    """
    B = A0[:, basis]
    split = _split(B)
    if split is None:
        return None
    S, J, s_rows, R = split
    x = np.empty((basis.size, 1))
    x[J, 0], x[S, 0] = b0[R], b0[s_rows]
    y = np.zeros(basis.size)
    y[s_rows] = cost_b[S] / B[s_rows, S]
    if J.size:
        block = B[np.ix_(R, J)]
        try:
            x[J] = np.linalg.solve(block, x[J])
            y[R] = np.linalg.solve(block.T, cost_b[J] - B[np.ix_(s_rows, J)].T @ y[s_rows])
        except np.linalg.LinAlgError:
            return None
        x[S] -= B[np.ix_(s_rows, J)] @ x[J]
    x[S] /= B[s_rows, S][:, None]
    return (x[:, 0], y) if np.all(np.isfinite(x)) and np.all(np.isfinite(y)) else None


def _reduced_costs(cost, basis, nonbasic, T):
    """The reduced costs of the tableau's columns, in tableau order: those
    of the variables ``nonbasic`` names (every basic variable's is 0)."""
    return cost[nonbasic] - cost[basis] @ T[:, :-1]


def _lowest_tied(values, candidates, index):
    """The candidate of lowest ``index`` among those whose ``values`` lie within
    1e-9·(1 + |least|) of the least, so that rounding cannot split a tie."""
    least = float(values.min())
    tied = candidates[values <= least + 1e-9 * (1.0 + abs(least))]
    return int(tied[np.argmin(index[tied])])


def _primal_pivot(T, r, basis, nonbasic):
    """Bland's rule: the improving column of lowest standard-form index, the
    lowest basic index on ratio ties."""
    negative = np.nonzero(r < -REDUCED_COST_TOL)[0]
    if negative.size == 0:
        return "optimal"
    k = int(negative[np.argmin(nonbasic[negative])])
    col = T[:, k]
    rows = np.nonzero(col > 1e-9)[0]
    if rows.size == 0:
        return "unbounded"
    ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
    return _lowest_tied(ratios, rows, basis), k


def _dual_pivot(T, r, basis, nonbasic, tol, run):
    """Dantzig's dual rule: the row with the most negative basic value leaves
    and the column with the least ratio enters, each the lowest index among
    the values within rounding of the least (`_lowest_tied`).

    ``run[0]`` counts the phase's zero-ratio (degenerate) pivots in a row;
    once it reaches ``DEGENERATE_RUN_LIMIT`` it stays there, and the
    infeasible row with the lowest basic index leaves instead (Bland's dual
    rule, which cannot cycle)."""
    short = np.nonzero(T[:, -1] < -tol)[0]
    if short.size == 0:
        return "feasible"
    if np.any(r < -REDUCED_COST_TOL):
        return "not dual feasible"
    bland = run[0] >= DEGENERATE_RUN_LIMIT
    if bland:
        row = int(short[np.argmin(basis[short])])
    else:
        row = _lowest_tied(T[short, -1], short, basis)
    cols = np.nonzero(T[row, :-1] < -1e-9)[0]
    if cols.size == 0:
        return "infeasible"
    ratios = np.maximum(r[cols], 0.0) / -T[row, cols]
    if not bland:
        run[0] = run[0] + 1 if ratios.min() == 0.0 else 0
    return row, _lowest_tied(ratios, cols, nonbasic)


def _complement(basis, n):
    """The columns of ``range(n)`` not in ``basis``, ascending."""
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    return np.flatnonzero(nonbasic)


def _run_phase(T, basis, nonbasic, A0, b0, cost, max_iters, counter, choose=_primal_pivot):
    """Simplex iterations on tableau ``T`` with the pivot rule ``choose``.

    ``choose`` returns a (row, tableau column) pivot or a final status;
    returns (status, counter), "stalled" once ``max_iters`` pivots are
    counted.
    """
    r = _reduced_costs(cost, basis, nonbasic, T)
    since_refactor = 0
    while True:
        step = choose(T, r, basis, nonbasic)
        if isinstance(step, str):
            return step, counter
        _pivot(T, r, basis, nonbasic, *step)
        counter += 1
        since_refactor += 1
        if counter >= max_iters:
            return "stalled", counter
        if since_refactor >= REFACTOR_EVERY:
            if not _refactor(T, basis, nonbasic, A0, b0):
                return "stalled", counter
            r = _reduced_costs(cost, basis, nonbasic, T)
            since_refactor = 0


def _from_basis(A, b, rows, cols, cost, max_iters, iters, dual_tol=None):
    """Phase two of ``A[rows] t = b[rows], t >= 0`` from the basic columns ``cols``.

    The tableau holds B⁻¹ times the other columns, in ascending order at the
    start, and B⁻¹b.  With a ``dual_tol``, dual pivots first restore primal
    feasibility and must end "feasible"; a start that is primal feasible
    already goes straight to the primal pivots, dual feasible or not.
    Returns (status, pivots, working values, basis, row prices), the
    working values and the row prices y = c_B B⁻¹ over ``rows`` from
    `_closing_solve` at the final basis; the last three are None unless the
    status is "optimal".
    """
    A0, b0, basis = A[rows], b[rows], cols.copy()
    nonbasic = _complement(basis, A.shape[1])
    T = np.empty((basis.size, nonbasic.size + 1))
    if not _refactor(T, basis, nonbasic, A0, b0):
        return "stalled", iters, None, None, None
    status = "feasible"
    if dual_tol is not None:
        status, iters = _run_phase(T, basis, nonbasic, A0, b0, cost, max_iters, iters,
                                   partial(_dual_pivot, tol=dual_tol, run=[0]))
    if status == "feasible":
        status, iters = _run_phase(T, basis, nonbasic, A0, b0, cost, max_iters, iters)
    closed = _closing_solve(A0, b0, basis, cost[basis]) if status == "optimal" else None
    if closed is None:
        return ("stalled" if status == "optimal" else status), iters, None, None, None
    t_vals = np.zeros(A.shape[1])
    t_vals[basis] = np.maximum(closed[0], 0.0)
    return status, iters, t_vals, LpBasis(A.shape, rows, basis), closed[1]


def solve_lp(problem: LpProblem, max_iters: int | None = None,
             start: LpBasis | None = None) -> LpSolution:
    """Solve ``problem`` with the two-phase dense simplex method.

    Returns OPTIMAL with the minimizer, its basis and its row duals (empty
    for a problem without constraint rows, whose basis has no rows),
    INFEASIBLE / UNBOUNDED when phase one or two proves it, and STALLED when
    the iteration or accuracy budget is exhausted.  An OPTIMAL answer is
    re-verified against the original data before being reported; a failed
    check demotes the status to STALLED rather than ever reporting a wrong
    optimum.

    ``start`` may be any dual-feasible basis of this problem, such as the
    basis of an earlier OPTIMAL solve of a problem with the same constraint
    matrix and costs, or one built by the caller in `LpBasis`'s layout; or
    any primal-feasible one, such as an earlier optimal basis after columns
    were added (their indices shifted into `LpBasis`'s layout).  Without
    one, a problem with no equality rows whose working costs are all >= 0
    (as in an epigraph LP: shifted variables, free ones split into two
    columns of cost 0) starts from its all-slack basis.  The solve then
    begins with dual simplex pivots from the start, the row with the most
    negative basic value leaving until a long run of degenerate pivots hands
    over to Bland's dual rule; once the basis is primal feasible, primal
    pivots end it with the same optimality test and re-verification.  A
    start that does not fit, is singular, is neither primal nor dual
    feasible, stalls, or ends anywhere but at a verified optimum falls back
    to the cold two-phase solve, so INFEASIBLE and UNBOUNDED are always
    decided cold; ``iterations`` then counts the pivots of both.
    """
    c = np.asarray(problem.c, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError("objective must be a non-empty, finite 1-D vector")
    n = c.size
    a_ub, b_ub = _as_matrix(problem.a_ub, problem.b_ub, n, "a_ub")
    a_eq, b_eq = _as_matrix(problem.a_eq, problem.b_eq, n, "a_eq")
    lower = np.zeros(n) if problem.lower is None else np.asarray(problem.lower, dtype=float)
    upper = np.full(n, np.inf) if problem.upper is None else np.asarray(problem.upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bound vectors must match the number of variables")
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(lower == np.inf) or np.any(upper == -np.inf):
        raise ValueError("bounds must be finite, -inf (lower) or +inf (upper)")
    if np.any(lower > upper):
        return LpSolution(LpStatus.INFEASIBLE, None, np.nan, 0)

    # Working variables are all >= 0: a variable with a finite lower bound is
    # shifted by it, one with only an upper bound is mirrored at it, and a
    # free one is split into a + then a - column.  A boxed variable keeps its
    # upper bound as one extra inequality row, after the problem's own.
    has_lo, has_up = np.isfinite(lower), np.isfinite(upper)
    free = ~has_lo & ~has_up
    shift = np.where(has_lo, lower, np.where(has_up, upper, 0.0))
    width = 1 + free
    first = np.cumsum(width) - width  # each variable's first working column
    nt = int(width.sum())
    # working column t is sign[t] times variable var[t]
    var = np.repeat(np.arange(n), width)
    sign = np.ones(nt)
    sign[np.concatenate([first[has_up & ~has_lo], first[free] + 1])] = -1.0
    c_t = c[var] * sign

    boxed = np.nonzero(has_lo & has_up)[0]
    m_ub = a_ub.shape[0] + boxed.size
    m = m_ub + a_eq.shape[0]

    def finish(t_vals: np.ndarray, iterations: int, basis: LpBasis, y: np.ndarray) -> LpSolution:
        # t_vals may carry slack columns after the nt working variables; y
        # prices the kept rows of the standard form
        x = shift + np.bincount(var, weights=sign * t_vals[:nt], minlength=n)
        value = float(np.dot(c, x))
        viol = max(float(np.max(a_ub @ x - b_ub, initial=0.0)),
                   float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)),
                   float(np.max(np.where(has_lo, lower - x, 0.0), initial=0.0)),
                   float(np.max(np.where(has_up, x - upper, 0.0), initial=0.0)))
        scale = 1.0 + max(
            float(np.max(np.abs(b_ub), initial=0.0)),
            float(np.max(np.abs(b_eq), initial=0.0)),
            float(np.max(np.abs(x), initial=0.0)))
        if viol > 1e-6 * scale:
            return LpSolution(LpStatus.STALLED, None, np.nan, iterations)
        prices = np.zeros(m)
        prices[basis.rows] = y
        # a slack's reduced cost is -price, so an a_ub row's price is <= 0
        duals = np.concatenate([-prices[:a_ub.shape[0]], prices[m_ub:]])
        return LpSolution(LpStatus.OPTIMAL, x, value, iterations, basis, duals)

    # Standard form with one slack per inequality row, each row as written;
    # rows with a negative right-hand side, and all equality rows, receive an
    # artificial variable for phase one.
    A_std = np.zeros((m, nt + m_ub))
    unit_rows = (boxed[:, None] == np.arange(n)).astype(float)
    A_std[:, :nt] = np.vstack([a_ub, unit_rows, a_eq])[:, var] * sign
    A_std[:m_ub, nt:] = np.eye(m_ub)
    b_std = np.concatenate([b_ub - a_ub @ shift, upper[boxed] - lower[boxed], b_eq - a_eq @ shift])
    needs_art = b_std < 0
    needs_art[m_ub:] = True
    if max_iters is None:
        max_iters = 2000 + 10 * (m + A_std.shape[1] + int(needs_art.sum()))
    cost = np.concatenate([c_t, np.zeros(m_ub)])

    if start is None and m == m_ub and np.all(c_t >= 0.0):
        # every slack basic prices every row at 0, so the reduced costs are
        # the working costs: dual feasible
        start = LpBasis(A_std.shape, np.arange(m), nt + np.arange(m))
    spent = 0
    if (isinstance(start, LpBasis) and start.shape == A_std.shape
            and all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind in "iu"
                    for v in (start.rows, start.cols))
            and start.rows.shape == start.cols.shape
            and np.all((start.rows >= 0) & (start.rows < m))
            and np.all((start.cols >= 0) & (start.cols < A_std.shape[1]))):
        tol = PRIMAL_TOL * (1.0 + float(np.max(np.abs(b_std[start.rows]), initial=0.0)))
        status, spent, t_vals, basis, y = _from_basis(A_std, b_std, start.rows, start.cols, cost,
                                                      max_iters, 0, tol)
        if status == "optimal":
            sol = finish(t_vals, spent, basis, y)
            if sol.status == LpStatus.OPTIMAL:
                return sol
    status, iters, t_vals, basis, y = _two_phase(A_std, b_std, needs_art, nt, cost, max_iters)
    if status != "optimal":
        return LpSolution(LpStatus(status), None, np.nan, iters + spent)
    return finish(t_vals, iters + spent, basis, y)


def _two_phase(A_std, b_std, needs_art, nt, cost, max_iters):
    """The cold solve of ``A_std t = b_std, t >= 0``.

    Rows flagged in ``needs_art`` start on an artificial, the row's unit
    vector times the sign of its b, so it starts at |b|; every other row is
    an inequality whose slack, column ``nt + row``, starts basic.  Returns
    what `_from_basis` returns.
    """
    m, art_off = A_std.shape
    art_rows = np.nonzero(needs_art)[0]
    A0 = np.hstack([A_std, np.zeros((m, art_rows.size))])
    basis = nt + np.arange(m)
    A0[art_rows, art_off + np.arange(art_rows.size)] = np.where(b_std[art_rows] < 0, -1.0, 1.0)
    basis[art_rows] = art_off + np.arange(art_rows.size)
    nonbasic = _complement(basis, A0.shape[1])
    T = np.empty((m, nonbasic.size + 1))
    _refactor(T, basis, nonbasic, A0, b_std)  # B is diagonal ±1: every column a singleton

    cost1 = np.zeros(A0.shape[1])
    cost1[art_off:] = 1.0
    status, iters = _run_phase(T, basis, nonbasic, A0, b_std, cost1, max_iters, 0)
    if status == "stalled" or status == "unbounded":
        return "stalled", iters, None, None, None
    art_total = float(np.sum(T[basis >= art_off, -1], initial=0.0))
    if art_total > 1e-7 * (1.0 + float(np.max(np.abs(b_std), initial=0.0))):
        return "infeasible", iters, None, None, None

    # Drive leftover artificials out of the basis by the column of largest
    # |entry|, the lowest standard-form index on ties (`_lowest_tied`); a row
    # with no eligible pivot is linearly dependent on the others and is dropped.
    for i in np.nonzero(basis >= art_off)[0]:
        magnitude = np.where(nonbasic < art_off, np.abs(T[i, :-1]), 0.0)
        k = _lowest_tied(-magnitude, np.arange(nonbasic.size), nonbasic)
        if magnitude[k] > 1e-8:
            _pivot(T, None, basis, nonbasic, i, k)
    keep = np.nonzero(basis < art_off)[0]
    del T, A0  # phase two builds its own tableau; free this one first
    return _from_basis(A_std, b_std, keep, basis[keep], cost, max_iters, iters)
