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
``REFACTOR_EVERY`` pivots to keep drift bounded, by the routine that builds
every start's tableau too (`_refactor`).  It inverts only the block of the
basic columns that are not column singletons (most are slacks), so neither
the all-slack basis nor the cold start's costs a factorization: rows keep
their signs and an artificial takes its row's.  An optimum closes with one
split of its basis and one solve (`_closing_solve`) for the row prices y =
c_B B⁻¹, the row duals (`LpSolution.duals`), and the last also for B⁻¹b,
once per solve.

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

A start that serves many right-hand sides can be prepared once
(`prepare_start`): an `LpStart` holds the problem's standard form, the
inverse of its basis block and B⁻¹[N | 0], all read-only, so a solve from
it copies that tableau and computes only B⁻¹b.  Column generation runs
inside one solve (``solve_lp``'s ``price``; Desrosiers & Lübbecke, "A
primer in column generation", 2005): after each optimum's closing solve the
row duals go to the callback, and each column it returns joins the live
tableau as B⁻¹a by the split of the basis that solve made, one split per
pricing round.  The basis stays primal feasible, so the primal pivots go on
from it, up to the first optimum after which no priced column enters.
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


@dataclass(frozen=True, eq=False)
class _Form:
    """A checked problem without its right-hand sides, and its standard form
    ``A t = b, t >= 0`` in `LpBasis`'s layout.

    Working variables are all >= 0: working column t is ``sign[t]`` times
    variable ``var[t]`` less its ``shift`` (the finite lower bound, else the
    upper one, else 0), so a variable with only an upper bound is mirrored
    at it and a free one is split into a + then a - column.  Each variable
    in ``boxed`` (finite lower and upper bound) keeps its upper bound as one
    extra inequality row, after the problem's own.  ``cost`` prices the
    working columns and then the slacks, at 0.
    """

    c: np.ndarray
    a_ub: np.ndarray
    a_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    var: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    boxed: np.ndarray
    A: np.ndarray
    cost: np.ndarray

    @property
    def m_ub(self) -> int:
        return self.a_ub.shape[0] + self.boxed.size


@dataclass(frozen=True, eq=False)
class LpStart:
    """A basis of one problem, factorized once for many right-hand sides
    (`prepare_start`); every array in it is read-only.

    ``problem`` holds the checked data it was prepared for, ``form`` its
    standard form, and ``split``, ``inverse`` and ``tableau`` what
    `_refactor` made of the basis matrix B = A[rows][:, cols]: its `_split`,
    the inverse of its block B[R, J] (None without a block), and B⁻¹[N | 0]
    for the nonbasic columns in ascending order and a zero right-hand side.
    """

    problem: LpProblem
    basis: LpBasis
    form: _Form
    split: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    inverse: np.ndarray | None
    tableau: np.ndarray

    def tableau_for(self, b_std: np.ndarray) -> np.ndarray:
        """A fresh tableau B⁻¹[N | b] for the standard-form right-hand side ``b_std``."""
        rows, cols = self.basis.rows, self.basis.cols
        T = self.tableau.copy()
        T[:, -1:] = _through_basis(self.form.A[rows][:, cols], self.split, b_std[rows, None],
                                   self.inverse)
        return T


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


def _checked(problem: LpProblem):
    """``problem``'s (c, a_ub, b_ub, a_eq, b_eq, lower, upper) as float
    arrays, a missing matrix as no rows; raises ValueError when malformed."""
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
    return c, a_ub, b_ub, a_eq, b_eq, lower, upper


def _standard_form(c, a_ub, a_eq, lower, upper) -> _Form:
    n = c.size
    has_lo, has_up = np.isfinite(lower), np.isfinite(upper)
    free = ~has_lo & ~has_up
    shift = np.where(has_lo, lower, np.where(has_up, upper, 0.0))
    width = 1 + free
    first = np.cumsum(width) - width  # each variable's first working column
    var = np.repeat(np.arange(n), width)
    sign = np.ones(int(width.sum()))
    sign[np.concatenate([first[has_up & ~has_lo], first[free] + 1])] = -1.0
    boxed = np.nonzero(has_lo & has_up)[0]
    m_ub = a_ub.shape[0] + boxed.size
    # one slack per inequality row, each row as written
    A = np.zeros((m_ub + a_eq.shape[0], var.size + m_ub))
    unit_rows = (boxed[:, None] == np.arange(n)).astype(float)
    A[:, :var.size] = np.vstack([a_ub, unit_rows, a_eq])[:, var] * sign
    A[:m_ub, var.size:] = np.eye(m_ub)
    if np.all(lower == 0.0) and np.all(upper == np.inf):
        # every variable is a plain x >= 0, its own working column, so the
        # problem's rows are A's, and A holds them once
        a_ub, a_eq = A[:m_ub, :n], A[m_ub:, :n]
    cost = np.concatenate([c[var] * sign, np.zeros(m_ub)])
    return _Form(c, a_ub, a_eq, lower, upper, var, sign, shift, boxed, A, cost)


def _duals(form: _Form, rows, y) -> np.ndarray:
    """The row prices ``y`` of the kept standard-form ``rows`` in
    `LpSolution.duals`' layout: 0 on a dropped row, none for a bound row."""
    prices = np.zeros(form.m_ub + form.a_eq.shape[0])
    prices[rows] = y
    # a slack's reduced cost is -price, so an a_ub row's price is <= 0
    return np.concatenate([-prices[:form.a_ub.shape[0]], prices[form.m_ub:]])


def _insert(x, at, new):
    """``x`` with ``new`` inserted before index ``at`` of its last axis."""
    return np.concatenate([x[..., :at], new, x[..., at:]], axis=-1)


def _grown(form: _Form, new):
    """``form`` with the priced columns ``new``, an (at, c, a) of new
    variables x >= 0 before variable ``at`` (`solve_lp`'s ``price``), the
    standard-form index of the first of them and their number.  Raises
    ValueError when ``new`` is malformed."""
    at, c_new, a_new = new
    c_new, a_new = np.asarray(c_new, dtype=float), np.asarray(a_new, dtype=float)
    n, n_ub, rows = form.c.size, form.a_ub.shape[0], form.a_ub.shape[0] + form.a_eq.shape[0]
    if not (isinstance(at, (int, np.integer)) and not isinstance(at, bool) and 0 <= at <= n):
        raise ValueError(f"priced columns: position {at!r} is outside 0..{n}")
    if c_new.ndim != 1 or a_new.shape != (rows, c_new.size):
        raise ValueError(f"priced columns: costs of shape {c_new.shape} and columns of shape "
                         f"{a_new.shape} do not fit the problem's {rows} rows")
    if not (np.all(np.isfinite(c_new)) and np.all(np.isfinite(a_new))):
        raise ValueError("priced columns: entries must be finite")
    k = c_new.size
    grown = _standard_form(_insert(form.c, at, c_new), _insert(form.a_ub, at, a_new[:n_ub]),
                           _insert(form.a_eq, at, a_new[n_ub:]),
                           _insert(form.lower, at, np.zeros(k)),
                           _insert(form.upper, at, np.full(k, np.inf)))
    return grown, int(np.searchsorted(form.var, at)), k  # var[t] ascends in t


def _solution(form: _Form, b_ub, b_eq, t_vals, iterations, basis, y) -> LpSolution:
    """The OPTIMAL answer of working values ``t_vals`` (slack columns may
    follow the working ones) and row prices ``y`` of the kept rows, once x
    passes the re-verification against the original data; STALLED if not."""
    c, lower, upper = form.c, form.lower, form.upper
    x = form.shift + np.bincount(form.var, weights=form.sign * t_vals[:form.var.size],
                                 minlength=c.size)
    value = float(np.dot(c, x))
    viol = max(float(np.max(form.a_ub @ x - b_ub, initial=0.0)),
               float(np.max(np.abs(form.a_eq @ x - b_eq), initial=0.0)),
               float(np.max(np.where(np.isfinite(lower), lower - x, 0.0), initial=0.0)),
               float(np.max(np.where(np.isfinite(upper), x - upper, 0.0), initial=0.0)))
    scale = 1.0 + max(
        float(np.max(np.abs(b_ub), initial=0.0)),
        float(np.max(np.abs(b_eq), initial=0.0)),
        float(np.max(np.abs(x), initial=0.0)))
    if viol > 1e-6 * scale:
        return LpSolution(LpStatus.STALLED, None, np.nan, iterations)
    return LpSolution(LpStatus.OPTIMAL, x, value, iterations, basis, _duals(form, basis.rows, y))


def _fits(start, shape) -> bool:
    """Whether ``start`` is an `LpBasis` of a standard form of ``shape``."""
    return (isinstance(start, LpBasis) and start.shape == shape
            and all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind in "iu"
                    for v in (start.rows, start.cols))
            and start.rows.shape == start.cols.shape
            and bool(np.all((start.rows >= 0) & (start.rows < shape[0])))
            and bool(np.all((start.cols >= 0) & (start.cols < shape[1]))))


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


def _substitute(B, split, X, inverse=None):
    """Turn ``X`` into B⁻¹M in place, for the basis matrix ``B`` and its
    `_split`, when X holds M[R] on the rows J and M[s_rows] on the rows S.

    The block rows come from ``inverse`` @ X[J] when the block's inverse is
    given, else from one LU solve with the block (which raises LinAlgError
    when it is singular); each singleton's row then follows by substitution,
    (M_s - B[s, J] X_J) / B[s, s].
    """
    S, J, s_rows, R = split
    if J.size:
        X[J] = np.linalg.solve(B[:, J][R], X[J]) if inverse is None else inverse @ X[J]
        X[S] -= B[:, J][s_rows] @ X[J]
    X[S] /= B[s_rows, S][:, None]


def _through_basis(B, split, M, inverse=None):
    """B⁻¹M in basis order, by `_substitute`."""
    S, J, s_rows, R = split
    X = np.empty((B.shape[1], M.shape[1]))
    X[J], X[S] = M[R], M[s_rows]
    _substitute(B, split, X, inverse)
    return X


def _refactor(T, basis, nonbasic, A0, b0):
    """Write B⁻¹[A0[:, nonbasic] | b0] into ``T``, for B = A0[:, basis], the
    one way a tableau is built; returns B's `_split` and its block's inverse
    (None without a block), or None when B is singular or T not finite.

    A basic column s with a single nonzero (every slack, and the odd
    structural column) is absent from every row but its own.  So only the
    block B[R, J] of the rows R no such singleton covers and the other basic
    columns J is factorized, and each singleton's row of the result follows
    from its own row of B by one substitution (`_substitute`; Suhl & Suhl,
    *ORSA J. Computing* 2(4), 1990).  The all-slack basis factorizes
    nothing.  The block is inverted once and the inverse applied to all of
    M[R] by one matrix product.  The basic columns are not written: B⁻¹B is
    the identity.
    """
    B = A0[:, basis]
    split = _split(B)
    if split is None:
        return None
    S, J, s_rows, R = split
    N = A0[:, nonbasic]
    T[J, -1], T[S, -1] = b0[R], b0[s_rows]
    T[J, :-1], T[S, :-1] = N[R], N[s_rows]
    try:
        inverse = np.linalg.inv(B[:, J][R]) if J.size else None
    except np.linalg.LinAlgError:
        return None
    _substitute(B, split, T, inverse)
    return (split, inverse) if np.all(np.isfinite(T)) else None


def _closing_solve(B, cost_b):
    """The basis matrix ``B``'s `_split` and the row prices y with yB =
    ``cost_b``; None when B is singular or y is not finite.

    The singleton split carries over to the transpose: each singleton column
    s fixes its row's price, y[s_row] = c_s / B[s_row, s], and the other
    basic columns J then give y[R] by one solve with the block B[R, J]ᵀ.
    """
    split = _split(B)
    if split is None:
        return None
    S, J, s_rows, R = split
    y = np.zeros(B.shape[1])
    y[s_rows] = cost_b[S] / B[s_rows, S]
    try:
        if J.size:
            y[R] = np.linalg.solve(B[:, J][R].T, cost_b[J] - B[:, J][s_rows].T @ y[s_rows])
    except np.linalg.LinAlgError:
        return None
    return (split, y) if np.all(np.isfinite(y)) else None


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
            if _refactor(T, basis, nonbasic, A0, b0) is None:
                return "stalled", counter
            r = _reduced_costs(cost, basis, nonbasic, T)
            since_refactor = 0


def _from_basis(form, b, rows, cols, max_iters, iters, dual_tol=None, price=None, T=None):
    """Phase two of ``form.A[rows] t = b[rows], t >= 0`` from the basic columns ``cols``.

    The tableau holds B⁻¹ times the other columns, in ascending order at the
    start, and B⁻¹b: ``T`` when given, else refactored here.  With a
    ``dual_tol``, dual pivots first restore primal feasibility and must end
    "feasible"; a start that is primal feasible already goes straight to the
    primal pivots, dual feasible or not.

    After each optimum's closing solve, ``price`` (`solve_lp`'s) gets the
    row duals; the columns it returns grow ``form`` and join the tableau as
    B⁻¹a by that solve's split of B, the same matrix after the index shift,
    and the primal pivots go on.  Once ``price`` returns None, or a round's
    columns take no pivot (B is then optimal for the grown form), B⁻¹b is
    solved by the last split.  Returns (status, pivots, working values,
    basis, row prices y = c_B B⁻¹ over ``rows``, form as grown); the middle
    three are None unless the status is "optimal".
    """
    A0, b0, basis = form.A[rows], b[rows], cols.copy()
    nonbasic = _complement(basis, form.A.shape[1])
    if T is None:
        T = np.empty((basis.size, nonbasic.size + 1))
        if _refactor(T, basis, nonbasic, A0, b0) is None:
            return "stalled", iters, None, None, None, form
    status = "feasible"
    if dual_tol is not None:
        status, iters = _run_phase(T, basis, nonbasic, A0, b0, form.cost, max_iters, iters,
                                   partial(_dual_pivot, tol=dual_tol, run=[0]))
    if status == "feasible":
        status, iters = _run_phase(T, basis, nonbasic, A0, b0, form.cost, max_iters, iters)
    while status == "optimal":
        B = A0[:, basis]
        closed = _closing_solve(B, form.cost[basis])
        if closed is None:
            break
        split, y = closed
        new = None if price is None else price(_duals(form, rows, y))
        if new is not None:
            form, at, k = _grown(form, new)
            A0, new = form.A[rows], np.arange(at, at + k)
        try:  # B⁻¹a, or B⁻¹b once pricing is over
            X = _through_basis(B, split, b0[:, None] if new is None else A0[:, new])
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(X)):
            break
        if new is None:
            t_vals = np.zeros(form.A.shape[1])
            t_vals[basis] = np.maximum(X[:, 0], 0.0)
            return status, iters, t_vals, LpBasis(form.A.shape, rows, basis), y, form
        basis += k * (basis >= at)
        nonbasic += k * (nonbasic >= at)
        T = np.column_stack([T[:, :-1], X, T[:, -1]])
        nonbasic = np.concatenate([nonbasic, new])
        pivots = iters
        status, iters = _run_phase(T, basis, nonbasic, A0, b0, form.cost, max_iters, iters)
        if iters == pivots:  # no priced column entered, so B stays optimal for the grown form
            price = None
    return "stalled" if status == "optimal" else status, iters, None, None, None, form


def solve_lp(problem: LpProblem, max_iters: int | None = None,
             start: LpBasis | LpStart | None = None, price=None) -> LpSolution:
    """Solve ``problem`` with the two-phase dense simplex method.

    Returns OPTIMAL with the minimizer, its basis and its row duals (empty
    for a problem without constraint rows, whose basis has no rows),
    INFEASIBLE / UNBOUNDED when phase one or two proves it, and STALLED when
    the iteration or accuracy budget is exhausted.  An OPTIMAL answer is
    re-verified against the original data before being reported; a failed
    check demotes the status to STALLED rather than ever reporting a wrong
    optimum.  ``max_iters`` bounds the pivots of the solve from ``start``,
    all its pricing rounds together, and apart from them those of the cold
    solve.

    ``start`` may be any dual-feasible basis of this problem, such as the
    basis of an earlier OPTIMAL solve of a problem with the same constraint
    matrix and costs, or one built by the caller in `LpBasis`'s layout; or
    any primal-feasible one, such as an earlier optimal basis after columns
    were added (their indices shifted into `LpBasis`'s layout).  It may also
    be an `LpStart` that `prepare_start` built for a problem with the same
    ``c``, ``a_ub``, ``a_eq``, ``lower`` and ``upper`` (anything else raises
    `ValueError`); the solve then copies its tableau and computes only B⁻¹b.
    Without a start, a problem with no equality rows whose working costs are
    all >= 0 (as in an epigraph LP: shifted variables, free ones split into
    two columns of cost 0) starts from its all-slack basis.  The solve then
    begins with dual simplex pivots from the start, the row with the most
    negative basic value leaving until a long run of degenerate pivots hands
    over to Bland's dual rule; once the basis is primal feasible, primal
    pivots end it with the same optimality test and re-verification.  A
    start that does not fit, is singular, is neither primal nor dual
    feasible, stalls, or ends anywhere but at a verified optimum falls back
    to the cold two-phase solve, so INFEASIBLE and UNBOUNDED are always
    decided cold; ``iterations`` then counts the pivots of both.

    ``price``, when given, generates columns.  After each optimum's closing
    solve it gets the row duals (`LpSolution.duals`' layout) and returns
    None, or (at, c, a): new variables x >= 0 of costs ``c`` (k values) and
    columns ``a`` (one row per ``a_ub`` row, then per ``a_eq`` row, k
    columns), inserted before variable ``at``.  They join the live tableau
    at the same basis and the primal pivots go on.  The solve ends at the
    first optimum after which no priced column enters (the callback returns
    None, no column, or only columns that do not improve), so every round
    but the last pivots and it prices at most ``max_iters`` + 1 times.  It
    is then re-verified once, on the grown problem, whose layout ``x`` and
    ``basis`` follow.  A pricing round splits the basis once, for the row
    prices and B⁻¹a, and B⁻¹b is solved once per solve, at its last
    optimum.  A cold fallback solves the grown problem and goes on pricing.
    A malformed column (wrong shape, a non-finite entry, ``at`` outside
    0..n) raises `ValueError`.
    """
    c, a_ub, b_ub, a_eq, b_eq, lower, upper = _checked(problem)
    prepared = isinstance(start, LpStart)
    if prepared and not all(mine is theirs or np.array_equal(mine, theirs) for mine, theirs in
                            zip((c, a_ub, a_eq, lower, upper), (start.form.c, start.form.a_ub,
                                start.form.a_eq, start.form.lower, start.form.upper))):
        raise ValueError("the prepared start is for a problem with other c, a_ub, a_eq, "
                         "lower or upper")
    if np.any(lower > upper):
        return LpSolution(LpStatus.INFEASIBLE, None, np.nan, 0)
    form = start.form if prepared else _standard_form(c, a_ub, a_eq, lower, upper)
    b_std = np.concatenate([b_ub - form.a_ub @ form.shift,
                            form.upper[form.boxed] - form.lower[form.boxed],
                            b_eq - form.a_eq @ form.shift])
    m, m_ub, nt = b_std.size, form.m_ub, form.var.size
    # rows with a negative right-hand side, and all equality rows, receive an
    # artificial variable for phase one
    needs_art = b_std < 0
    needs_art[m_ub:] = True
    if max_iters is None:
        max_iters = 2000 + 10 * (m + form.A.shape[1] + int(needs_art.sum()))
    if start is None and m == m_ub and np.all(form.cost[:nt] >= 0.0):
        # every slack basic prices every row at 0, so the reduced costs are
        # the working costs: dual feasible
        start = LpBasis(form.A.shape, np.arange(m), nt + np.arange(m))
    spent = 0
    if prepared or _fits(start, form.A.shape):
        basis, T = (start.basis, start.tableau_for(b_std)) if prepared else (start, None)
        tol = PRIMAL_TOL * (1.0 + float(np.max(np.abs(b_std[basis.rows]), initial=0.0)))
        status, spent, t_vals, basis, y, form = _from_basis(form, b_std, basis.rows, basis.cols,
                                                            max_iters, 0, tol, price, T)
        if status == "optimal":
            sol = _solution(form, b_ub, b_eq, t_vals, spent, basis, y)
            if sol.status == LpStatus.OPTIMAL:
                return sol
    status, iters, t_vals, basis, y, form = _two_phase(form, b_std, needs_art, max_iters, price)
    if status != "optimal":
        return LpSolution(LpStatus(status), None, np.nan, iters + spent)
    return _solution(form, b_ub, b_eq, t_vals, iters + spent, basis, y)


def prepare_start(problem: LpProblem, basis: LpBasis) -> LpStart:
    """``basis`` of ``problem``'s standard form, factorized once for the
    solves of every problem with the same ``c``, ``a_ub``, ``a_eq``,
    ``lower`` and ``upper``, whatever their right-hand sides.

    Builds the standard form and the tableau B⁻¹[N | 0] by `_refactor`, as
    every tableau is built, and keeps read-only copies of all of it;
    ``solve_lp(..., start=...)`` then copies the tableau and computes only
    B⁻¹b.  Raises `ValueError` when ``problem`` is malformed or ``basis``
    does not fit its standard form or is singular.
    """
    c, a_ub, b_ub, a_eq, b_eq, lower, upper = (np.array(v) for v in _checked(problem))
    form = _standard_form(c, a_ub, a_eq, lower, upper)
    if not _fits(basis, form.A.shape):
        raise ValueError(f"the basis does not fit the standard form of shape {form.A.shape}")
    rows, cols = basis.rows.copy(), basis.cols.copy()
    nonbasic = _complement(cols, form.A.shape[1])
    tableau = np.empty((rows.size, nonbasic.size + 1))
    factored = _refactor(tableau, cols, nonbasic, form.A[rows], np.zeros(rows.size))
    if factored is None:
        raise ValueError("the basis is singular")
    split, inverse = factored
    start = LpStart(LpProblem(form.c, form.a_ub, b_ub, form.a_eq, b_eq, form.lower, form.upper),
                    LpBasis(form.A.shape, rows, cols), form, split, inverse, tableau)
    for value in (*vars(start.problem).values(), rows, cols, *vars(form).values(), *split,
                  inverse, tableau):
        if value is not None:
            value.setflags(write=False)
    return start


def _two_phase(form, b_std, needs_art, max_iters, price=None):
    """The cold solve of ``form.A t = b_std, t >= 0``.

    Rows flagged in ``needs_art`` start on an artificial, the row's unit
    vector times the sign of its b, so it starts at |b|; every other row is
    an inequality whose slack starts basic.  Phase two prices columns by
    ``price``, as `_from_basis` does, and returns what it returns.
    """
    m, art_off = form.A.shape
    art_rows = np.nonzero(needs_art)[0]
    A0 = np.hstack([form.A, np.zeros((m, art_rows.size))])
    basis = form.var.size + np.arange(m)
    A0[art_rows, art_off + np.arange(art_rows.size)] = np.where(b_std[art_rows] < 0, -1.0, 1.0)
    basis[art_rows] = art_off + np.arange(art_rows.size)
    nonbasic = _complement(basis, A0.shape[1])
    T = np.empty((m, nonbasic.size + 1))
    _refactor(T, basis, nonbasic, A0, b_std)  # B is diagonal ±1: every column a singleton

    cost1 = np.zeros(A0.shape[1])
    cost1[art_off:] = 1.0
    status, iters = _run_phase(T, basis, nonbasic, A0, b_std, cost1, max_iters, 0)
    if status == "stalled" or status == "unbounded":
        return "stalled", iters, None, None, None, form
    art_total = float(np.sum(T[basis >= art_off, -1], initial=0.0))
    if art_total > 1e-7 * (1.0 + float(np.max(np.abs(b_std), initial=0.0))):
        return "infeasible", iters, None, None, None, form

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
    return _from_basis(form, b_std, keep, basis[keep], max_iters, iters, price=price)
