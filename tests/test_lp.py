"""Simplex kernel checks: known optima, statuses, duality, invariances."""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from caolf import lp
from caolf.lp import LpBasis, LpProblem, LpStatus, _pivot, solve_lp


def test_two_variable_known_optimum():
    # max x+y s.t. x<=2, y<=3  ->  min -(x+y) = -5 at (2,3)
    sol = solve_lp(LpProblem(c=[-1.0, -1.0],
                             a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[2.0, 3.0]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(-5.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [2.0, 3.0], atol=1e-9)


def test_equality_and_free_variable():
    # min x1 + 2 x2  s.t.  x1 + x2 == 1, x2 free  ->  x2 -> large negative? no:
    # x1 >= 0 so x2 = 1 - x1 and objective = x1 + 2(1 - x1) = 2 - x1, push x1 up;
    # x1 unbounded above with x2 compensating, objective unbounded below
    sol = solve_lp(LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                             lower=np.array([0.0, -np.inf])))
    assert sol.status == LpStatus.UNBOUNDED


def test_equality_with_bounded_free_variable():
    # same but objective x1 - 2 x2: now x1 = 0, x2 = 1 is optimal (value -2)
    sol = solve_lp(LpProblem(c=[1.0, -2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                             lower=np.array([0.0, -np.inf])))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(-2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)


def test_infeasible_detected():
    # x >= 0 with x <= -1 cannot hold
    sol = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
    assert sol.status == LpStatus.INFEASIBLE


def test_unbounded_detected():
    sol = solve_lp(LpProblem(c=[-1.0]))
    assert sol.status == LpStatus.UNBOUNDED


def test_crossing_bounds_infeasible():
    sol = solve_lp(LpProblem(c=[1.0], lower=np.array([2.0]), upper=np.array([1.0])))
    assert sol.status == LpStatus.INFEASIBLE


def test_no_constraints_sits_at_lower_bounds():
    sol = solve_lp(LpProblem(c=[3.0, 0.5], lower=np.array([-1.0, 2.0])))
    assert sol.status == LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [-1.0, 2.0], atol=1e-12)


def test_a_row_less_optimum_carries_an_empty_basis_and_duals():
    # a problem without rows takes the general path from its all-slack
    # basis, which has no rows: it reports that basis and no duals, and a
    # solve from it gives the same bits
    problem = LpProblem(c=[3.0, 0.5], lower=np.array([-1.0, 2.0]))
    sol = solve_lp(problem)
    assert sol.status == LpStatus.OPTIMAL and sol.iterations == 0
    assert sol.basis.shape == (0, 2) and sol.basis.rows.size == sol.basis.cols.size == 0
    assert sol.duals.shape == (0,)
    again = solve_lp(problem, start=sol.basis)
    same_solution(again, sol)
    assert np.array_equal(again.basis.cols, sol.basis.cols) and np.array_equal(again.duals, sol.duals)


def test_a_row_less_unbounded_problem_takes_no_pivot():
    # a negative working cost (a negative cost, a free variable's - part)
    # with no row to stop it: the cold solve's phase two finds no leaving row
    for problem in (LpProblem(c=[-1.0]),
                    LpProblem(c=[1.0, 2.0], lower=np.array([-np.inf, 0.0]))):
        sol = solve_lp(problem)
        assert sol.status == LpStatus.UNBOUNDED and sol.iterations == 0
        assert sol.x is None and sol.basis is None


def test_variable_upper_bounds():
    # min -x1 - x2 with x <= (1, 2) elementwise
    sol = solve_lp(LpProblem(c=[-1.0, -1.0], upper=np.array([1.0, 2.0])))
    assert sol.status == LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_every_bound_kind_in_one_lp():
    # x0 boxed (shifted, one extra row), x1 lower only (shifted), x2 upper
    # only (mirrored), x3 free (split into + then -): 5 working columns,
    # then one slack per row; the basis pins that column order
    sol = solve_lp(LpProblem(c=[-1.0, 1.0, -1.0, 1.0],
                             a_ub=[[0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.0, -1.0]], b_ub=[6.0, 5.0],
                             lower=np.array([-1.0, 0.5, -np.inf, -np.inf]),
                             upper=np.array([2.0, np.inf, 4.0, np.inf])))
    assert sol.status == LpStatus.OPTIMAL
    np.testing.assert_array_equal(sol.x, [2.0, 0.5, 4.0, -2.0])
    assert sol.value == -7.5
    assert sol.iterations == 2
    assert sol.basis.shape == (3, 8)
    np.testing.assert_array_equal(sol.basis.cols, [4, 6, 0])


def test_degenerate_transport_problem():
    # balanced 2x2 transportation: supplies (1,1), demands (1,1),
    # costs [[1, 3], [3, 1]] -> ship diagonally, total cost 2
    a_eq = [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ]
    sol = solve_lp(LpProblem(c=[1.0, 3.0, 3.0, 1.0], a_eq=a_eq, b_eq=[1.0, 1.0, 1.0, 1.0]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_redundant_equality_rows_are_dropped():
    # duplicated constraint row must not break phase transition
    sol = solve_lp(LpProblem(c=[1.0, 1.0],
                             a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_phase_one_may_drop_every_row():
    # the only row is 0 = 0, so phase one leaves a basis with no rows
    problem = LpProblem(c=[1.0], a_eq=[[0.0]], b_eq=[0.0])
    sol = solve_lp(problem)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.x.tolist() == [0.0] and sol.value == 0.0
    assert sol.duals.tolist() == [0.0]
    assert sol.basis.rows.size == 0
    same_solution(solve_lp(problem, start=sol.basis), sol)
    assert solve_lp(replace(problem, c=[-1.0])).status == LpStatus.UNBOUNDED


def test_weak_duality_spot_checks():
    # build primal-feasible x0 and dual-feasible y0 <= 0, then
    # b.y0 <= optimum <= c.x0 brackets the reported value
    rng = np.random.default_rng(42)
    for _ in range(30):
        m, n = rng.integers(2, 7), rng.integers(2, 7)
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 2, n)
        b = a @ x0 + rng.uniform(0.1, 1.0, m)
        y0 = -rng.uniform(0, 2, m)
        c = a.T @ y0 + rng.uniform(0.1, 1.0, n)
        sol = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.value >= float(b @ y0) - 1e-7
        assert sol.value <= float(c @ x0) + 1e-7


def test_row_and_column_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = 5, 6
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, n)
        b = a @ x0 + rng.uniform(0.1, 0.5, m)
        c = rng.uniform(0.1, 2.0, n)  # positive costs keep it bounded
        base = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
        rows = rng.permutation(m)
        cols = rng.permutation(n)
        perm = solve_lp(LpProblem(c=c[cols], a_ub=a[np.ix_(rows, cols)], b_ub=b[rows]))
        assert base.status == LpStatus.OPTIMAL and perm.status == LpStatus.OPTIMAL
        assert perm.value == pytest.approx(base.value, abs=1e-8)


def test_reported_x_respects_constraints():
    rng = np.random.default_rng(15)
    for _ in range(20):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, n)
        b = a @ x0 + rng.uniform(0.05, 1.0, m)
        c = rng.uniform(0.0, 2.0, n)
        sol = solve_lp(LpProblem(c=c, a_ub=a, b_ub=b))
        assert sol.status == LpStatus.OPTIMAL
        assert np.all(a @ sol.x <= b + 1e-7)
        assert np.all(sol.x >= -1e-9)


def test_iteration_budget_reports_stalled():
    # equality rows force artificial pivots, so one iteration cannot finish
    a_eq = [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
    sol = solve_lp(LpProblem(c=[1.0, 3.0, 3.0, 1.0], a_eq=a_eq,
                             b_eq=[1.0, 1.0, 1.0, 1.0]), max_iters=1)
    assert sol.status == LpStatus.STALLED
    assert sol.x is None


def test_input_validation():
    with pytest.raises(ValueError):
        solve_lp(LpProblem(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0]))
    with pytest.raises(ValueError):
        solve_lp(LpProblem(c=[1.0], a_ub=[[np.inf]], b_ub=[1.0]))
    with pytest.raises(ValueError):
        solve_lp(LpProblem(c=[1.0], lower=np.array([np.nan])))
    # a non-finite objective is rejected too, not solved to a NaN "optimum"
    for c in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="objective"):
            solve_lp(LpProblem(c=c, a_ub=[[1.0, 1.0]], b_ub=[1.0]))


def test_a_malformed_matrix_is_rejected_before_crossing_bounds_answer():
    # crossing bounds make the problem INFEASIBLE, but a malformed matrix is
    # a caller's error and is reported as one
    crossing = dict(lower=np.array([1.0]), upper=np.array([0.0]))
    with pytest.raises(ValueError, match="shape"):
        solve_lp(LpProblem(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0], **crossing))
    with pytest.raises(ValueError, match="finite"):
        solve_lp(LpProblem(c=[1.0], a_ub=[[np.nan]], b_ub=[1.0], **crossing))


def test_a_matrix_without_its_right_hand_side_is_named():
    # the message names the missing half, not a shape or finiteness fault
    with pytest.raises(ValueError, match="a_ub: the right-hand side is missing"):
        solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]]))
    with pytest.raises(ValueError, match="a_ub: the matrix is missing"):
        solve_lp(LpProblem(c=[1.0], b_ub=[1.0]))
    with pytest.raises(ValueError, match="a_eq: the right-hand side is missing"):
        solve_lp(LpProblem(c=[1.0], a_eq=[[1.0]]))


def test_an_optimum_that_fails_its_check_is_reported_stalled(monkeypatch):
    # finish re-verifies every optimum against the original data: a phase
    # two that claimed t = (2, 0) for x1 + x2 <= 1 must not be reported
    def wrong_two_phase(form, b_std, needs_art, max_iters, price=None):
        basis = LpBasis(form.A.shape, np.array([0]), np.array([0]))
        return "optimal", 3, np.array([2.0, 0.0, 0.0]), basis, np.array([-1.0]), form

    monkeypatch.setattr(lp, "_two_phase", wrong_two_phase)
    sol = solve_lp(LpProblem(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert sol.status == LpStatus.STALLED
    assert sol.x is None and sol.basis is None and sol.duals is None
    assert sol.iterations == 3


def test_pivot_matches_the_dense_rank_one_update():
    # _pivot keeps only the nonbasic columns and updates only the rows with a
    # nonzero in the pivot column when they are few; either way its tableau
    # must equal the nonbasic columns of the dense update of the full
    # tableau, whose basic columns are unit vectors, and the leaving
    # variable's column must read -factor/p with 1/p on the pivot row
    rng = np.random.default_rng(19)
    for density in (0.1, 0.3, 0.6, 1.0):
        basis = rng.permutation(100)[:40]
        nonbasic = rng.permutation(np.setdiff1d(np.arange(100), basis))
        full = np.zeros((40, 101))
        full[:, basis] = np.eye(40)
        full[:, nonbasic] = rng.normal(size=(40, 60)) * (rng.random((40, 60)) < density)
        full[:, -1] = rng.uniform(0.0, 2.0, 40)
        r_full = rng.normal(size=100)
        r_full[basis] = 0.0
        T, r = full[:, np.append(nonbasic, 100)], r_full[nonbasic]
        row = 3
        k = int(np.argmax(np.abs(T[row, :-1]) > 0))
        col, leaving, factor = nonbasic[k], basis[row], T[:, k].copy()
        want = full.copy()
        want[row] /= want[row, col]
        dense = want[:, col].copy()
        dense[row] = 0.0
        want -= np.outer(dense, want[row])
        want_r = r_full - r_full[col] * want[row, :-1]
        _pivot(T, r, basis, nonbasic, row, k)
        assert basis[row] == col and nonbasic[k] == leaving
        assert np.array_equal(T, want[:, np.append(nonbasic, 100)])
        assert np.array_equal(r, want_r[nonbasic])
        leaving_col = -factor * (1.0 / factor[row])
        leaving_col[row] = 1.0 / factor[row]
        assert np.array_equal(T[:, k], leaving_col)


def sparse_standard_form(rng, m=30, n=40, density=0.08):
    """A0 = [structural | slacks] with every third slack negated, as a row
    flipped for its negative right-hand side leaves it, and b0 >= 0."""
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    return np.hstack([A, np.diag(np.where(np.arange(m) % 3 == 0, -1.0, 1.0))]), rng.uniform(0.0, 2.0, m)


def dominant_basis(rng, A0, structural, m):
    """``structural`` random structural columns and the slacks of all rows
    but as many others, on which each of those columns gets a dominant entry
    so that the basis is well conditioned."""
    n = A0.shape[1] - m
    cols, rows = rng.choice(n, structural, replace=False), rng.permutation(m)
    A0[rows[:structural], cols] = rng.choice([-4.0, 4.0], structural)
    basis = rng.permutation(np.concatenate([cols, n + rows[structural:]]))
    assert np.linalg.cond(A0[:, basis]) < 1e6
    return basis


def singletons(A0, basis):
    return int(np.sum(np.count_nonzero(A0[:, basis], axis=0) == 1))


def refactored(A0, b0, basis, nonbasic):
    T = np.full((basis.size, nonbasic.size + 1), np.nan)
    assert lp._refactor(T, basis, nonbasic, A0, b0)
    return T


def random_bases(rng):
    """40 (A0, b0, basis) triples, each kind of basis among them: all
    slack, mixed singletons and others, and no singleton at all."""
    seen = set()
    for trial in range(40):
        structural, density = [(0, 0.08), (5, 0.08), (15, 0.08), (25, 0.08), (30, 0.4)][trial % 5]
        A0, b0 = sparse_standard_form(rng, density=density)
        basis = dominant_basis(rng, A0, structural, 30)
        k = singletons(A0, basis)
        seen.add("all slack" if k == 30 and structural == 0 else "none" if k == 0 else "mixed")
        yield A0, b0, basis
    assert seen == {"all slack", "mixed", "none"}


def shuffled_nonbasic(rng, A0, basis):
    return rng.permutation(np.setdiff1d(np.arange(A0.shape[1]), basis))


def test_refactor_matches_the_dense_solve():
    # only the block of the basis that is not a column singleton is
    # factorized; the result must still be B⁻¹[A0[:, nonbasic] | b0], in
    # the order of ``nonbasic``, and the closing solve's basic values must
    # match its last column, B⁻¹b0
    rng = np.random.default_rng(23)
    for A0, b0, basis in random_bases(rng):
        nonbasic = shuffled_nonbasic(rng, A0, basis)
        want = np.linalg.solve(A0[:, basis], np.c_[A0[:, nonbasic], b0])
        T = refactored(A0, b0, basis, nonbasic)
        np.testing.assert_allclose(T, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        B = A0[:, basis]
        split, _ = lp._closing_solve(B, np.zeros(30))
        np.testing.assert_allclose(lp._through_basis(B, split, b0[:, None])[:, 0], T[:, -1],
                                   rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_the_closing_solve_matches_the_dense_solve():
    # the row prices y with yB = c_B, and the basic values B⁻¹b0 by the
    # split the closing solve returns, from the singleton split and one block
    # solve each, against the dense solves
    rng = np.random.default_rng(37)
    for A0, b0, basis in random_bases(rng):
        cost_b = rng.normal(size=30)
        B = A0[:, basis]
        split, y = lp._closing_solve(B, cost_b)
        x = lp._through_basis(B, split, b0[:, None])[:, 0]
        for got, want in ((x, np.linalg.solve(B, b0)), (y, np.linalg.solve(B.T, cost_b))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    # singular bases as in the refactor's test below: two singletons on row
    # 4, then a structural column that is 0 on the one row left to it
    A0, b0 = sparse_standard_form(rng)
    A0[:, 0] = 0.0
    A0[4, 0] = 3.0
    basis = 40 + np.arange(30)
    basis[7] = 0
    assert lp._closing_solve(A0[:, basis], np.ones(30)) is None
    A0[[2, 9], 0] = [1.0, -1.0]
    assert lp._closing_solve(A0[:, basis], np.ones(30)) is None


def test_refactor_substitutes_a_structural_singleton():
    rng = np.random.default_rng(29)
    A0, b0 = sparse_standard_form(rng)
    basis = dominant_basis(rng, A0, 10, 30)
    # a structural column whose one nonzero sits on a row whose slack it
    # replaces in the basis
    col = np.setdiff1d(np.arange(40), basis)[0]
    pos = np.nonzero(basis >= 40)[0][0]
    A0[:, col] = 0.0
    A0[basis[pos] - 40, col] = -2.5
    basis[pos] = col
    assert np.count_nonzero(A0[:, col]) == 1 and 20 <= singletons(A0, basis) < 30
    nonbasic = shuffled_nonbasic(rng, A0, basis)
    want = np.linalg.solve(A0[:, basis], np.c_[A0[:, nonbasic], b0])
    np.testing.assert_allclose(refactored(A0, b0, basis, nonbasic), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_refactor_reports_a_singular_basis():
    A0, b0 = sparse_standard_form(np.random.default_rng(31))
    # two singletons on one row: a structural column whose one nonzero is on
    # row 4, whose slack is basic too
    A0[:, 0] = 0.0
    A0[4, 0] = 3.0
    basis = 40 + np.arange(30)
    basis[7] = 0
    nonbasic = np.setdiff1d(np.arange(A0.shape[1]), basis)
    T = np.empty((30, nonbasic.size + 1))
    assert not lp._refactor(T, basis, nonbasic, A0, b0)
    # a singular block left after the singletons: the one structural column
    # has its nonzeros only on rows the slacks cover, so it is 0 on row 7
    A0[[2, 9], 0] = [1.0, -1.0]
    assert np.count_nonzero(A0[:, 0]) == 3
    assert not lp._refactor(T, basis, nonbasic, A0, b0)


# ---------------------------------------------------------------------------
# warm re-solves from a recorded basis


def flow_like_problem(rng, b_ub):
    """Equalities with a dependent row, and four capacities that dearer
    columns may exceed, as in the routing LP: feasible for every ``b_ub``."""
    n = 8
    a_eq = rng.normal(size=(3, n))
    a_eq = np.hstack([np.vstack([a_eq, a_eq[0] + a_eq[1]]), np.zeros((4, 4))])
    x0 = rng.uniform(0.5, 1.5, n + 4)
    a_ub = np.hstack([np.eye(4), np.zeros((4, n - 4)), -np.eye(4)])
    c = np.concatenate([rng.uniform(0.5, 3.0, n), rng.uniform(5.0, 8.0, 4)])
    return LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=a_eq @ x0)


def same_solution(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    if a.status == LpStatus.OPTIMAL:
        assert a.value == b.value
        np.testing.assert_array_equal(a.x, b.x)


def test_warm_start_reaches_the_cold_optimum_for_another_rhs(monkeypatch):
    # the base and the warm-started problems share a_eq, b_eq and c, so every
    # warm solve stays on the dual simplex and never falls back to the cold solve
    cold_solves = []
    two_phase = lp._two_phase

    def counted_two_phase(*args):
        cold_solves.append(1)
        return two_phase(*args)

    monkeypatch.setattr(lp, "_two_phase", counted_two_phase)
    for seed in range(10):
        rng = np.random.default_rng([11, seed])
        base = flow_like_problem(np.random.default_rng([11, seed]), rng.uniform(1.0, 2.0, 4))
        first = solve_lp(base)
        assert first.status == LpStatus.OPTIMAL
        assert first.basis.rows.size == 7  # the dependent equality row was dropped
        again = solve_lp(base, start=first.basis)
        assert again.iterations == 0
        np.testing.assert_allclose(again.x, first.x, atol=1e-12)
        for _ in range(5):
            problem = flow_like_problem(np.random.default_rng([11, seed]), rng.uniform(0.0, 3.0, 4))
            cold = solve_lp(problem)
            before = len(cold_solves)
            warm = solve_lp(problem, start=first.basis)
            assert len(cold_solves) == before
            assert cold.status == warm.status == LpStatus.OPTIMAL
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
            assert np.all(problem.a_ub @ warm.x <= problem.b_ub + 1e-9)
            assert warm.basis is not None


def test_a_start_basis_on_another_matrix_reaches_the_cold_optimum():
    # one coefficient of a basic column changes: the start from the recorded
    # basis still ends at the cold optimum, and so does the unchanged problem
    problem = flow_like_problem(np.random.default_rng([19, 0]), np.full(4, 1.5))
    start = solve_lp(problem).basis
    changed = replace(problem, a_eq=problem.a_eq.copy())
    j = start.cols[start.cols < 8][0]  # a basic flow column: dense on the equality rows
    changed.a_eq[2, j] += 0.01  # row 2 is kept; rows 0 and 1 make up the dependent row 3
    for other in (changed, problem):
        cold = solve_lp(other)
        warm = solve_lp(other, start=start)
        assert cold.status == warm.status == LpStatus.OPTIMAL
        assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(other.a_eq @ warm.x, other.b_eq, atol=1e-9)


def test_a_hand_built_dual_feasible_start_beats_the_cold_solve():
    # Standard form: rows 0-3 are a_ub, 4-7 a_eq (7 is dependent and left
    # out); columns 0-11 are the variables, 12-15 the a_ub slacks.  With every
    # slack basic the a_ub rows price at 0, so the dearer columns 8-11 keep
    # positive reduced costs, and any three columns of 0-7 that price the
    # others nonnegative on the equality rows give a dual-feasible start.
    warm_total = cold_total = 0
    for seed in range(10):
        problem = flow_like_problem(np.random.default_rng([13, seed]), np.full(4, 0.5))
        a_eq, c = problem.a_eq[:3, :8], problem.c[:8]
        for trio in map(list, itertools.combinations(range(8), 3)):
            if abs(np.linalg.det(a_eq[:, trio])) > 1e-9:
                prices = np.linalg.solve(a_eq[:, trio].T, c[trio])
                if np.all(c - prices @ a_eq >= -1e-12):
                    break
        start = LpBasis((8, 16), np.arange(7), np.array([12, 13, 14, 15, *trio]))
        cold, warm = solve_lp(problem), solve_lp(problem, start=start)
        assert cold.status == warm.status == LpStatus.OPTIMAL
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        assert warm.iterations <= cold.iterations
        warm_total += warm.iterations
        cold_total += cold.iterations
    assert 3 * warm_total < cold_total  # 35 against 107 pivots


def test_unusable_starts_fall_back_to_the_cold_solve():
    problem = LpProblem(c=[1.0, 1.0, 2.0], a_ub=[[-1.0, -1.0, -1.0], [1.0, 1.0, 3.0]],
                        b_ub=[-1.0, 5.0])
    cold = solve_lp(problem)
    assert cold.status == LpStatus.OPTIMAL
    # a basis of a problem with another shape
    other = solve_lp(LpProblem(c=[1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0]))
    same_solution(solve_lp(problem, start=other.basis), cold)
    # columns 0 and 1 are equal, so this basis is singular
    same_solution(solve_lp(problem, start=LpBasis((2, 5), np.array([0, 1]), np.array([0, 1]))), cold)
    # indices outside the problem
    same_solution(solve_lp(problem, start=LpBasis((2, 5), np.array([0, 7]), np.array([0, 9]))), cold)
    # indices that are not a 1-D integer array
    usable = solve_lp(problem, start=cold.basis)
    assert usable.status == LpStatus.OPTIMAL and usable.iterations == 0
    for rows, cols in ((cold.basis.rows.astype(float), cold.basis.cols.astype(float)),
                       (cold.basis.rows[None], cold.basis.cols[None])):
        same_solution(solve_lp(problem, start=LpBasis((2, 5), rows, cols)), cold)


def test_a_start_neither_primal_nor_dual_feasible_falls_back_to_the_cold_solve(monkeypatch):
    # from the all-slack basis the second slack is -0.5 and both reduced
    # costs are -1: the dual simplex cannot start, and the cold solve decides
    problem = LpProblem(c=[-1.0, -1.0], a_ub=[[1.0, 1.0], [-1.0, 0.0]], b_ub=[1.0, -0.5])
    exits = []
    dantzig = lp._dual_pivot

    def spy(T, r, basis, nonbasic, tol, run):
        exits.append(dantzig(T, r, basis, nonbasic, tol, run))
        return exits[-1]

    monkeypatch.setattr(lp, "_dual_pivot", spy)
    sol = solve_lp(problem, start=LpBasis((2, 4), np.array([0, 1]), np.array([2, 3])))
    assert exits == ["not dual feasible"]
    same_solution(sol, solve_lp(problem))
    assert sol.status == LpStatus.OPTIMAL and sol.value == -1.0


def test_a_primal_feasible_start_runs_the_primal_simplex(monkeypatch):
    # a basis optimal for other costs on the same constraints is primal
    # feasible but not dual feasible: primal pivots from it reach the cold
    # optimum and the cold two-phase solve never runs
    moved = flow_like_problem(np.random.default_rng(0), np.ones(4))
    start = solve_lp(moved).basis
    moved.c = moved.c[::-1].copy()
    cold = solve_lp(moved)
    assert cold.status == LpStatus.OPTIMAL and cold.iterations == 11
    cases = [(moved, start, cold)]
    for seed in range(10):
        rng = np.random.default_rng([23, seed])
        problem = flow_like_problem(rng, rng.uniform(0.5, 2.0, 4))
        recosted = replace(problem, c=problem.c * rng.uniform(0.2, 5.0, problem.c.size))
        cases.append((recosted, solve_lp(problem).basis, solve_lp(recosted)))
    monkeypatch.setattr(lp, "_two_phase", no_cold_solve)
    for problem, start, cold in cases:
        warm = solve_lp(problem, start=start)
        assert cold.status == warm.status == LpStatus.OPTIMAL
        assert warm.value == pytest.approx(cold.value, rel=1e-9)
    assert solve_lp(moved, start=cases[0][1]).iterations == 1


def test_warm_start_on_an_infeasible_rhs_reports_infeasible():
    # x1 + x2 >= 1, x1 <= 3, x2 <= 1; then x1 + x2 >= 5 cannot hold
    a_ub = [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]
    start = solve_lp(LpProblem(c=[1.0, 1.0], a_ub=a_ub, b_ub=[-1.0, 3.0, 1.0])).basis
    sol = solve_lp(LpProblem(c=[1.0, 1.0], a_ub=a_ub, b_ub=[-5.0, 3.0, 1.0]), start=start)
    assert sol.status == LpStatus.INFEASIBLE
    assert sol.x is None


def test_warm_start_with_a_tiny_budget_never_reports_a_wrong_optimum():
    start = solve_lp(flow_like_problem(np.random.default_rng(3), np.full(4, 2.0))).basis
    problem = flow_like_problem(np.random.default_rng(3), np.full(4, -0.5))
    cold = solve_lp(problem)
    assert cold.status == LpStatus.OPTIMAL
    full = solve_lp(problem, start=start)
    assert full.iterations >= 2
    assert solve_lp(problem, max_iters=1, start=start).status == LpStatus.STALLED
    for max_iters in range(1, full.iterations + 3):
        sol = solve_lp(problem, max_iters=max_iters, start=start)
        assert sol.status in (LpStatus.OPTIMAL, LpStatus.STALLED)
        if sol.status == LpStatus.OPTIMAL:
            assert sol.value == pytest.approx(cold.value, rel=1e-9)
        else:
            assert sol.x is None


def test_status_triple_holds_with_a_start():
    start = solve_lp(LpProblem(c=[1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-3.0])).basis
    sol = solve_lp(LpProblem(c=[1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0]), start=start)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    start = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[1.0])).basis
    infeasible = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]), start=start)
    assert infeasible.status == LpStatus.INFEASIBLE
    # x >= 1: the start is optimal for min x, and min -x is unbounded
    start = solve_lp(LpProblem(c=[1.0], a_ub=[[-1.0]], b_ub=[-1.0])).basis
    unbounded = solve_lp(LpProblem(c=[-1.0], a_ub=[[-1.0]], b_ub=[-1.0]), start=start)
    assert unbounded.status == LpStatus.UNBOUNDED
    no_rows = solve_lp(LpProblem(c=[-1.0], a_ub=np.zeros((0, 1)), b_ub=[]), start=start)
    assert no_rows.status == LpStatus.UNBOUNDED


def no_cold_solve(*args):
    raise AssertionError("fell back to the cold solve")


def test_without_equalities_nonnegative_costs_start_from_the_slacks(monkeypatch):
    # x1 + x2 >= 1 and x1 - x2 <= 2 with costs >= 0: the all-slack basis is
    # dual feasible, so the dual simplex solves it and the cold solve never runs
    problem = LpProblem(c=[1.0, 2.0], a_ub=[[-1.0, -1.0], [1.0, -1.0]], b_ub=[-1.0, 2.0])
    cold = solve_lp(problem)
    monkeypatch.setattr(lp, "_two_phase", no_cold_solve)
    sol = solve_lp(problem)
    assert sol.status == LpStatus.OPTIMAL and sol.iterations == 1
    assert sol.value == cold.value == 1.0
    # a negative working cost (the - part of a free variable, or an upper-only
    # variable) or an equality row leaves the slack start out
    for other in (replace(problem, lower=np.array([0.0, -np.inf])),
                  replace(problem, lower=np.array([-np.inf, 0.0]), upper=np.array([3.0, np.inf])),
                  replace(problem, a_eq=[[1.0, 1.0]], b_eq=[1.0])):
        with pytest.raises(AssertionError, match="cold solve"):
            solve_lp(other)


def test_the_dual_rule_breaks_rounding_ties_by_the_lowest_basic_index():
    # rows 0 and 1 hold basic values equal in exact arithmetic but 2 ulps
    # apart, as two routes of the same cost come out of a refactor: the lower
    # basic index leaves, not the one rounding made more negative, and row 2,
    # clearly less negative, stays although its basic index is lowest
    value = -5.089141011569011
    T = np.zeros((3, 9))
    T[:, 0] = -1.0  # tableau column 0 can enter on every row
    T[:, -1] = [np.nextafter(np.nextafter(value, -np.inf), -np.inf), value, value / 2]
    assert T[0, -1] < T[1, -1]
    basis, r = np.array([7, 4, 1]), np.zeros(8)
    nonbasic = np.array([0, 2, 3, 5, 6, 8, 9, 10])
    assert lp._dual_pivot(T, r, basis, nonbasic, 1e-9, [0]) == (1, 0)
    # Bland's dual rule takes the lowest basic index among all infeasible rows
    assert lp._dual_pivot(T, r, basis, nonbasic, 1e-9, [lp.DEGENERATE_RUN_LIMIT]) == (2, 0)
    # tableau columns 0 and 3 tie at ratio 0; after earlier pivots tableau
    # order need not be standard-form order, and the lower standard-form
    # index enters, here tableau column 3's
    T[:, 3] = -1.0
    assert lp._dual_pivot(T, r, basis, nonbasic, 1e-9, [0]) == (1, 0)
    nonbasic = np.array([10, 0, 2, 3, 5, 6, 8, 9])
    assert lp._dual_pivot(T, r, basis, nonbasic, 1e-9, [0]) == (1, 3)


def test_a_driven_out_artificial_takes_the_lowest_index_among_equal_entries(monkeypatch):
    # the last equality row is the sum of the other two, so phase one ends
    # with an artificial basic at 0; its row has entries of equal magnitude
    # under x_0 (standard-form column 0) and the inequality's slack (column 3),
    # and after the phase-one pivots the slack comes first in the tableau:
    # x_0 must enter, as the lowest standard-form index among the largest
    driven = []

    def spy(T, r, basis, nonbasic, row, k):
        if r is None:  # only the drive-out pivots run without reduced costs
            driven.append((np.abs(T[row, :-1]), nonbasic.copy(), k))
        return _pivot(T, r, basis, nonbasic, row, k)

    monkeypatch.setattr(lp, "_pivot", spy)
    sol = solve_lp(LpProblem(c=[0.0, -2.0, 0.0], a_ub=[[2.0, -1.0, 2.0]], b_ub=[1.0],
                             a_eq=[[1.0, -1.0, 2.0], [-1.0, 2.0, -2.0], [0.0, 1.0, 0.0]],
                             b_eq=[1.0, 0.0, 1.0]))
    assert len(driven) == 1
    magnitude, nonbasic, k = driven[0]
    eligible = nonbasic < 4  # 3 working columns and 1 slack; artificials after
    tied = np.flatnonzero(eligible & (magnitude == np.max(magnitude[eligible])))
    assert nonbasic[tied].tolist() == [3, 0] and nonbasic[k] == 0
    assert sol.status == LpStatus.OPTIMAL and sol.basis.cols.tolist() == [2, 0, 1]
    assert sol.value == pytest.approx(-2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.0, 1.0, 1.0], atol=1e-9)


def test_a_driven_out_artificial_counts_entries_within_rounding_as_equal(monkeypatch):
    # the LP above with x_0's coefficient in the inequality shrunk by 1e-12:
    # its entry in the artificial's row falls 2e-12 short of the slack's,
    # well within rounding, and x_0 still enters as the lower index
    driven = []

    def spy(T, r, basis, nonbasic, row, k):
        if r is None:
            driven.append((np.abs(T[row, :-1]), nonbasic.copy(), k))
        return _pivot(T, r, basis, nonbasic, row, k)

    monkeypatch.setattr(lp, "_pivot", spy)
    sol = solve_lp(LpProblem(c=[0.0, -2.0, 0.0], a_ub=[[2.0 * (1.0 - 1e-12), -1.0, 2.0]], b_ub=[1.0],
                             a_eq=[[1.0, -1.0, 2.0], [-1.0, 2.0, -2.0], [0.0, 1.0, 0.0]],
                             b_eq=[1.0, 0.0, 1.0]))
    assert len(driven) == 1
    magnitude, nonbasic, k = driven[0]
    slack, x_0 = (magnitude[nonbasic == j][0] for j in (3, 0))
    assert 0.0 < slack - x_0 < 1e-11 and nonbasic[k] == 0
    assert sol.status == LpStatus.OPTIMAL and sol.basis.cols.tolist() == [2, 0, 1]
    np.testing.assert_allclose(sol.x, [0.0, 1.0, 1.0], atol=1e-9)


def test_a_long_degenerate_run_hands_over_to_blands_dual_rule(monkeypatch):
    # covering rows -A x <= -1 from the all-slack start, where all but one
    # column cost 0, so nearly every dual ratio is 0; with a limit of 3 the
    # guard fires, and Bland's dual rule must still end at the optimum
    # without the cold solve
    scipy_optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(lp, "DEGENERATE_RUN_LIMIT", 3)
    runs = []
    dantzig = lp._dual_pivot

    def spy(T, r, basis, nonbasic, tol, run):
        runs.append(run)
        return dantzig(T, r, basis, nonbasic, tol, run)

    monkeypatch.setattr(lp, "_dual_pivot", spy)
    monkeypatch.setattr(lp, "_two_phase", no_cold_solve)
    fired = 0
    for seed in range(5):
        rng = np.random.default_rng([17, seed])
        a = rng.uniform(0.0, 1.0, (15, 30)) * (rng.random((15, 30)) < 0.4)
        a[np.arange(15), rng.integers(0, 30, 15)] += 0.5  # every row can be covered
        c = np.zeros(30)
        c[int(rng.integers(0, 30))] = 1.0
        runs.clear()
        sol = solve_lp(LpProblem(c=c, a_ub=-a, b_ub=-np.ones(15)))
        want = scipy_optimize.linprog(c, A_ub=-a, b_ub=-np.ones(15), method="highs")
        assert sol.status == LpStatus.OPTIMAL and want.status == 0
        assert sol.value == pytest.approx(want.fun, rel=1e-9, abs=1e-12)
        assert np.all(-a @ sol.x <= -1.0 + 1e-9)
        fired += any(run[0] >= 3 for run in runs)
    assert fired == 5


# ---------------------------------------------------------------------------
# column generation inside one solve, and prepared starts


def pool_lp(seed):
    """A seeded feasible, bounded LP with every bound kind on its first
    variables and a pool of x >= 0 columns, and equality rows with one
    dependent row: (the LP without the pool, the pool's costs and columns
    in `LpSolution.duals`' row layout, the variable the pool goes before).

    Every pool column's reduced cost at a fixed dual point is >= 0, as is
    every lower-only variable's, so the LP with any part of the pool is
    bounded; the pool sits at 0 in a feasible point, so without it the LP
    is feasible."""
    rng = np.random.default_rng([2031, seed])
    n, k = int(rng.integers(3, 8)), int(rng.integers(4, 12))
    kind = rng.integers(0, 4, n)  # boxed, lower only, upper only, free
    lo = rng.uniform(-2.0, 1.0, n)
    up = lo + rng.uniform(0.5, 3.0, n)
    lower = np.where(kind <= 1, lo, -np.inf)
    upper = np.where((kind == 0) | (kind == 2), up, np.inf)
    x0 = rng.uniform(lo, up)
    m_ub = int(rng.integers(1, 5))
    a_ub = rng.normal(size=(m_ub, n + k))
    b_ub = a_ub[:, :n] @ x0 + rng.uniform(0.0, 1.0, m_ub)
    a_eq = rng.normal(size=(2, n + k))
    a_eq = np.vstack([a_eq, a_eq[0] + a_eq[1]])
    z = np.select([kind == 0, kind == 1, kind == 2],
                  [rng.normal(size=n), rng.uniform(0.0, 1.0, n), -rng.uniform(0.0, 1.0, n)])
    z = np.concatenate([z, rng.uniform(0.0, 0.3, k)])
    c = -a_ub.T @ rng.uniform(0.0, 1.0, m_ub) + a_eq.T @ rng.normal(size=3) + z
    at = int(rng.integers(0, n + 1))
    keep = np.r_[0:at, at + k:n + k]
    # the pool goes before variable ``at`` of the LP without it
    order = np.r_[0:at, n:n + k, at:n]
    a_ub, a_eq, c = a_ub[:, order], a_eq[:, order], c[order]
    problem = LpProblem(c=c[keep], a_ub=a_ub[:, keep], b_ub=b_ub, a_eq=a_eq[:, keep],
                        b_eq=a_eq[:, keep] @ x0, lower=lower, upper=upper)
    return problem, c[at:at + k], np.vstack([a_ub, a_eq])[:, at:at + k], at


class Pricer:
    """The pricing callback over a pool: the columns not yet added whose
    reduced cost c + a_ubᵀu - a_eqᵀv is below -1e-9, in pool order, before
    variable ``at`` plus the number added so far."""

    def __init__(self, pool_c, pool_a, at, m_ub):
        self.pool_c, self.pool_a, self.at, self.m_ub = pool_c, pool_a, at, m_ub
        self.added, self.calls = [], 0

    def __call__(self, duals):
        self.calls += 1
        u, v = duals[:self.m_ub], duals[self.m_ub:]
        d = self.pool_c + u @ self.pool_a[:self.m_ub] - v @ self.pool_a[self.m_ub:]
        new = [j for j in np.flatnonzero(d < -1e-9) if j not in self.added]
        if not new:
            return None
        at = self.at + len(self.added)
        self.added += new
        return at, self.pool_c[new], self.pool_a[:, new]

    def grown(self, problem):
        """``problem`` with the added columns, in the order they joined."""
        cols, at = self.added, self.at

        def insert(x, new):
            return np.concatenate([x[..., :at], new, x[..., at:]], axis=-1)

        return replace(problem, c=insert(problem.c, self.pool_c[cols]),
                       a_ub=insert(problem.a_ub, self.pool_a[:self.m_ub, cols]),
                       a_eq=insert(problem.a_eq, self.pool_a[self.m_ub:, cols]),
                       lower=insert(problem.lower, np.zeros(len(cols))),
                       upper=insert(problem.upper, np.full(len(cols), np.inf)))


def full_lp(problem, pool_c, pool_a, at):
    pricer = Pricer(pool_c, pool_a, at, problem.a_ub.shape[0])
    pricer.added = list(range(pool_c.size))
    return pricer.grown(problem)


def test_priced_columns_reach_the_cold_optimum_of_the_full_lp():
    # the callback adds the pool columns that price negative; the one solve
    # ends at the full LP's cold optimum, and its basis, in the layout of the
    # LP the columns grew, re-solves that LP at 0 pivots
    grew = 0
    for seed in range(40):
        problem, pool_c, pool_a, at = pool_lp(seed)
        full = solve_lp(full_lp(problem, pool_c, pool_a, at))
        assert full.status == LpStatus.OPTIMAL
        for start in (None, solve_lp(problem).basis):
            pricer = Pricer(pool_c, pool_a, at, problem.a_ub.shape[0])
            sol = solve_lp(problem, start=start, price=pricer)
            assert sol.status == LpStatus.OPTIMAL
            assert abs(sol.value - full.value) <= 1e-9 * (1.0 + abs(full.value)), seed
            grown = pricer.grown(problem)
            assert sol.x.shape == grown.c.shape
            assert np.all(sol.x[at:at + len(pricer.added)] >= 0.0)
            # the grown LP's own standard form rounds its shifted right-hand
            # side over more columns, so x may move in its last bits
            again = solve_lp(grown, start=sol.basis)
            assert again.iterations == 0
            assert again.value == pytest.approx(sol.value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(again.x, sol.x, rtol=1e-12, atol=1e-12)
            grew += len(pricer.added) > 0
    assert grew >= 60  # of 80 solves


def test_a_callback_that_adds_nothing_leaves_the_solve_bit_identical():
    calls = []
    for seed in range(40):
        problem, pool_c, pool_a, at = pool_lp(seed)
        rows = problem.a_ub.shape[0] + problem.a_eq.shape[0]
        base = solve_lp(problem)
        for start in (None, base.basis):
            plain = solve_lp(problem, start=start)
            for nothing in (None, (at, np.zeros(0), np.zeros((rows, 0)))):
                sol = solve_lp(problem, start=start,
                               price=lambda duals, nothing=nothing: calls.append(duals) or nothing)
                assert lp_record(sol) == lp_record(plain), seed
                np.testing.assert_array_equal(calls[-1], plain.duals)
    assert len(calls) == 160  # one call per solve, after its only optimum


def test_a_round_whose_columns_take_no_pivot_ends_the_solve():
    # a column too dear to enter leaves the basis optimal for the grown
    # problem, so the solve ends after one call, however often the callback
    # would offer it again
    for seed in range(20):
        problem, pool_c, pool_a, at = pool_lp(seed)
        basis = solve_lp(problem).basis
        for start in (None, basis, lp.prepare_start(problem, basis)):
            calls = []

            def dear(duals):
                calls.append(duals)
                if len(calls) > 50:
                    pytest.fail("the solve went on pricing")
                return at, [1e6], pool_a[:, :1]

            plain, sol = solve_lp(problem, start=start), solve_lp(problem, start=start, price=dear)
            assert len(calls) == 1, seed
            assert sol.status == plain.status == LpStatus.OPTIMAL
            assert sol.x.size == problem.c.size + 1 and sol.x[at] == 0.0
            assert sol.value == pytest.approx(plain.value, rel=1e-12)


def test_a_singular_start_falls_back_to_the_cold_solve_which_goes_on_pricing(monkeypatch):
    cold_solves = []
    two_phase = lp._two_phase

    def counted_two_phase(*args):
        cold_solves.append(1)
        return two_phase(*args)

    monkeypatch.setattr(lp, "_two_phase", counted_two_phase)
    grew = 0
    for seed in range(20):
        problem, pool_c, pool_a, at = pool_lp(seed)
        full = solve_lp(full_lp(problem, pool_c, pool_a, at))
        shape = solve_lp(problem).basis.shape
        singular = LpBasis(shape, np.arange(shape[0]), np.zeros(shape[0], dtype=int))
        pricer = Pricer(pool_c, pool_a, at, problem.a_ub.shape[0])
        cold_solves.clear()
        sol = solve_lp(problem, start=singular, price=pricer)
        assert len(cold_solves) == 1
        assert sol.status == LpStatus.OPTIMAL
        assert abs(sol.value - full.value) <= 1e-9 * (1.0 + abs(full.value)), seed
        grew += len(pricer.added) > 0
    assert grew >= 15


def test_a_warm_solve_that_fails_after_pricing_falls_back_to_the_grown_problem(monkeypatch):
    # the warm solve prices once, then its second closing solve fails; the
    # cold fallback must solve the problem the priced columns grew, and go
    # on pricing, so x is in the grown layout and the value is the full LP's
    cold_solves, closing_solves = [], []
    two_phase, closing_solve = lp._two_phase, lp._closing_solve

    def counted_two_phase(*args):
        cold_solves.append(1)
        return two_phase(*args)

    def failing_second(*args):
        closing_solves.append(1)
        return None if len(closing_solves) == 2 else closing_solve(*args)

    monkeypatch.setattr(lp, "_two_phase", counted_two_phase)
    grew = 0
    for seed in range(40):
        problem, pool_c, pool_a, at = pool_lp(seed)
        full = solve_lp(full_lp(problem, pool_c, pool_a, at))
        basis = solve_lp(problem).basis
        pricer = Pricer(pool_c, pool_a, at, problem.a_ub.shape[0])
        cold_solves.clear()
        closing_solves.clear()
        monkeypatch.setattr(lp, "_closing_solve", failing_second)
        sol = solve_lp(problem, start=basis, price=pricer)
        monkeypatch.setattr(lp, "_closing_solve", closing_solve)
        if pricer.calls == 1 and not pricer.added:
            continue  # nothing priced: the warm solve ended at its first closing solve
        grew += 1
        assert len(cold_solves) == 1 and len(closing_solves) > 2, seed
        assert sol.status == LpStatus.OPTIMAL
        grown = pricer.grown(problem)
        assert sol.x.shape == grown.c.shape
        assert abs(sol.value - full.value) <= 1e-9 * (1.0 + abs(full.value)), seed
        assert abs(float(grown.c @ sol.x) - sol.value) <= 1e-9 * (1.0 + abs(sol.value)), seed
    assert grew >= 30


def test_malformed_priced_columns_are_rejected():
    problem, pool_c, pool_a, at = pool_lp(0)
    n = problem.c.size
    bad_nan = pool_a[:, :1].copy()
    bad_nan[0, 0] = np.nan
    for new in ((at, pool_c[:1], pool_a[:-1, :1]),  # one row short
                (at, pool_c[:1], pool_a[:, :2]),  # two columns, one cost
                (at, pool_c[:1], pool_a[:, 0]),  # not 2-D
                (at, pool_c[:1], bad_nan),
                (at, [np.inf], pool_a[:, :1]),
                (-1, pool_c[:1], pool_a[:, :1]),
                (n + 1, pool_c[:1], pool_a[:, :1]),
                (1.0, pool_c[:1], pool_a[:, :1]),
                (True, pool_c[:1], pool_a[:, :1])):  # a bool is an int, not a position
        with pytest.raises(ValueError, match="priced columns"):
            solve_lp(problem, price=lambda duals, new=new: new)


def test_a_prepared_start_solves_as_its_basis_does_and_stays_read_only():
    # one start prepared from an optimum serves every right-hand side: the
    # same pivots and the same optimum as the plain basis start, with its
    # arrays read-only and unchanged
    for seed in range(10):
        rng = np.random.default_rng([11, seed])
        base = flow_like_problem(np.random.default_rng([11, seed]), rng.uniform(1.0, 2.0, 4))
        basis = solve_lp(base).basis
        start = lp.prepare_start(base, basis)
        arrays = [v for v in (*vars(start.problem).values(), start.basis.rows, start.basis.cols,
                              *vars(start.form).values(), *start.split,
                              start.inverse, start.tableau) if isinstance(v, np.ndarray)]
        before = [a.copy() for a in arrays]
        assert not any(a.flags.writeable for a in arrays)
        for _ in range(5):
            problem = flow_like_problem(np.random.default_rng([11, seed]), rng.uniform(0.0, 3.0, 4))
            want, got = solve_lp(problem, start=basis), solve_lp(problem, start=start)
            assert got.status == want.status == LpStatus.OPTIMAL
            assert got.iterations == want.iterations
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)
        # the caller's basis and problem stay writeable
        assert basis.rows.flags.writeable and base.a_eq.flags.writeable


def test_a_prepared_start_is_only_for_its_own_problem():
    base = flow_like_problem(np.random.default_rng(5), np.full(4, 1.5))
    basis = solve_lp(base).basis
    start = lp.prepare_start(base, basis)
    assert solve_lp(replace(base, b_ub=np.full(4, 0.5)), start=start).status == LpStatus.OPTIMAL
    for other in (replace(base, c=base.c + 1.0), replace(base, a_ub=2.0 * base.a_ub),
                  replace(base, upper=np.full(base.c.size, 9.0))):
        with pytest.raises(ValueError, match="prepared start"):
            solve_lp(other, start=start)
    with pytest.raises(ValueError, match="does not fit"):
        lp.prepare_start(base, LpBasis((2, 5), np.array([0, 1]), np.array([0, 1])))
    with pytest.raises(ValueError, match="singular"):
        lp.prepare_start(base, LpBasis(basis.shape, basis.rows, np.zeros(basis.rows.size, dtype=int)))


def test_a_prepared_problem_has_its_right_hand_sides_checked():
    # a problem that holds the prepared arrays themselves, as a routing
    # evaluation's does, still has its right-hand sides checked
    base = flow_like_problem(np.random.default_rng(5), np.full(4, 1.5))
    start = lp.prepare_start(base, solve_lp(base).basis)
    want = solve_lp(replace(base, b_ub=np.full(4, 0.5)), start=start)
    assert lp_record(solve_lp(replace(start.problem, b_ub=np.full(4, 0.5)), start=start)) == \
        lp_record(want)
    nan = np.full(4, 0.5)
    nan[2] = np.nan
    b_eq = start.problem.b_eq
    for bad in (dict(b_ub=nan), dict(b_ub=np.full(5, 0.5)), dict(b_ub=np.full((4, 1), 0.5)),
                dict(b_ub=None), dict(b_eq=np.append(b_eq[:-1], np.inf)), dict(b_eq=b_eq[:-1])):
        with pytest.raises(ValueError):
            solve_lp(replace(start.problem, **bad), start=start)


# ---------------------------------------------------------------------------
# bit-for-bit recording of the kernel


PINNED_LPS = Path(__file__).resolve().parent / "data" / "pinned_lps.json"


def pinned_lp(seed):
    """A seeded LP with every bound kind, inequality rows whose right-hand
    sides may be negative, and equality rows with one dependent row.

    The costs are dual feasible, so the LP is bounded, except that every
    eighth has a contradictory extra row (infeasible) and every eighth one
    extra free-rising column (unbounded).  Every tenth is larger, so its
    solves pass a refactorization."""
    rng = np.random.default_rng([2028, seed])
    big = seed % 10 == 9
    n = int(rng.integers(12, 25)) if big else int(rng.integers(2, 8))
    kind = rng.integers(0, 4, n)  # boxed, lower only, upper only, free
    lo = rng.uniform(-2.0, 1.0, n)
    up = lo + rng.uniform(0.5, 3.0, n)
    lower = np.where(kind <= 1, lo, -np.inf)
    upper = np.where((kind == 0) | (kind == 2), up, np.inf)
    x0 = rng.uniform(lo, up)
    m_ub = int(rng.integers(n, 2 * n)) if big else int(rng.integers(1, 5))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, m_ub)
    a_eq = rng.normal(size=(int(rng.integers(0, 3)), n))
    if a_eq.shape[0]:
        a_eq = np.vstack([a_eq, a_eq[0] + a_eq[-1]])
    y = rng.uniform(0.0, 1.0, m_ub) * (rng.random(m_ub) < 0.5)
    z = np.select([kind == 0, kind == 1, kind == 2],
                  [rng.normal(size=n), rng.uniform(0.0, 1.0, n), -rng.uniform(0.0, 1.0, n)])
    c = -a_ub.T @ y + a_eq.T @ rng.normal(size=a_eq.shape[0]) + z
    if seed % 8 == 6:
        a_ub = np.vstack([a_ub, -a_ub[0]])
        b_ub = np.append(b_ub, -b_ub[0] - 1.0)
    if seed % 8 == 7:
        a_ub = np.hstack([a_ub, np.zeros((a_ub.shape[0], 1))])
        a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
        c, lower, upper = np.append(c, -1.0), np.append(lower, 0.0), np.append(upper, np.inf)
        x0 = np.append(x0, 0.0)
    return LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=a_eq @ x0,
                     lower=lower, upper=upper), rng


def lp_record(sol):
    rec = {"status": sol.status.value, "iterations": sol.iterations, "value": float(sol.value).hex()}
    if sol.x is not None:
        rec["x"] = [float(v).hex() for v in sol.x]
    if sol.basis is not None:
        rec["shape"] = list(sol.basis.shape)
        rec["rows"] = sol.basis.rows.tolist()
        rec["cols"] = sol.basis.cols.tolist()
    if sol.duals is not None:
        rec["duals"] = [float(v).hex() for v in sol.duals]
    return rec


def pinned_lp_records(seed):
    """The cold solve and one with ``max_iters=1``; for an optimum also a warm
    re-solve at a perturbed ``b_ub`` (in full and with ``max_iters=1``) and
    one from that basis under costs it is not dual feasible for."""
    problem, rng = pinned_lp(seed)
    cold = solve_lp(problem)
    recs = {"cold": lp_record(cold), "cold_one_pivot": lp_record(solve_lp(problem, max_iters=1))}
    if cold.status == LpStatus.OPTIMAL:
        moved = replace(problem, b_ub=problem.b_ub + rng.normal(0.0, 0.5, problem.b_ub.size))
        recs["warm"] = lp_record(solve_lp(moved, start=cold.basis))
        recs["warm_one_pivot"] = lp_record(solve_lp(moved, max_iters=1, start=cold.basis))
        recosted = replace(problem, c=problem.c + rng.normal(0.0, 2.0, problem.c.size))
        recs["recosted"] = lp_record(solve_lp(recosted, start=cold.basis))
    return recs


def test_duals_certify_every_pinned_optimum():
    # the duals of every optimal solve of the pinned LPs, cold and warm:
    # u >= 0, each reduced cost d = c + a_ubᵀu - a_eqᵀv has the sign its
    # variable's position between its bounds asks for, complementary
    # slackness holds at the returned x, and the dual value equals c.x
    checked = 0
    for seed in range(200):
        problem, rng = pinned_lp(seed)
        cold = solve_lp(problem)
        if cold.status != LpStatus.OPTIMAL:
            assert cold.duals is None
            continue
        moved = replace(problem, b_ub=problem.b_ub + rng.normal(0.0, 0.5, problem.b_ub.size))
        recosted = replace(problem, c=problem.c + rng.normal(0.0, 2.0, problem.c.size))
        for lp_, sol in ((problem, cold), (moved, solve_lp(moved, start=cold.basis)),
                         (recosted, solve_lp(recosted, start=cold.basis))):
            if sol.status != LpStatus.OPTIMAL:
                continue
            checked += 1
            m_ub = lp_.a_ub.shape[0]
            assert sol.duals.shape == (m_ub + lp_.a_eq.shape[0],)
            u, v = sol.duals[:m_ub], sol.duals[m_ub:]
            assert np.all(u >= -1e-12)
            d = lp_.c + lp_.a_ub.T @ u - lp_.a_eq.T @ v
            x, tol = sol.x, 1e-9 * (1.0 + np.abs(lp_.c).max())
            at_lower = np.isclose(x, lp_.lower, rtol=0.0, atol=1e-9)
            at_upper = np.isclose(x, lp_.upper, rtol=0.0, atol=1e-9)
            assert np.all(d[at_lower & ~at_upper] >= -tol)
            assert np.all(d[at_upper & ~at_lower] <= tol)
            assert np.all(np.abs(d[~at_lower & ~at_upper]) <= tol)
            np.testing.assert_allclose(u * (lp_.b_ub - lp_.a_ub @ x), 0.0, atol=1e-9)
            dual_value = d @ x - u @ lp_.b_ub + v @ lp_.b_eq
            assert dual_value == pytest.approx(sol.value, rel=1e-9, abs=1e-9)
    assert checked > 300


def test_kernel_matches_its_bitwise_recording():
    want = json.loads(PINNED_LPS.read_text())["lps"]
    assert len(want) == 200
    for seed, recs in enumerate(want):
        assert pinned_lp_records(seed) == recs, f"seed {seed}"
