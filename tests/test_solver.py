"""Solver checks: closed forms, path agreement, stability, grid oracles."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from caolf.geometry import (
    ClippedBallSet,
    Mono,
    Norm,
    Sense,
    clip,
    dykstra,
    norm_value,
)
from caolf.model import (
    ClippedNormSurrogate,
    CompetitiveSolution,
    ConcaveLinear,
    ConvexQuadratic,
    FeasibleSet,
    LipschitzNorm,
    MetricRef,
    SolveDiagnostics,
)
from caolf.solver import (
    GRID_MEMBERSHIP_TOL,
    SolveConfig,
    grid_oracle_caolf,
    grid_oracle_swcm,
    solve_approx,
    solve_caolf,
    stability_probe,
    verify_competitiveness,
    _grid_points,
)


def two_point_refs(m1, m2, norms=(Norm.L2,)):
    """Two 1-D metrics anchored at 0 and 1, both with reference value 1."""
    def models(bound):
        return tuple(LipschitzNorm(bound=bound, norm=k, mono=[Mono.NON_MONOTONE])
                     for k in norms)
    return [
        MetricRef(id="left", x_ref=[0.0], value=1.0, models=models(m1)),
        MetricRef(id="right", x_ref=[1.0], value=1.0, models=models(m2)),
    ]


def piecewise_evaluators(refs, norm=Norm.L2):
    """Exact evaluators f_i(x) = v_i + bound_i * ||clip(x, ref_i)||."""
    out = []
    for r in refs:
        m = r.lipschitz_model(norm)
        geom = r.geometry(m)
        out.append((lambda x, m=m, geom=geom, r=r:
                    r.value + m.bound * norm_value(clip(np.atleast_1d(x), geom), m.norm),
                    r.value, r.sense))
    return out


def test_two_anchor_closed_form_all_norms():
    # gamma* = m1*m2/(m1+m2), attained at gamma*/m1 (between the anchors)
    region = FeasibleSet.unconstrained(1)
    for m1, m2 in [(1.0, 1.0), (2.0, 1.0), (10.0, 3.0)]:
        want = m1 * m2 / (m1 + m2)
        for norm in Norm:
            refs = two_point_refs(m1, m2, norms=(norm,))
            sol = solve_caolf(refs, region, SolveConfig(norm=norm))
            assert sol.gamma == pytest.approx(want, abs=2e-6), (m1, m2, norm)
            assert sol.x[0] == pytest.approx(want / m1, abs=1e-5)


def test_single_reference_in_region_gives_zero():
    region = FeasibleSet.nonnegative(2)
    ref = MetricRef(id="only", x_ref=[0.5, 1.0], value=2.0,
                    models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),))
    sol = solve_caolf([ref], region, SolveConfig())
    assert sol.gamma == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.5, 1.0], atol=1e-7)


def test_reported_gamma_is_certified_at_x():
    rng = np.random.default_rng(19)
    region = FeasibleSet.nonnegative(2)
    for _ in range(25):
        refs = []
        for i in range(int(rng.integers(2, 5))):
            refs.append(MetricRef(
                id=f"m{i}", x_ref=rng.uniform(0, 1, 2), value=float(rng.uniform(0.5, 2.0)),
                sense=Sense.MAXIMIZE if rng.random() < 0.3 else Sense.MINIMIZE,
                models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)), Norm.L2,
                                      rng.integers(-1, 2, 2)),)))
        sol = solve_caolf(refs, region, SolveConfig())
        achieved = max(
            r.lipschitz_model(Norm.L2).bound
            * norm_value(clip(sol.x, r.geometry(r.lipschitz_model(Norm.L2))), Norm.L2)
            / r.value
            for r in refs)
        assert sol.gamma == pytest.approx(achieved, abs=1e-12)
        assert region.violation(sol.x) <= 1e-6


def test_l2_search_starts_at_the_mean_of_every_reference(monkeypatch):
    # three metrics share one reference and merge into one; the start is
    # still the mean over all four references, not over the two kept
    import caolf.solver as solver
    starts = []
    barrier = solver._barrier

    def recording_barrier(table, start, *rest, **kw):
        starts.append(np.array(start))
        return barrier(table, start, *rest, **kw)

    monkeypatch.setattr(solver, "_barrier", recording_barrier)
    model = (LipschitzNorm(1.0, Norm.L2, [0, 0]),)
    refs = [MetricRef(id=f"a{i}", x_ref=[0.0, 0.0], value=v, models=model)
            for i, v in enumerate((1.0, 2.0, 4.0))]
    refs.append(MetricRef(id="b", x_ref=[3.0, 3.0], value=1.0, models=model))
    sol = solve_caolf(refs, FeasibleSet.unconstrained(2), SolveConfig())
    np.testing.assert_array_equal(starts[0], np.mean([r.x_ref for r in refs], axis=0))
    assert sol.gamma == pytest.approx(np.hypot(3.0, 3.0) / 2, abs=2e-6)


def test_lp_and_projection_paths_agree_on_l2_symmetric_instances():
    # on 1-D instances the three norms coincide, so the LP paths must land
    # on the barrier path's answer
    region = FeasibleSet.unconstrained(1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        m1, m2 = rng.uniform(0.5, 4.0, 2)
        refs = two_point_refs(float(m1), float(m2), norms=tuple(Norm))
        got = {}
        for norm in Norm:
            got[norm] = solve_caolf(refs, region, SolveConfig(norm=norm)).gamma
        assert got[Norm.L1] == pytest.approx(got[Norm.L2], abs=5e-6)
        assert got[Norm.LINF] == pytest.approx(got[Norm.L2], abs=5e-6)


def test_lp_path_matches_fine_grid_oracle():
    rng = np.random.default_rng(9)
    region = FeasibleSet.unconstrained(1)
    for norm in (Norm.L1, Norm.LINF):
        for _ in range(5):
            refs = []
            for i in range(3):
                refs.append(MetricRef(
                    id=f"m{i}", x_ref=[float(rng.uniform(-1, 2))],
                    value=float(rng.uniform(0.5, 2.0)),
                    models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)), norm,
                                          [int(rng.integers(-1, 2))]),)))
            sol = solve_caolf(refs, region, SolveConfig(norm=norm))
            coarse_g, coarse_x = grid_oracle_caolf(refs, region, 4001,
                                                   box=[(-2.0, 3.0)], norm=norm)
            lo, hi = coarse_x[0] - 2e-3, coarse_x[0] + 2e-3
            fine_g, _ = grid_oracle_caolf(refs, region, 4001, box=[(lo, hi)], norm=norm)
            fine_g = min(fine_g, coarse_g)
            assert sol.gamma == pytest.approx(fine_g, abs=1e-5)


def test_budget_constraint_binds():
    # one far reference, tight halfspace budget: solution sits on the plane
    region = FeasibleSet.nonnegative(2, halfspaces=[(np.array([1.0, 1.0]), 1.0)])
    ref = MetricRef(id="far", x_ref=[2.0, 2.0], value=1.0,
                    models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),))
    sol = solve_caolf([ref], region, SolveConfig())
    assert float(sol.x.sum()) == pytest.approx(1.0, abs=1e-5)
    # nearest point to (2,2) on the simplex face is (0.5, 0.5)
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-4)
    assert sol.gamma == pytest.approx(np.sqrt(2 * 1.5 ** 2), abs=1e-5)


def test_projection_probes_monotone_in_gamma():
    rng = np.random.default_rng(33)
    region = FeasibleSet.nonnegative(2)
    for _ in range(20):
        refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(0, 1, 2),
                          value=float(rng.uniform(0.5, 2.0)),
                          models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)),
                                                Norm.L2, rng.integers(-1, 2, 2)),))
                for i in range(3)]
        sol = solve_caolf(refs, region, SolveConfig())
        base = max(sol.gamma, 1e-3)
        cfg = SolveConfig()
        start = np.mean([r.x_ref for r in refs], axis=0)
        for factor in (1.5, 2.0, 4.0):
            sets = [ClippedBallSet(r.geometry(r.lipschitz_model(Norm.L2)),
                                   factor * base * r.value / r.lipschitz_model(Norm.L2).bound)
                    for r in refs] + region.sets()
            probe = dykstra(sets, start, tol=cfg.feasibility_tolerance)
            assert probe.converged, factor


def test_verify_competitiveness_envelope():
    refs = two_point_refs(2.0, 1.0)
    region = FeasibleSet.unconstrained(1)
    sol = solve_caolf(refs, region, SolveConfig())
    metrics = piecewise_evaluators(refs)
    slacks, ok = verify_competitiveness(sol.x, sol.gamma, metrics)
    assert ok
    assert np.all(slacks <= sol.gamma + 1e-9)
    # shrinking gamma below the achieved slack must flip the verdict
    _, bad = verify_competitiveness(sol.x, sol.gamma - 0.1, metrics)
    assert not bad


def test_verify_competitiveness_maximize_sense():
    val = 10.0
    metrics = [(lambda x: 9.0, val, Sense.MAXIMIZE)]
    slacks, ok = verify_competitiveness(np.zeros(1), 0.2, metrics)
    assert ok and slacks[0] == pytest.approx(0.1)
    _, bad = verify_competitiveness(np.zeros(1), 0.05, metrics)
    assert not bad


def test_solution_feasible_for_value_constraints():
    # the radius constraints imply the value envelope for exact
    # Lipschitz-from-clip evaluators; check end to end
    rng = np.random.default_rng(77)
    region = FeasibleSet.nonnegative(2)
    for _ in range(30):
        refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(0, 1, 2),
                          value=float(rng.uniform(0.5, 2.0)),
                          models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)),
                                                Norm.L2, rng.integers(-1, 2, 2)),))
                for i in range(int(rng.integers(2, 5)))]
        sol = solve_caolf(refs, region, SolveConfig())
        _, ok = verify_competitiveness(sol.x, sol.gamma + 1e-9,
                                       piecewise_evaluators(refs))
        assert ok


def test_stability_scaled_instance_ratio():
    # analytic instance: bounds (100, 1); scaling by (1, 2) moves gamma from
    # 100/101 to 200/102, a ratio of 1.01/0.51
    refs = two_point_refs(100.0, 1.0)
    region = FeasibleSet.unconstrained(1)
    # the certificate scales an accepted feasibility residual by the largest
    # bound-to-value rate (100 here), so the distance tolerance must be two
    # orders below the gamma accuracy this test pins
    cfg = SolveConfig(gamma_tolerance=1e-9, feasibility_tolerance=1e-11)
    base = solve_caolf(refs, region, cfg)
    probe = stability_probe(refs, region, cfg, kappas=[1.0, 2.0])
    assert base.gamma == pytest.approx(100.0 / 101.0, abs=1e-7)
    assert probe.gamma == pytest.approx(200.0 / 102.0, abs=1e-7)
    assert probe.gamma / base.gamma == pytest.approx(1.01 / 0.51, abs=1e-6)


def test_stability_bound_on_random_instances():
    rng = np.random.default_rng(101)
    region = FeasibleSet.unconstrained(1)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        refs = [MetricRef(id=f"m{i}", x_ref=[float(rng.uniform(-1, 2))],
                          value=float(rng.uniform(0.5, 2.0)),
                          models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)),
                                                Norm.L2, [int(rng.integers(-1, 2))]),))
                for i in range(k)]
        cfg = SolveConfig(gamma_tolerance=1e-8, feasibility_tolerance=1e-10)
        base = solve_caolf(refs, region, cfg)
        kappas = rng.uniform(0.5, 3.0, k)
        probe = stability_probe(refs, region, cfg, kappas=kappas)
        kmax = float(kappas.max())
        for i, r in enumerate(refs):
            m = r.lipschitz_model(Norm.L2)
            drift = m.bound * norm_value(clip(probe.x, r.geometry(m)), Norm.L2)
            assert drift <= (kmax / kappas[i]) * base.gamma * r.value + 1e-6


def test_approx_quadratic_model_tightens_the_answer():
    # quadratic cap with curvature dominates the plain Lipschitz ball
    region = FeasibleSet.unconstrained(1)
    lip_refs = two_point_refs(2.0, 2.0)
    base = solve_caolf(lip_refs, region, SolveConfig())
    quad_refs = [
        MetricRef(id="left", x_ref=[0.0], value=1.0,
                  models=(ConvexQuadratic(grad=[0.0], curvature=2.0),)),
        MetricRef(id="right", x_ref=[1.0], value=1.0,
                  models=(ConvexQuadratic(grad=[0.0], curvature=2.0),)),
    ]
    quad = solve_approx(quad_refs, region, SolveConfig())
    # curvature caps meet at x=1/2 where each needs gamma = 2*(1/4)/1 = 1/2
    assert quad.gamma == pytest.approx(0.5, abs=1e-5)
    assert quad.x[0] == pytest.approx(0.5, abs=1e-4)
    assert base.gamma == pytest.approx(1.0, abs=1e-5)


def test_approx_linear_model_is_a_halfspace():
    # two opposing gradients: at gamma the caps are x <= ref + gamma*v/|g|
    region = FeasibleSet.unconstrained(1)
    refs = [
        MetricRef(id="left", x_ref=[0.0], value=1.0,
                  models=(ConcaveLinear(grad=[2.0]),)),
        MetricRef(id="right", x_ref=[1.0], value=1.0,
                  models=(ConcaveLinear(grad=[-2.0]),)),
    ]
    sol = solve_approx(refs, region, SolveConfig())
    # need 2(x-0) <= g and -2(x-1) <= g: best at x=1/2 with g = 1
    assert sol.gamma == pytest.approx(1.0, abs=1e-5)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-4)


def test_approx_mixed_models_all_bind():
    region = FeasibleSet.nonnegative(2)
    refs = [
        MetricRef(id="ball", x_ref=[1.0, 0.2], value=1.0,
                  models=(LipschitzNorm(1.5, Norm.L2, [0, 0]),)),
        MetricRef(id="plane", x_ref=[0.0, 1.0], value=1.0,
                  models=(ConcaveLinear(grad=[1.0, 1.0]),)),
        MetricRef(id="bowl", x_ref=[0.5, 0.5], value=1.0,
                  models=(ConvexQuadratic(grad=[0.3, -0.1], curvature=0.8),)),
    ]
    sol = solve_approx(refs, region, SolveConfig())
    g = sol.gamma + 1e-6
    x = sol.x
    m = refs[0].lipschitz_model(Norm.L2)
    assert m.bound * norm_value(clip(x, refs[0].geometry(m)), Norm.L2) <= g * refs[0].value
    assert float(np.dot([1.0, 1.0], x - refs[1].x_ref)) <= g * refs[1].value
    d = x - refs[2].x_ref
    assert 0.8 * float(d @ d) + float(np.dot([0.3, -0.1], d)) <= g * refs[2].value


def test_approx_rejects_wrong_norm_model():
    region = FeasibleSet.unconstrained(1)
    refs = [MetricRef(id="m", x_ref=[0.0], value=1.0,
                      models=(LipschitzNorm(1.0, Norm.L1, [0]),))]
    with pytest.raises(ValueError):
        solve_approx(refs, region, SolveConfig())
    with pytest.raises(ValueError):
        solve_approx([], region, SolveConfig())


def test_grid_oracle_swcm_matches_analytic():
    refs = two_point_refs(2.0, 1.0)
    region = FeasibleSet.unconstrained(1)
    gamma, x = grid_oracle_swcm(piecewise_evaluators(refs), region, 3001,
                                box=[(-0.5, 1.5)])
    assert gamma == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert x[0] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_grid_oracle_caolf_matches_solver_in_2d():
    rng = np.random.default_rng(55)
    region = FeasibleSet.nonnegative(2, halfspaces=[(np.array([1.0, 1.0]), 3.0)])
    for _ in range(5):
        refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(0, 1, 2),
                          value=float(rng.uniform(0.5, 2.0)),
                          models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)),
                                                Norm.L2, rng.integers(-1, 2, 2)),))
                for i in range(3)]
        sol = solve_caolf(refs, region, SolveConfig())
        gamma, _ = grid_oracle_caolf(refs, region, 151, box=[(0.0, 3.0), (0.0, 3.0)])
        h = 3.0 / 150
        err = 2 * h * max(r.lipschitz_model(Norm.L2).bound for r in refs) \
            / min(r.value for r in refs)
        assert abs(sol.gamma - gamma) <= err


def test_grid_oracle_counts_a_hyperplane_model_next_to_a_lipschitz_one():
    # the oracle used to keep only the Lipschitz model and answer 0 at x = 1,
    # where the hyperplane model x / 1 needs gamma 1
    both = MetricRef(id="both", x_ref=[0.0], value=1.0,
                     models=(LipschitzNorm(1.0, Norm.L2, [-1]), ConcaveLinear([1.0])))
    far = MetricRef(id="far", x_ref=[1.0], value=1.0,
                    models=(LipschitzNorm(1.0, Norm.L2, [0]),))
    region = FeasibleSet.unconstrained(1)
    gamma, x = grid_oracle_caolf([both, far], region, 201, box=[(-0.5, 1.5)])
    assert gamma == pytest.approx(0.5, abs=1e-9) and x[0] == pytest.approx(0.5, abs=1e-9)
    sol = solve_caolf([both, far], region, SolveConfig())
    assert sol.gamma == pytest.approx(0.5, abs=2e-6)


def test_every_lipschitz_model_of_a_metric_constrains_both_solvers():
    # solve_caolf used to keep only the first l2 model (bound 1, gamma 0.5);
    # all of a metric's models constrain together, so bound 3 binds: 3 / (3 + 1)
    twice = [MetricRef(id="left", x_ref=[0.0], value=1.0,
                       models=(LipschitzNorm(1.0, Norm.L2, [0]), LipschitzNorm(3.0, Norm.L2, [0]))),
             MetricRef(id="right", x_ref=[1.0], value=1.0,
                       models=(LipschitzNorm(1.0, Norm.L2, [0]),))]
    region = FeasibleSet.unconstrained(1)
    for solve in (solve_caolf, solve_approx):
        assert solve(twice, region, SolveConfig()).gamma == pytest.approx(0.75, abs=2e-6)


def test_grid_oracle_guards():
    region = FeasibleSet.nonnegative(4)
    with pytest.raises(ValueError):
        grid_oracle_caolf([], region, 11, box=[(0, 1)] * 4)
    region2 = FeasibleSet.nonnegative(2)
    refs = [MetricRef(id="m", x_ref=[0.5, 0.5], value=1.0,
                      models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),))]
    with pytest.raises(ValueError):
        grid_oracle_caolf(refs, region2, 11, box=None)
    with pytest.raises(ValueError):
        grid_oracle_swcm([], region2, 11, box=[(0, 1), (0, 1)])


def test_grid_oracle_swcm_rejects_nan_evaluations():
    region, box = FeasibleSet.unconstrained(1), [(0.0, 1.0)]
    nowhere = (lambda x: 2.0, 1.0, Sense.MINIMIZE)
    everywhere = (lambda x: np.nan, 1.0, Sense.MINIMIZE)
    at_one = (lambda x: np.nan if x[0] == 1.0 else 2.0, 1.0, Sense.MINIMIZE)
    with pytest.raises(ValueError, match=r"metric 0 evaluates to NaN at \[0\.0\]"):
        grid_oracle_swcm([everywhere], region, 11, box)
    with pytest.raises(ValueError, match=r"metric 1 evaluates to NaN at \[1\.0\]"):
        grid_oracle_swcm([nowhere, at_one], region, 11, box)


def violation_by_formula(region, p):
    """The region's violation at ``p`` written out: the distance below the lower
    bounds or the farthest halfspace's distance, whichever is larger."""
    below = np.maximum(region.lower - p, 0.0)
    return max([float(np.sqrt(np.dot(below, below)))]
               + [max(0.0, float(np.dot(a, p)) - b) / float(np.sqrt(np.dot(a, a)))
                  for a, b in region.halfspaces])


def test_region_violation_matches_the_set_reference():
    # the vectorized violation against the lower-bound and halfspace formulas,
    # point by point and over rows
    rng = np.random.default_rng(73)
    regions = [
        FeasibleSet.unconstrained(3),
        FeasibleSet(lower=[0.0, -np.inf, 1.0]),
        FeasibleSet(lower=[-1.0, -np.inf, 0.0],
                    halfspaces=[(rng.normal(size=3), float(rng.uniform(0.5, 2.0))) for _ in range(5)]),
    ]
    for region in regions:
        pts = rng.normal(size=(5000, 3)) * 3.0
        rows = region.violation(pts)
        single = [region.violation(p) for p in pts]
        want = [violation_by_formula(region, p) for p in pts]
        assert all(type(v) is float for v in single)
        assert rows.tobytes() == np.array(single).tobytes()
        # a.x - b cancels near a boundary, so the rounding scales with |p|
        assert np.all(np.abs(rows - want) <= 1e-14 * (np.asarray(want) + np.linalg.norm(pts, axis=1)))
        unconstrained = np.all(region.lower == -np.inf) and not region.halfspaces
        assert 0 < np.count_nonzero(rows) < len(pts) or unconstrained
        assert region.contains(pts[0]) is bool(want[0] <= 1e-9)


def test_region_holds_one_copy_of_its_halfspaces():
    a = np.array([1.0, 1.0])
    region = FeasibleSet.nonnegative(2, halfspaces=[(a, 1.0)])
    a[0] = 5.0  # the caller's array is not the region's
    assert region.normals.tolist() == [[1.0, 1.0]] and region.rhs.tolist() == [1.0]
    (normal, bound), = region.halfspaces
    assert np.shares_memory(normal, region.normals) and type(bound) is float
    with pytest.raises(AttributeError):
        region.halfspaces = ()


def test_region_rejects_points_of_another_dimension():
    for region in (FeasibleSet.unconstrained(2), FeasibleSet.nonnegative(2)):
        for x in ([1.0], [-1.0], np.zeros(3), 0.5, np.zeros((4, 1)), np.zeros((4, 3)),
                  np.zeros((2, 2, 2))):
            for check in (region.violation, region.contains):
                with pytest.raises(ValueError, match=r"has shape .*needs \(2,\) or \(P, 2\)"):
                    check(x)
        assert region.contains([1.0, 1.0]) is True
        assert region.contains(np.ones((3, 2))).tolist() == [True] * 3


def _wedge(e):
    """x >= 0 between two lines of slope +-e that meet at the apex (100, 1)."""
    return FeasibleSet(lower=[0.0, 0.0], halfspaces=[([-e, 1.0], 1.0 - 100.0 * e),
                                                     ([-e, -1.0], -1.0 - 100.0 * e)])


def test_region_emptiness_is_decided_exactly():
    # the projection check stalled on thin wedges far from the origin and
    # called them empty
    for e in (0.02, 0.01):
        assert _wedge(e).contains([200.0, 1.0])
    for lower, halfspaces in (([0.0, 0.0], [([1.0, 1.0], -1.0)]),
                              ([-np.inf], [([1.0], 1.0), ([-1.0], -1.0 - 1e-6)])):
        with pytest.raises(ValueError, match="feasible set is empty"):
            FeasibleSet(lower=lower, halfspaces=halfspaces)


def test_thin_wedge_solves_at_its_apex_in_every_norm():
    # a projection into this wedge stalled, so the L2 solve raised while the
    # LPs solved it; the L2 start now comes from the deepest-slack point
    ref = MetricRef(id="far", x_ref=[0.0, 5.0], value=1.0,
                    models=tuple(LipschitzNorm(1.0, norm, [0, 0]) for norm in Norm))
    for norm, gamma in ((Norm.L1, 104.0), (Norm.LINF, 100.0)):
        sol = solve_caolf([ref], _wedge(0.01), SolveConfig(norm=norm))
        np.testing.assert_allclose(sol.x, [100.0, 1.0], rtol=1e-12)
        assert sol.gamma == pytest.approx(gamma, rel=1e-12)
    # the point may sit up to the widening along the wedge, inside the widened
    # region, so gamma stays within 1e-6 of the apex's sqrt(100^2 + 4^2)
    for e in (0.01, 0.02):
        region = _wedge(e)
        sol = solve_caolf([ref], region, SolveConfig())
        np.testing.assert_allclose(sol.x, [100.0, 1.0], atol=1e-4)
        assert region.violation(sol.x) <= SolveConfig().feasibility_tolerance
        assert sol.gamma == pytest.approx(math.sqrt(10016.0), rel=1e-6)


def test_the_l2_solve_never_projects(monkeypatch):
    # every start below that the region cuts off projected before; the start
    # now lies on the segment from the deepest-slack point toward it.  The
    # three largest budgets are zero-gamma cells, which one LP settles
    from caolf import model, solver
    from caolf.bench import ExperimentConfig, build_experiment, reference_budget
    from caolf.network import build_metric_refs
    cfg = ExperimentConfig()
    net, _, history = build_experiment(cfg)
    budget = reference_budget(net, history)
    sweep_refs = build_metric_refs(net, history, Norm.L2)
    far = MetricRef(id="far", x_ref=[0.0, 5.0], value=1.0,
                    models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),))
    pair = [MetricRef(id="a", x_ref=[0.0], value=1.0, models=(LipschitzNorm(2.0, Norm.L2, [0]),)),
            MetricRef(id="b", x_ref=[1.0], value=1.0, models=(LipschitzNorm(1.0, Norm.L2, [0]),))]
    mults = cfg.budget_multipliers
    cases = [("zero-lp" if mult in mults[-3:] else "barrier-", solve_caolf, sweep_refs,
              FeasibleSet.nonnegative(net.edge_count, [(net.price_pre, mult * budget)]))
             for mult in mults]
    cases += [("barrier-", solve_caolf, [far], _wedge(e)) for e in (0.01, 0.02)]
    cases.append(("barrier-", solve_caolf, pair,
                  FeasibleSet(lower=[-np.inf], halfspaces=[([1.0], 0.25)])))
    cases += [("barrier-", solve_approx, *pinned_instance(seed)[1:]) for seed in range(3)]

    def no_projection(*args, **kwargs):
        raise AssertionError("the L2 solve projected")

    monkeypatch.setattr(FeasibleSet, "find_point", no_projection)
    monkeypatch.setattr(model, "dykstra", no_projection)
    # the zero-gamma LP has a zero objective, the deepest-slack LP does not
    lps, real_solve_lp = {"zero": 0, "deepest": 0}, solver.solve_lp

    def counted(problem):
        lps["deepest" if np.any(problem.c) else "zero"] += 1
        return real_solve_lp(problem)

    monkeypatch.setattr(solver, "solve_lp", counted)
    for method, solve, refs, region in cases:
        sol = solve(refs, region, SolveConfig())
        assert sol.diagnostics.method.startswith(method), (method, sol.diagnostics.method)
        assert region.violation(sol.x) <= SolveConfig().feasibility_tolerance
    # the zero-gamma LP runs on every sweep cell and both wedges, where the
    # boxes meet; the pair's boxes do not, and the mixed tables have caps.
    # The deepest-slack LP runs only for a start the region cuts off: six
    # nonzero sweep cells, both wedges, the pair and seed 1's mixed instance
    assert lps == {"zero": 12, "deepest": 10}


@pytest.mark.parametrize("size", [(12, 30, 36), (20, 60, 80)])
def test_sweep_centerings_end_and_zero_cells_are_exact(size):
    # at 20 nodes the last centerings once crawled below the rounding of the
    # barrier objective, 558 and 2,015 Newton steps at budgets 0.933 and 1.1;
    # the three largest budgets are zero-gamma cells in every norm, where the
    # barrier stopped near 1e-14
    from caolf.bench import ExperimentConfig, build_experiment, reference_budget
    from caolf.network import build_metric_refs
    nodes, edges, pairs = size
    cfg = ExperimentConfig(node_count=nodes, edge_count=edges, demand_pairs=pairs)
    net, _, history = build_experiment(cfg)
    budget = reference_budget(net, history)
    tol = SolveConfig().feasibility_tolerance
    zero_cells = cfg.budget_multipliers[-3:]
    for norm in Norm:
        refs = build_metric_refs(net, history, norm)
        for mult in cfg.budget_multipliers:
            region = FeasibleSet.nonnegative(net.edge_count, [(net.price_pre, mult * budget)])
            sol = solve_caolf(refs, region, SolveConfig(norm=norm))
            assert (sol.gamma == 0.0) == (mult in zero_cells), (norm, mult, sol.gamma)
            if norm != Norm.L2:
                continue
            if mult in zero_cells:
                assert sol.diagnostics.method == "zero-lp"
                for r in refs:
                    assert np.max(clip(sol.x, r.geometry(r.lipschitz_model(norm)))) <= tol, r.id
                assert region.violation(sol.x) <= tol
            else:
                assert sol.diagnostics.method == "barrier-l2"
                assert sol.diagnostics.iterations <= 150, (mult, sol.diagnostics.iterations)


def _zero_lps(monkeypatch):
    """Patch the solver's LP calls; returns the list the zero-objective ones land in."""
    from caolf import solver
    zero, real_solve_lp = [], solver.solve_lp

    def counted(problem):
        if not np.any(problem.c):
            zero.append(problem)
        return real_solve_lp(problem)

    monkeypatch.setattr(solver, "solve_lp", counted)
    return zero


def test_a_table_with_a_cap_row_goes_through_the_barrier(monkeypatch):
    # the clip box [0, inf)^2 meets the region x1 + x2 >= 1, but the plane
    # needs x1 + 2 x2 <= gamma, so gamma is 1 at (1, 0), not 0
    zero = _zero_lps(monkeypatch)
    refs = [MetricRef(id="ball", x_ref=[0.0, 0.0], value=1.0,
                      models=(LipschitzNorm(1.0, Norm.L2, [-1, -1]),)),
            MetricRef(id="plane", x_ref=[0.0, 0.0], value=1.0, models=(ConcaveLinear([1.0, 2.0]),))]
    region = FeasibleSet.nonnegative(2, [([-1.0, -1.0], -1.0)])
    sol = solve_approx(refs, region, SolveConfig())
    assert sol.diagnostics.method == "barrier-mixed"
    assert sol.gamma == pytest.approx(1.0, abs=SolveConfig().gamma_tolerance)
    for seed in range(3):
        assert solve_approx(*pinned_instance(seed)[1:]).diagnostics.method == "barrier-mixed"
    assert zero == []


def test_disjoint_safe_boxes_skip_the_zero_gamma_lp(monkeypatch):
    # boxes {0} and {1}: gamma is positive without an LP to say so
    zero = _zero_lps(monkeypatch)
    for region in (FeasibleSet.unconstrained(1), FeasibleSet(lower=[0.0], halfspaces=[([1.0], 0.5)])):
        sol = solve_caolf(two_point_refs(2.0, 1.0), region, SolveConfig())
        assert sol.diagnostics.method == "barrier-l2" and sol.gamma > 0.0
    assert zero == []


def test_boxes_that_meet_inside_the_region_give_gamma_zero_exactly(monkeypatch):
    zero = _zero_lps(monkeypatch)
    # two decreasing metrics: boxes [1, inf) x [0, inf) and [0, inf) x [2, inf)
    # meet in [1, inf) x [2, inf), which the budget 4 reaches
    mono = [Mono.DECREASING, Mono.DECREASING]
    refs = [MetricRef(id="a", x_ref=[1.0, 0.0], value=1.0, models=(LipschitzNorm(1.0, Norm.L2, mono),)),
            MetricRef(id="b", x_ref=[0.0, 2.0], value=2.0, models=(LipschitzNorm(3.0, Norm.L2, mono),))]
    region = FeasibleSet.nonnegative(2, [([1.0, 1.0], 4.0)])
    sol = solve_caolf(refs, region, SolveConfig())
    assert (sol.gamma, sol.diagnostics.method) == (0.0, "zero-lp")
    assert len(zero) == 1 and np.all(sol.x >= [1.0, 2.0]) and region.contains(sol.x)
    # the budget 2.5 leaves no point of the box: the barrier reports gamma > 0
    sol = solve_caolf(refs, FeasibleSet.nonnegative(2, [([1.0, 1.0], 2.5)]), SolveConfig())
    assert sol.diagnostics.method == "barrier-l2" and sol.gamma > 0.0 and len(zero) == 2


def test_a_non_finite_point_is_an_error(monkeypatch):
    from caolf import solver
    from caolf.solver import SolveError
    monkeypatch.setattr(solver, "_barrier", lambda *args: (np.array([np.nan]), 1, "barrier-l2"))
    with pytest.raises(SolveError, match="non-finite point"):
        solve_caolf(two_point_refs(2.0, 1.0), FeasibleSet.unconstrained(1), SolveConfig())


def test_the_barrier_steps_by_least_squares_when_the_newton_solve_fails(monkeypatch):
    # two non-monotone L2 references at rates 1 and 0.75, sqrt(5) apart: the
    # optimum lies between them at gamma = 0.75 * sqrt(5) / 1.75 = 3 sqrt(5) / 7
    refs = [MetricRef(id="a", x_ref=[1.0, 2.0], value=1.0, models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),)),
            MetricRef(id="b", x_ref=[3.0, 1.0], value=2.0, models=(LipschitzNorm(1.5, Norm.L2, [0, 0]),))]
    region = FeasibleSet.nonnegative(2, [([1.0, 1.0], 10.0)])
    failed = []

    def singular(*args, **kwargs):
        failed.append(1)
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    sol = solve_caolf(refs, region, SolveConfig())
    assert failed and sol.diagnostics.method == "barrier-l2"
    assert sol.gamma == pytest.approx(3.0 * math.sqrt(5.0) / 7.0, abs=SolveConfig().gamma_tolerance)


def test_grid_points_keep_what_the_per_set_filter_kept():
    # the grid in itertools.product order, filtered point by point
    cases = [
        (FeasibleSet.nonnegative(2, halfspaces=[(np.ones(2), 3.0)]), [(0.0, 3.0), (0.0, 3.0)], 101),
        (FeasibleSet(lower=[0, -np.inf], halfspaces=[([0.3, 1.7], 2.1), ([-1, 0.2], 0.5)]),
         [(-1.0, 3.0), (-3.0, 3.0)], 61),
    ]
    for region, box, resolution in cases:
        grid = itertools.product(*(np.linspace(lo, hi, resolution) for lo, hi in box))
        kept = [p for p in map(np.asarray, grid)
                if violation_by_formula(region, p) <= GRID_MEMBERSHIP_TOL]
        pts = _grid_points(region, resolution, box)
        assert 0 < len(pts) < resolution ** 2
        assert pts.tobytes() == np.array(kept).tobytes()


@pytest.mark.parametrize("value", [-1.0, np.nan, 0.0])
def test_bad_reference_values_raise_before_any_evaluation(value):
    calls = []

    def evaluate(x):
        calls.append(x)
        return 1.0

    metrics = [(evaluate, 1.0, Sense.MINIMIZE), (evaluate, value, Sense.MAXIMIZE)]
    with pytest.raises(ValueError, match="reference value must be positive"):
        verify_competitiveness(np.zeros(1), 0.5, metrics)
    with pytest.raises(ValueError, match="reference value must be positive"):
        grid_oracle_swcm(metrics, FeasibleSet.unconstrained(1), 11, box=[(0.0, 1.0)])
    assert calls == []


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_tolerances_must_be_positive_and_finite(tol):
    # a NaN tolerance passed `<= 0` and the barrier solve never stopped
    for field in ("gamma_tolerance", "feasibility_tolerance"):
        with pytest.raises(ValueError, match="positive and finite"):
            SolveConfig(**{field: tol})


def test_dimension_mismatch_raises():
    region = FeasibleSet.nonnegative(2)
    refs = [MetricRef(id="m", x_ref=[0.5], value=1.0,
                      models=(LipschitzNorm(1.0, Norm.L2, [0]),))]
    with pytest.raises(ValueError):
        solve_caolf(refs, region, SolveConfig())


def test_missing_norm_model_raises():
    region = FeasibleSet.unconstrained(1)
    refs = [MetricRef(id="m", x_ref=[0.5], value=1.0,
                      models=(LipschitzNorm(1.0, Norm.L2, [0]),))]
    with pytest.raises(ValueError):
        solve_caolf(refs, region, SolveConfig(norm=Norm.L1))
    # the norm may be given by value; anything else raises
    l1 = [MetricRef(id="m", x_ref=[0.5], value=1.0, models=(LipschitzNorm(1.0, "l1", [0]),))]
    assert solve_caolf(l1, region, SolveConfig(norm="l1")).diagnostics.method == "epigraph-lp-l1"
    with pytest.raises(ValueError, match="'l9' is not a valid Norm"):
        SolveConfig(norm="l9")


def test_a_metric_without_a_usable_model_raises():
    # a zero gradient gives the hyperplane model no row, so the table is empty
    region = FeasibleSet.nonnegative(2)
    refs = [MetricRef(id="flat", x_ref=[1.0, 2.0], value=1.0,
                      models=(ConcaveLinear([0.0, 0.0]),))]
    for solve in (solve_caolf, solve_approx):
        with pytest.raises(ValueError, match="no usable constraint models"):
            solve(refs, region, SolveConfig())


def test_a_negative_gamma_is_rejected():
    diag = SolveDiagnostics(iterations=0, residual=0.0, method="none")
    assert CompetitiveSolution(x=[0.0], gamma=0.0, diagnostics=diag).gamma == 0.0
    with pytest.raises(ValueError, match="must be nonnegative"):
        CompetitiveSolution(x=[0.0], gamma=-1e-13, diagnostics=diag)
    # NaN passed the old `gamma < 0` test
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be nonnegative and finite"):
            CompetitiveSolution(x=[0.0], gamma=gamma, diagnostics=diag)


def test_a_nan_coordinate_is_not_certified_as_zero():
    # max(0.0, nan) is 0.0, so a NaN need once read as gamma 0
    ref = MetricRef(id="only", x_ref=[1.0], value=1.0, models=(LipschitzNorm(1.0, Norm.L2, [0]),))
    table = ClippedNormSurrogate([ref], Norm.L2)
    with np.errstate(invalid="ignore"):
        assert math.isnan(table.certify([np.nan]))
    assert table.certify([1.0]) == 0.0


def test_stability_probe_validates_kappas():
    refs = two_point_refs(1.0, 1.0)
    region = FeasibleSet.unconstrained(1)
    with pytest.raises(ValueError):
        stability_probe(refs, region, SolveConfig(), kappas=[1.0])
    with pytest.raises(ValueError):
        stability_probe(refs, region, SolveConfig(), kappas=[1.0, -2.0])


PINNED_SOLVES = Path(__file__).resolve().parent / "data" / "pinned_solves.json"


def pinned_instance(seed):
    """A small seeded instance for the bit-for-bit recording.

    Returns (refs, mixed, region): ``refs`` carry Lipschitz models in all
    three norms, ``mixed`` the same metrics with l2 Lipschitz, hyperplane
    (one with a zero gradient) and quadratic-cap models.  The last metric
    repeats the first one's geometry, so the epigraph LP merges them, and
    one coordinate has no lower bound, so the LP splits its column.
    """
    rng = np.random.default_rng([2026, seed])
    d = 4
    points = rng.uniform(1.0, 4.0, (4, d))
    refs, mixed = [], []
    for i in range(5):
        k = 0 if i == 4 else i
        x_ref, mono = points[k], rng.integers(-1, 2, d)
        if i == 4:
            mono = refs[0].models[0].mono
        sense = Sense.MAXIMIZE if k % 2 else Sense.MINIMIZE
        value, bound = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.5, 2.0))
        l2 = LipschitzNorm(bound, Norm.L2, mono)
        models = (l2, LipschitzNorm(bound * float(rng.uniform(0.5, 1.0)), Norm.L1, mono),
                  LipschitzNorm(bound * float(rng.uniform(1.0, 3.0)), Norm.LINF, mono))
        grad, curvature = rng.normal(0.0, 0.3, d), float(rng.uniform(0.05, 0.2))
        approx = [(l2,), (l2, ConcaveLinear(grad)), (ConvexQuadratic(grad, curvature),),
                  (l2, ConcaveLinear(np.zeros(d)), ConvexQuadratic(grad, curvature)),
                  (ConcaveLinear(grad),)][i]
        refs.append(MetricRef(id=f"m{i}", x_ref=x_ref, value=value, sense=sense, models=models))
        mixed.append(MetricRef(id=f"m{i}", x_ref=x_ref, value=value, sense=sense, models=approx))
    lower = np.zeros(d)
    lower[seed % d] = -np.inf
    price = rng.uniform(0.5, 1.5, d)
    region = FeasibleSet(lower=lower, halfspaces=((price, float(np.mean(points @ price))),))
    return refs, mixed, region


def pinned_record(seed):
    """Bits of ``solve_approx`` and the L1/LINF ``solve_caolf`` on one instance."""
    refs, mixed, region = pinned_instance(seed)
    solves = {"approx": solve_approx(mixed, region, SolveConfig())}
    for norm in (Norm.L1, Norm.LINF):
        solves[norm.value] = solve_caolf(refs, region, SolveConfig(norm=norm))
    return {name: {"gamma": float(sol.gamma).hex(), "iterations": sol.diagnostics.iterations,
                   "x": [float(v).hex() for v in sol.x]}
            for name, sol in solves.items()}


def test_solvers_match_their_bitwise_recording():
    # the L1/LINF entries were recorded with the all-slack start, the
    # most-infeasible leaving row and refactors that factorize only the
    # basis columns that are not singletons, the final one for B⁻¹b alone;
    # the approx entries come from the barrier solve; a rewrite may not move
    # a single bit, so gamma, the point and the pivot / Newton-step counts
    # must match
    want = json.loads(PINNED_SOLVES.read_text())
    assert [pinned_record(seed) for seed in range(3)] == want["records"]


def test_the_epigraph_lp_always_starts_from_the_slacks(monkeypatch):
    # the epigraph LP has no equality rows, costs e_gamma, and splits a free
    # coordinate into two columns of cost 0, so its all-slack basis is dual
    # feasible; a silent fallback to the cold solve would keep every answer
    # and lose the speed, so the cold solve must never run
    from caolf import lp
    from caolf.bench import ExperimentConfig, build_experiment, reference_budget
    from caolf.network import build_metric_refs
    cfg = ExperimentConfig()
    net, _, history = build_experiment(cfg)
    budget = reference_budget(net, history)
    rng = np.random.default_rng(1601)
    cases = []
    for norm in (Norm.L1, Norm.LINF):
        sweep_refs = build_metric_refs(net, history, norm)
        cases += [(norm, sweep_refs,
                   FeasibleSet.nonnegative(net.edge_count, [(net.price_pre, mult * budget)]))
                  for mult in cfg.budget_multipliers]
        for seed in range(3):
            refs, _, region = pinned_instance(seed)
            cases.append((norm, refs, region))
        for _ in range(10):
            refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(0.0, 1.0, 2),
                              value=float(rng.uniform(0.5, 2.0)),
                              models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)), norm,
                                                    rng.integers(-1, 2, 2)),))
                    for i in range(int(rng.integers(2, 5)))]
            cases.append((norm, refs, FeasibleSet.nonnegative(2, [(rng.uniform(0.5, 1.5, 2), 1.0)])))

    def no_cold_solve(*args):
        raise AssertionError("the epigraph LP fell back to the cold solve")

    monkeypatch.setattr(lp, "_two_phase", no_cold_solve)
    assert len(cases) == 46
    for norm, refs, region in cases:
        sol = solve_caolf(refs, region, SolveConfig(norm=norm))
        assert sol.diagnostics.method == f"epigraph-lp-{norm.value}"
        assert region.violation(sol.x) <= SolveConfig().feasibility_tolerance


def test_the_epigraph_lp_factorizes_only_what_it_reads(monkeypatch):
    # the all-slack start is B = ±I, so its refactor inverts and solves
    # nothing and writes only the working columns, which are its nonbasic
    # ones, and b; the closing solve reads only the basic values, so it
    # solves for B⁻¹b alone, and then for the row prices by one solve with
    # the block's transpose; a silent return to the full tableau or the full
    # dense solve would keep every answer and lose the speed
    from caolf import lp
    from caolf.bench import ExperimentConfig, build_experiment, reference_budget
    from caolf.network import build_metric_refs
    cfg = ExperimentConfig()
    net, _, history = build_experiment(cfg)
    budget = reference_budget(net, history)
    # per refactor or closing solve: its T's column count (None for the
    # closing solve), the standard form's working column count (the epigraph
    # LP has inequality rows only, one slack each), the widths of the rhs it
    # solved for and the orders of the blocks it inverted
    refactors = []
    real_refactor, real_closing_solve = lp._refactor, lp._closing_solve
    real_solve, real_inv = np.linalg.solve, np.linalg.inv

    def refactor(T, basis, nonbasic, A0, b0):
        refactors.append((T.shape[1], A0.shape[1] - A0.shape[0], [], []))
        return real_refactor(T, basis, nonbasic, A0, b0)

    def closing_solve(A0, b0, basis, cost_b):
        refactors.append((None, A0.shape[1] - A0.shape[0], [], []))
        return real_closing_solve(A0, b0, basis, cost_b)

    def solve(a, b):
        refactors[-1][2].append(b.shape[1] if b.ndim == 2 else 1)
        return real_solve(a, b)

    def inv(a):
        refactors[-1][3].append(a.shape[0])
        return real_inv(a)

    monkeypatch.setattr(lp, "_refactor", refactor)
    monkeypatch.setattr(lp, "_closing_solve", closing_solve)
    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(np.linalg, "inv", inv)
    for norm in (Norm.L1, Norm.LINF):
        refs = build_metric_refs(net, history, norm)
        for mult in cfg.budget_multipliers:
            refactors.clear()
            region = FeasibleSet.nonnegative(net.edge_count, [(net.price_pre, mult * budget)])
            solve_caolf(refs, region, SolveConfig(norm=norm))
            start, *_, final = refactors
            assert start[0] == start[1] + 1 and start[2:] == ([], [])
            assert final[0] is None and final[2:] == ([1, 1], [])


def test_the_epigraph_lp_optimum_carries_a_dual_certificate(monkeypatch):
    # every L1 and LINF epigraph LP of the default sweep and of the pinned
    # instances: its duals u >= 0 and reduced costs d = c + a_ubᵀu have the
    # signs an optimum asks for (d >= 0 on a coordinate with a lower bound,
    # d = 0 on a free one), complementary slackness holds, and the dual
    # value -u.b_ub + d.lower equals the LP value
    from caolf import solver
    from caolf.bench import ExperimentConfig, run_sweep
    solves = []
    real_solve_lp = solver.solve_lp

    def spy(problem):
        sol = real_solve_lp(problem)
        solves.append((problem, sol))
        return sol

    monkeypatch.setattr(solver, "solve_lp", spy)
    run_sweep(ExperimentConfig(norms=(Norm.L1, Norm.LINF)))
    for seed in range(3):
        refs, _, region = pinned_instance(seed)
        for norm in (Norm.L1, Norm.LINF):
            solve_caolf(refs, region, SolveConfig(norm=norm))
    assert len(solves) == 2 * len(ExperimentConfig().budget_multipliers) + 6
    for problem, sol in solves:
        u, x, lower = sol.duals, sol.x, problem.lower
        assert u.shape == problem.b_ub.shape and np.all(u >= -1e-12)
        d = problem.c + problem.a_ub.T @ u
        bounded = np.isfinite(lower)
        assert np.all(d[bounded] >= -1e-9) and np.all(np.abs(d[~bounded]) <= 1e-9)
        np.testing.assert_allclose(u * (problem.b_ub - problem.a_ub @ x), 0.0, atol=1e-9)
        np.testing.assert_allclose(d[bounded] * (x - lower)[bounded], 0.0, atol=1e-9)
        dual_value = -u @ problem.b_ub + d[bounded] @ lower[bounded]
        assert abs(dual_value - sol.value) <= 1e-9 * max(1.0, abs(sol.value))


def test_surrogate_needed_gives_the_certificate_solve_approx_reports():
    # `caolf verify` reads each metric's need from the table
    refs, mixed, region = pinned_instance(0)
    sol = solve_approx(mixed, region, SolveConfig())
    table = ClippedNormSurrogate(mixed, Norm.L2)
    # the zero gradient has no row
    assert np.bincount(table.owner).tolist() == [1, 2, 1, 2, 1]
    assert max(table.needed(sol.x)) == sol.gamma
    # a metric's need is the largest of its Lipschitz row, bit for bit the
    # Lipschitz-only surrogate's, and its caps, each computed from the model
    surrogate = ClippedNormSurrogate([refs[i] for i in (0, 1, 3)], Norm.L2)
    for x in np.random.default_rng(3).uniform(0.0, 5.0, (50, region.dim)):
        want = dict(zip((0, 1, 3), surrogate.needed(x)))
        for i, r in enumerate(mixed):
            u = x - r.x_ref
            for m in r.models:
                if isinstance(m, ConvexQuadratic):
                    cap = (m.curvature * float(np.dot(u, u)) + float(np.dot(m.grad, u))) / r.value
                elif isinstance(m, ConcaveLinear):
                    cap = float(np.dot(m.grad, u)) / r.value
                else:
                    continue
                want[i] = max(want.get(i, 0.0), cap)
        assert [float(v).hex() for v in table.needed(x)] == [float(want[i]).hex() for i in range(5)]


def test_every_entry_point_names_the_metric_with_the_wrong_dimension():
    # the grid oracle used to broadcast a 1-D reference over a 2-D grid and
    # answer (0, [0, 0]), and to fail inside numpy on a 3-D one
    region = FeasibleSet.nonnegative(2)
    for x_ref in ([0.5], [0.5, 0.5, 0.5]):
        good = MetricRef(id="good", x_ref=[0.5, 0.5], value=1.0,
                         models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),))
        bad = MetricRef(id="bad", x_ref=x_ref, value=1.0,
                        models=(LipschitzNorm(1.0, Norm.L2, [0] * len(x_ref)),))
        for refs in ([bad], [good, bad]):
            for call in (lambda: grid_oracle_caolf(refs, region, 11, box=[(0, 1), (0, 1)]),
                         lambda: solve_caolf(refs, region, SolveConfig()),
                         lambda: solve_approx(refs, region, SolveConfig())):
                with pytest.raises(ValueError, match=f"metric 'bad' has dimension {len(x_ref)}"):
                    call()


def _slsqp_gamma(table, region, start):
    """gamma that scipy's SLSQP reaches over (x, gamma), certified at its point.

    The constraints are the rows of the l2 ``table``; clip rows are squared,
    rate^2 ||x - clamp(x)||^2 <= gamma^2, so every row is C^1.
    """
    from scipy.optimize import minimize
    d = region.dim
    cons = []
    for rate, lo, hi in zip(table.rate, table.lo, table.hi):
        def fun(z, rate=rate, lo=lo, hi=hi):
            h = z[:d] - np.clip(z[:d], lo, hi)
            return z[d] ** 2 - rate ** 2 * float(h @ h)

        def jac(z, rate=rate, lo=lo, hi=hi):
            h = z[:d] - np.clip(z[:d], lo, hi)
            return np.append(-2.0 * rate ** 2 * h, 2.0 * z[d])
        cons.append({"type": "ineq", "fun": fun, "jac": jac})
    for c, center, g, value in zip(table.curvature, table.center, table.grad, table.value):
        def fun(z, curv=c / value, center=center, grad=g / value):
            u = z[:d] - center
            return z[d] - curv * float(u @ u) - float(grad @ u)

        def jac(z, curv=c / value, center=center, grad=g / value):
            return np.append(-(2.0 * curv * (z[:d] - center) + grad), 1.0)
        cons.append({"type": "ineq", "fun": fun, "jac": jac})
    for a, b in region.halfspaces:
        cons.append({"type": "ineq", "fun": lambda z, a=a, b=b: b - float(a @ z[:d]),
                     "jac": lambda z, a=a: np.append(-a, 0.0)})
    bounds = [(lo if np.isfinite(lo) else None, None) for lo in region.lower] + [(0.0, None)]
    x0 = np.maximum(start, region.lower)
    res = minimize(lambda z: z[d], np.append(x0, table.certify(x0)), jac=lambda z: np.eye(d + 1)[d],
                   bounds=bounds, constraints=cons, method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 1000})
    return table.certify(np.maximum(res.x[:d], region.lower))


def test_l2_and_mixed_gammas_are_near_the_independent_optimum():
    # the bisection stopped up to 2.5e-4 (relative) above the optimum at the
    # tightest sweep cell: 40.0347725502 against SLSQP's 40.0249418077
    pytest.importorskip("scipy")
    from caolf.bench import ExperimentConfig, build_experiment, reference_budget
    from caolf.network import build_metric_refs
    cfg = ExperimentConfig()
    net, _, history = build_experiment(cfg)
    refs = build_metric_refs(net, history, Norm.L2)
    budget = reference_budget(net, history)
    cases = [(refs, FeasibleSet.nonnegative(net.edge_count, [(net.price_pre, mult * budget)]))
             for mult in (cfg.budget_multipliers[0], cfg.budget_multipliers[6])]
    assert [cfg.budget_multipliers[i] for i in (0, 6)] == pytest.approx([0.1, 1.1])
    cases += [(pinned_instance(seed)[0], pinned_instance(seed)[2]) for seed in range(3)]
    config = SolveConfig()
    for lipschitz, region in cases:
        table = ClippedNormSurrogate(lipschitz, Norm.L2)
        start = np.mean([r.x_ref for r in lipschitz], axis=0)
        want = _slsqp_gamma(table, region, start)
        got = solve_caolf(lipschitz, region, config).gamma
        assert got <= want + config.gamma_tolerance * max(1.0, want), (got, want)
    for seed in range(3):
        _, mixed, region = pinned_instance(seed)
        want = _slsqp_gamma(ClippedNormSurrogate(mixed, Norm.L2), region,
                            np.mean([r.x_ref for r in mixed], axis=0))
        got = solve_approx(mixed, region, config).gamma
        assert got <= want + config.gamma_tolerance * max(1.0, want), (seed, got, want)


@pytest.mark.parametrize("solve", [solve_caolf, solve_approx])
def test_regions_without_interior_keep_their_closed_forms(solve):
    # the line x + y = 1 as two opposite halfspaces, and the corner x, y >= 0
    # with x + y <= 0; a non-monotone reference sits at the origin
    config = SolveConfig()
    ref = MetricRef(id="o", x_ref=[0.0, 0.0], value=1.0,
                    models=(LipschitzNorm(1.0, Norm.L2, [0, 0]),))
    line = FeasibleSet(lower=[-np.inf, -np.inf],
                       halfspaces=[([1.0, 1.0], 1.0), ([-1.0, -1.0], -1.0)])
    corner = FeasibleSet(lower=[0.0, 0.0], halfspaces=[([1.0, 1.0], 0.0)])
    for region, want in ((line, 1.0 / np.sqrt(2.0)), (corner, 0.0)):
        sol = solve([ref], region, config)
        assert sol.gamma == pytest.approx(want, abs=1e-6)
        assert region.violation(sol.x) <= config.feasibility_tolerance


def test_flat_directions_keep_the_point_near_the_references():
    # criterion 3's instances: nonnegative coordinates that no reference
    # penalizes moving up must not run off toward infinity
    from test_acceptance import random_plane_refs
    rng = np.random.default_rng(3003)
    region = FeasibleSet.nonnegative(2)
    for _ in range(200):
        refs = random_plane_refs(rng)
        sol = solve_caolf(refs, region, SolveConfig())
        assert np.all(np.isfinite(sol.x))
        assert np.all(sol.x <= 1.0 + max(float(np.max(r.x_ref)) for r in refs)), sol.x


def test_hyperplane_rows_falling_along_free_directions_still_end():
    # a hyperplane model can fall without bound along a direction the region
    # leaves free, so its barrier term has no minimum without the linear term
    config = SolveConfig()
    falling = MetricRef(id="plane", x_ref=[0.0], value=1.0, models=(ConcaveLinear([-1.0]),))
    sol = solve_approx([falling], FeasibleSet.unconstrained(1), config)
    assert sol.gamma == 0.0 and np.all(np.isfinite(sol.x))
    # the same beside a clipped ball that x >= 1 holds at gamma 1
    refs = [MetricRef(id="ball", x_ref=[0.0, 0.0], value=1.0,
                      models=(LipschitzNorm(1.0, Norm.L2, [0, 1]),)),
            MetricRef(id="plane", x_ref=[0.0, 0.0], value=1.0,
                      models=(ConcaveLinear([0.0, 1.0]),))]
    sol = solve_approx(refs, FeasibleSet(lower=[1.0, -np.inf]), config)
    assert sol.gamma == pytest.approx(1.0, abs=config.gamma_tolerance)
    assert np.all(np.isfinite(sol.x))
    # along (2, -1) no row changes at all: a Newton step must not move there
    # by rounding noise, which once carried x to 1e17 and lost gamma's digits
    for region in (FeasibleSet.unconstrained(2), FeasibleSet(lower=[-np.inf, -np.inf, 0.0])):
        tilted = MetricRef(id="plane", x_ref=np.ones(region.dim), value=0.7,
                           models=(ConcaveLinear([0.03, 0.06, -0.02][:region.dim]),))
        sol = solve_approx([tilted], region, config)
        assert sol.gamma == 0.0 and np.all(np.abs(sol.x) < 1e3), sol.x
