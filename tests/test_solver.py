"""Solver checks: closed forms, path agreement, stability, grid oracles."""

import json
from pathlib import Path

import numpy as np
import pytest

from caolf.geometry import (
    ClippedBallSet,
    ClippedNormSurrogate,
    Mono,
    Norm,
    Sense,
    clip,
    dykstra,
    norm_value,
)
from caolf.model import (
    ConcaveLinear,
    ConvexQuadratic,
    FeasibleSet,
    LipschitzNorm,
    MetricRef,
)
from caolf.solver import (
    SolveConfig,
    SolveError,
    grid_oracle_caolf,
    grid_oracle_swcm,
    model_entries,
    solve_approx,
    solve_caolf,
    stability_probe,
    verify_competitiveness,
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

    def recording_barrier(clips, caps, certify, start, *rest, **kw):
        starts.append(np.array(start))
        return barrier(clips, caps, certify, start, *rest, **kw)

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
    # the L1/LINF entries were recorded before the epigraph rows and the LP's
    # working columns were rewritten, the approx entries from the barrier
    # solve; a rewrite may not move a single bit, so gamma, the point and the
    # pivot / Newton-step counts must match
    want = json.loads(PINNED_SOLVES.read_text())
    assert [pinned_record(seed) for seed in range(3)] == want["records"]


def test_model_entries_give_the_certificate_solve_approx_reports():
    # `caolf verify` reads each metric's need from these entries
    refs, mixed, region = pinned_instance(0)
    sol = solve_approx(mixed, region, SolveConfig())
    entries = model_entries(mixed, region.dim)
    assert [len(own) for own in entries] == [1, 2, 1, 2, 1]  # the zero gradient has none
    assert max(need(sol.x) for own in entries for _, need in own) == sol.gamma
    # a Lipschitz entry's need is the surrogate's row, bit for bit
    surrogate = ClippedNormSurrogate([refs[i] for i in (0, 1, 3)], Norm.L2)
    for x in np.random.default_rng(3).uniform(0.0, 5.0, (50, region.dim)):
        rows = surrogate.needed(x)
        assert [float(entries[i][0][1](x)).hex() for i in (0, 1, 3)] == [float(v).hex() for v in rows]


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
                         lambda: solve_approx(refs, region, SolveConfig()),
                         lambda: model_entries(refs, region.dim)):
                with pytest.raises(ValueError, match=f"metric 'bad' has dimension {len(x_ref)}"):
                    call()


def _slsqp_gamma(entries, certify, region, start):
    """gamma that scipy's SLSQP reaches over (x, gamma), certified at its point.

    ``entries`` are barrier rows as `model_entries` gives them; clip rows are
    squared, rate^2 ||x - clamp(x)||^2 <= gamma^2, so every row is C^1.
    """
    from scipy.optimize import minimize
    d = region.dim
    cons = []
    for kind, c, v, w in entries:
        if kind == "clip":
            def fun(z, rate=c, lo=v, hi=w):
                h = z[:d] - np.clip(z[:d], lo, hi)
                return z[d] ** 2 - rate ** 2 * float(h @ h)

            def jac(z, rate=c, lo=v, hi=w):
                h = z[:d] - np.clip(z[:d], lo, hi)
                return np.append(-2.0 * rate ** 2 * h, 2.0 * z[d])
        else:
            def fun(z, curv=c, center=v, grad=w):
                u = z[:d] - center
                return z[d] - curv * float(u @ u) - float(grad @ u)

            def jac(z, curv=c, center=v, grad=w):
                return np.append(-(2.0 * curv * (z[:d] - center) + grad), 1.0)
        cons.append({"type": "ineq", "fun": fun, "jac": jac})
    for a, b in region.halfspaces:
        cons.append({"type": "ineq", "fun": lambda z, a=a, b=b: b - float(a @ z[:d]),
                     "jac": lambda z, a=a: np.append(-a, 0.0)})
    bounds = [(lo if np.isfinite(lo) else None, None) for lo in region.lower] + [(0.0, None)]
    x0 = np.maximum(start, region.lower)
    res = minimize(lambda z: z[d], np.append(x0, certify(x0)), jac=lambda z: np.eye(d + 1)[d],
                   bounds=bounds, constraints=cons, method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 1000})
    return certify(np.maximum(res.x[:d], region.lower))


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
        l2 = [r.lipschitz_model(Norm.L2) for r in lipschitz]
        entries = [("clip", m.bound / r.value, r.geometry(m).lo, r.geometry(m).hi)
                   for r, m in zip(lipschitz, l2)]
        surrogate = ClippedNormSurrogate(lipschitz, Norm.L2)
        start = np.mean([r.x_ref for r in lipschitz], axis=0)
        want = _slsqp_gamma(entries, surrogate.certify, region, start)
        got = solve_caolf(lipschitz, region, config).gamma
        assert got <= want + config.gamma_tolerance * max(1.0, want), (got, want)
    for seed in range(3):
        _, mixed, region = pinned_instance(seed)
        own = [e for row in model_entries(mixed, region.dim) for e in row]

        def certify(x):
            return max([0.0] + [need(x) for _, need in own])

        want = _slsqp_gamma([row for row, _ in own], certify, region,
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
