"""Units and property checks for norms, clipping, and projections."""

import itertools

import numpy as np
import pytest

from caolf.geometry import (
    BallSet,
    ClippedBallSet,
    ClippedNormSurrogate,
    HalfspaceSet,
    LowerBoundSet,
    Mono,
    Norm,
    RefGeometry,
    Sense,
    clip,
    dual_norm_value,
    dykstra,
    norm_value,
)
from caolf.model import LipschitzNorm, MetricRef


def test_norm_values_on_fixed_vector():
    v = [3.0, -4.0, 0.0]
    assert norm_value(v, Norm.L1) == 7.0
    assert norm_value(v, Norm.L2) == 5.0
    assert norm_value(v, Norm.LINF) == 4.0


def test_dual_norm_pairing():
    v = [3.0, -4.0, 0.0]
    assert dual_norm_value(v, Norm.L1) == norm_value(v, Norm.LINF)
    assert dual_norm_value(v, Norm.LINF) == norm_value(v, Norm.L1)
    assert dual_norm_value(v, Norm.L2) == norm_value(v, Norm.L2)


def test_norms_are_coordinate_monotone():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.normal(size=4) * 3
        shrink = rng.uniform(0, 1, 4)
        u = w * shrink
        for kind in Norm:
            assert norm_value(u, kind) <= norm_value(w, kind) + 1e-12


def test_clip_minimize_cases():
    geom = RefGeometry([1.0, 1.0, 1.0], [Mono.INCREASING, Mono.DECREASING, Mono.NON_MONOTONE])
    # moving up hurts increasing coords, moving down hurts decreasing ones,
    # non-monotone coords keep the signed displacement
    np.testing.assert_allclose(clip([3.0, 3.0, 3.0], geom), [2.0, 0.0, 2.0])
    np.testing.assert_allclose(clip([0.5, 0.5, 0.5], geom), [0.0, 0.5, -0.5])
    np.testing.assert_allclose(clip([1.0, 1.0, 1.0], geom), [0.0, 0.0, 0.0])


def test_clip_maximize_swaps_directions():
    g_min = RefGeometry([1.0, 1.0], [Mono.INCREASING, Mono.DECREASING], Sense.MINIMIZE)
    g_max = RefGeometry([1.0, 1.0], [Mono.INCREASING, Mono.DECREASING], Sense.MAXIMIZE)
    x = [3.0, 0.5]
    np.testing.assert_allclose(clip(x, g_min), [2.0, 0.5])
    np.testing.assert_allclose(clip(x, g_max), [0.0, 0.0])
    np.testing.assert_allclose(clip([0.5, 3.0], g_max), [0.5, 2.0])


def test_clip_zero_iff_in_safe_region():
    rng = np.random.default_rng(5)
    for _ in range(100):
        geom = RefGeometry(rng.normal(size=3),
                           rng.integers(-1, 2, size=3),
                           Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE)
        x = rng.normal(size=3) * 2
        p = ClippedBallSet(geom, 0.0).project(x)
        assert norm_value(clip(p, geom), Norm.LINF) <= 1e-15
        if norm_value(clip(x, geom), Norm.LINF) == 0.0:
            np.testing.assert_allclose(p, x)


def test_safe_region_projection_is_idempotent_and_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(100):
        geom = RefGeometry(rng.normal(size=4), rng.integers(-1, 2, size=4))
        x = rng.normal(size=4) * 3
        y = rng.normal(size=4) * 3
        safe = ClippedBallSet(geom, 0.0)
        px, py = safe.project(x), safe.project(y)
        np.testing.assert_allclose(safe.project(px), px)
        assert np.all(np.abs(px - py) <= np.abs(x - y) + 1e-15)


def test_clip_norm_is_distance_to_safe_region():
    # ||clip(x)|| == min ||x - y|| over the zero-clip set, by dense grid in 2-D
    geom = RefGeometry([0.5, -0.25], [Mono.INCREASING, Mono.NON_MONOTONE])
    rng = np.random.default_rng(3)
    ax1 = np.linspace(0.5 - 10.0, 0.5, 5001)  # increasing coord: safe at or below ref
    for kind in Norm:
        for _ in range(20):
            x = rng.normal(size=2) * 2
            best = np.inf
            for y1 in ax1:
                cand = norm_value([x[0] - y1, x[1] - (-0.25)], kind)
                best = min(best, cand)
            assert norm_value(clip(x, geom), kind) == pytest.approx(best, abs=3e-3)


def test_clipped_ball_projection_one_dim_frozen():
    # derived by hand: safe set {0}, radius 1, so -3 lands at -1
    geom = RefGeometry([0.0], [Mono.NON_MONOTONE])
    ball = ClippedBallSet(geom, 1.0)
    np.testing.assert_allclose(ball.project(np.array([-3.0])), [-1.0])
    np.testing.assert_allclose(ball.project(np.array([0.5])), [0.5])


def test_clipped_ball_projection_matches_grid_argmin():
    geom = RefGeometry([1.0, 2.0], [Mono.INCREASING, Mono.NON_MONOTONE])
    x = np.array([3.0, 5.0])
    r = 1.0
    out = ClippedBallSet(geom, r).project(x)
    # frozen closed form: safe point (1, 2), distance sqrt(13)
    expect = np.array([1.0, 2.0]) + (r / np.sqrt(13.0)) * np.array([2.0, 3.0])
    np.testing.assert_allclose(out, expect, atol=1e-12)
    # independent grid argmin over the constraint set
    best, best_d = None, np.inf
    for y1 in np.linspace(-1, 4, 251):
        for y2 in np.linspace(0, 6, 301):
            y = np.array([y1, y2])
            if norm_value(clip(y, geom), Norm.L2) <= r:
                d = norm_value(x - y, Norm.L2)
                if d < best_d:
                    best, best_d = y, d
    np.testing.assert_allclose(out, best, atol=3e-2)


def test_clipped_ball_output_feasible_and_fixed_points():
    rng = np.random.default_rng(19)
    for _ in range(200):
        geom = RefGeometry(rng.normal(size=3), rng.integers(-1, 2, size=3))
        r = float(rng.uniform(0, 2))
        x = rng.normal(size=3) * 4
        out = ClippedBallSet(geom, r).project(x)
        assert norm_value(clip(out, geom), Norm.L2) <= r + 1e-9
        if norm_value(clip(x, geom), Norm.L2) <= r:
            np.testing.assert_allclose(out, x)


def test_halfspace_projection():
    half = HalfspaceSet([1.0, 0.0], 1.0)
    np.testing.assert_allclose(half.project(np.array([2.0, 2.0])), [1.0, 2.0])
    np.testing.assert_allclose(half.project(np.array([0.0, 0.0])), [0.0, 0.0])
    with pytest.raises(ValueError):
        HalfspaceSet([0.0], 1.0)


def test_all_projections_are_nonexpansive():
    rng = np.random.default_rng(31)
    geom = RefGeometry([0.3, -0.7], [Mono.DECREASING, Mono.NON_MONOTONE])
    sets = [
        ClippedBallSet(geom, 0.8),
        HalfspaceSet([1.0, 2.0], 0.5),
        LowerBoundSet([0.0, -np.inf]),
        BallSet([1.0, 1.0], 1.5),
    ]
    for s in sets:
        for _ in range(100):
            x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
            px, py = s.project(x), s.project(y)
            assert norm_value(px - py, Norm.L2) <= norm_value(x - y, Norm.L2) + 1e-12


def test_violation_is_euclidean_distance():
    rng = np.random.default_rng(37)
    geom = RefGeometry([0.0, 0.0], [Mono.NON_MONOTONE, Mono.NON_MONOTONE])
    sets = [
        ClippedBallSet(geom, 1.0),
        HalfspaceSet([0.0, 1.0], 0.0),
        LowerBoundSet([1.0, 2.0]),
        BallSet([0.0, 0.0], 2.0),
    ]
    for s in sets:
        for _ in range(50):
            x = rng.normal(size=2) * 4
            assert s.violation(x) == pytest.approx(
                norm_value(x - s.project(x), Norm.L2), abs=1e-9)


def test_projections_match_the_written_out_formulas_bit_for_bit():
    # the clip as a nested where on x - x_ref, the clipped-ball projection as a
    # move toward the clamp into the safe box, and the halfspace and ball
    # projections in closed form, over every monotonicity pattern in 3-D, both
    # senses, coordinates tied at x_ref and radius 0
    rng = np.random.default_rng(67)
    for mono, sense in itertools.product(itertools.product((-1, 0, 1), repeat=3), Sense):
        geom = RefGeometry(rng.uniform(-2.0, 2.0, 3), list(mono), sense)
        eff = geom.eff_mono
        lo = np.where(eff > 0, -np.inf, geom.x_ref)
        hi = np.where(eff < 0, np.inf, geom.x_ref)
        for k in range(40):
            x = rng.uniform(-3.0, 3.0, 3)
            tied = rng.random(3) < 0.3
            x[tied] = geom.x_ref[tied]
            r = 0.0 if k % 4 == 0 else float(rng.uniform(0.0, 2.0))
            d = x - geom.x_ref
            harm = np.where(eff > 0, np.maximum(d, 0.0),
                            np.where(eff < 0, np.maximum(-d, 0.0), d))
            assert clip(x, geom).tobytes() == harm.tobytes()
            gn = norm_value(harm, Norm.L2)
            p = np.minimum(np.maximum(x, lo), hi)
            want = x.copy() if gn <= r else p + (r / gn) * (x - p)
            ball = ClippedBallSet(geom, r)
            assert ball.project(x).tobytes() == want.tobytes()
            assert ball.violation(x) == max(0.0, gn - r)

            a, b = rng.normal(size=3), float(rng.normal())
            excess = float(np.dot(a, x)) - b
            want = x.copy() if excess <= 0.0 else x - (excess / float(np.dot(a, a))) * a
            assert HalfspaceSet(a, b).project(x).tobytes() == want.tobytes()

            center = rng.normal(size=3)
            dn = norm_value(x - center, Norm.L2)
            want = x.copy() if dn <= r else center + (r / dn) * (x - center)
            assert BallSet(center, r).project(x).tobytes() == want.tobytes()


def test_dykstra_disjoint_balls_reports_gap():
    sets = [BallSet([0.0, 0.0], 0.9), BallSet([2.0, 0.0], 0.9)]
    run = dykstra(sets, [1.0, 0.0], tol=1e-7, max_iters=3000)
    assert not run.converged
    # the centers are 2 apart and radii sum to 1.8, so the gap is 0.2
    assert run.residual >= 0.2 * (1 - 1e-7)
    assert run.residual == pytest.approx(0.2, abs=1e-3)


def test_dykstra_tangent_balls_meet_at_the_touch_point():
    sets = [BallSet([0.0, 0.0], 1.0), BallSet([2.0, 0.0], 1.0)]
    run = dykstra(sets, [1.0, 0.0], tol=1e-7, max_iters=3000)
    assert run.converged
    np.testing.assert_allclose(run.x, [1.0, 0.0], atol=1e-6)
    assert run.iterations == 0  # the start already lies in both


def test_dykstra_ball_and_halfspace():
    sets = [BallSet([0.0, 0.0], 1.0), HalfspaceSet([1.0, 0.0], 0.0)]
    run = dykstra(sets, [3.0, 3.0], tol=1e-9, max_iters=3000)
    assert run.converged
    assert sets[0].violation(run.x) <= 1e-9
    assert sets[1].violation(run.x) <= 1e-9


def test_dykstra_projects_rather_than_just_reaches():
    # with correction increments the limit is the projection of the start
    sets = [HalfspaceSet([1.0, 0.0], 0.0), HalfspaceSet([0.0, 1.0], 0.0)]
    start = np.array([2.0, 3.0])
    run = dykstra(sets, start, tol=1e-10, max_iters=3000)
    assert run.converged
    np.testing.assert_allclose(run.x, [0.0, 0.0], atol=1e-8)


def test_dykstra_no_sets_returns_start():
    run = dykstra([], [1.5, 2.5], tol=1e-9)
    assert run.converged
    np.testing.assert_allclose(run.x, [1.5, 2.5])


def test_mono_spec_validation():
    with pytest.raises(ValueError):
        RefGeometry([0.0], [2])
    with pytest.raises(ValueError):
        RefGeometry([0.0, 1.0], [Mono.INCREASING])
    with pytest.raises(ValueError):
        RefGeometry([np.inf], [0])
    geom = RefGeometry([0.0, 0.0], ["inc", "dec"])
    assert list(geom.mono) == [1, -1]


def test_surrogate_needed_matches_clip_bit_for_bit():
    rng = np.random.default_rng(61)
    for norm in Norm:
        refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(-2.0, 2.0, 7),
                          value=float(rng.uniform(0.5, 3.0)),
                          sense=Sense.MINIMIZE if i % 2 == 0 else Sense.MAXIMIZE,
                          models=(LipschitzNorm(float(rng.uniform(0.5, 2.0)), norm,
                                                rng.integers(-1, 2, 7)),))
                for i in range(6)]
        assert any(0 in r.models[0].mono for r in refs)
        surrogate = ClippedNormSurrogate(refs, norm)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, 7)
            want = [r.models[0].bound / r.value
                    * norm_value(clip(x, r.geometry(r.models[0])), norm) for r in refs]
            got = surrogate.needed(x)
            assert [v.hex() for v in got] == [w.hex() for w in want]
            assert surrogate.certify(x) == max(want)
            np.testing.assert_allclose(surrogate.on_grid(x[None, :]), [max(want)], rtol=1e-14)


def test_surrogate_point_shape_and_empty_guards():
    ref = MetricRef(id="m", x_ref=[1.0, 2.0], value=2.0,
                    models=(LipschitzNorm(3.0, Norm.L2, [1, 0]),))
    with pytest.raises(ValueError):
        ClippedNormSurrogate([ref], Norm.L2).needed([1.0])
    with pytest.raises(ValueError):
        ClippedNormSurrogate([], Norm.L2)


def _grouped_refs(rng, norm, dim=5, groups=4, per_group=4):
    """References in groups that share x_ref and effective monotonicity.

    Odd members reach the group's effective monotonicity through the opposite
    sense and the flipped signature.  Every group has a rate tie between
    members 1 and 3, which is the largest rate in the even groups.
    """
    refs = []
    for g in range(groups):
        x_ref = rng.uniform(-2.0, 2.0, dim)
        eff = rng.integers(-1, 2, dim)
        bounds = rng.uniform(0.5, 2.0, per_group)
        if g % 2 == 0:
            bounds[1] = bounds.max()
        bounds[3] = bounds[1]
        for k in range(per_group):
            flip = k % 2 == 1
            refs.append(MetricRef(id=f"g{g}m{k}", x_ref=x_ref.copy(), value=1.5,
                                  sense=Sense.MAXIMIZE if flip else Sense.MINIMIZE,
                                  models=(LipschitzNorm(float(bounds[k]), norm,
                                                        -eff if flip else eff),)))
    order = rng.permutation(len(refs))
    return [refs[i] for i in order]


def test_merged_surrogate_certifies_bit_for_bit():
    rng = np.random.default_rng(67)
    for norm in Norm:
        for _ in range(5):
            refs = _grouped_refs(rng, norm)
            full = ClippedNormSurrogate(refs, norm)
            merged = full.merged()
            assert len(merged.ids) == 4
            pts = rng.uniform(-3.0, 3.0, (200, 5))
            for x in pts:
                assert merged.certify(x).hex() == full.certify(x).hex()
            assert [v.hex() for v in merged.on_grid(pts)] == \
                [v.hex() for v in full.on_grid(pts)]


def test_merged_keeps_the_largest_rate_first_on_ties_in_order():
    rng = np.random.default_rng(71)
    for norm in Norm:
        refs = _grouped_refs(rng, norm)
        full = ClippedNormSurrogate(refs, norm)
        keep = {}
        for i, r in enumerate(refs):
            group = r.id.split("m")[0]
            if group not in keep or full.rate[i] > full.rate[keep[group]]:
                keep[group] = i
        want = sorted(keep.values())
        merged = full.merged()
        assert merged.ids == tuple(full.ids[i] for i in want)
        np.testing.assert_array_equal(merged.rate, full.rate[want])
        np.testing.assert_array_equal(merged.x_ref, full.x_ref[want])
        assert merged.geoms == tuple(full.geoms[i] for i in want)
    # an exact tie keeps the first of the two
    tied = [MetricRef(id=name, x_ref=[1.0, 2.0], value=2.0,
                      models=(LipschitzNorm(3.0, Norm.L2, [1, -1]),)) for name in "ab"]
    assert ClippedNormSurrogate(tied, Norm.L2).merged().ids == ("a",)


def test_merged_without_duplicates_is_unchanged():
    rng = np.random.default_rng(73)
    for norm in Norm:
        monos = rng.integers(-1, 2, (6, 4))
        monos[0, 0] = 1
        refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(-2.0, 2.0, 4), value=1.0,
                          models=(LipschitzNorm(1.0, norm, mono),))
                for i, mono in enumerate(monos)]
        # same point, other effective monotonicity: not a duplicate either
        refs.append(MetricRef(id="twin", x_ref=refs[0].x_ref, value=1.0, sense=Sense.MAXIMIZE,
                              models=(LipschitzNorm(1.0, norm, monos[0]),)))
        full = ClippedNormSurrogate(refs, norm)
        merged = full.merged()
        assert merged.ids == full.ids
        for name in ("x_ref", "eff_mono", "lo", "hi", "rate"):
            np.testing.assert_array_equal(getattr(merged, name), getattr(full, name))
