"""Units and property checks for norms, clipping, and projections."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from caolf.geometry import (
    BallSet,
    ClippedBallSet,
    HalfspaceSet,
    LowerBoundSet,
    Mono,
    Norm,
    Sense,
    as_mono_array,
    clip,
    dual_norm_value,
    dykstra,
    harm,
    norm_value,
)
from caolf.model import (
    ClippedNormSurrogate,
    ConcaveLinear,
    ConvexQuadratic,
    LipschitzNorm,
    MetricRef,
)


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


def safe_box(x_ref, mono, sense=Sense.MINIMIZE):
    """The safe box [lo, hi] of a metric at ``x_ref`` with one Lipschitz model."""
    m = LipschitzNorm(1.0, Norm.L2, mono)
    return MetricRef(id="m", x_ref=x_ref, value=1.0, sense=sense, models=(m,)).safe_box(m)


def test_clip_minimize_cases():
    box = safe_box([1.0, 1.0, 1.0], [Mono.INCREASING, Mono.DECREASING, Mono.NON_MONOTONE])
    # moving up hurts increasing coords, moving down hurts decreasing ones,
    # non-monotone coords keep the signed displacement
    np.testing.assert_allclose(clip([3.0, 3.0, 3.0], *box), [2.0, 0.0, 2.0])
    np.testing.assert_allclose(clip([0.5, 0.5, 0.5], *box), [0.0, 0.5, -0.5])
    np.testing.assert_allclose(clip([1.0, 1.0, 1.0], *box), [0.0, 0.0, 0.0])


def test_clip_maximize_swaps_directions():
    b_min = safe_box([1.0, 1.0], [Mono.INCREASING, Mono.DECREASING], Sense.MINIMIZE)
    b_max = safe_box([1.0, 1.0], [Mono.INCREASING, Mono.DECREASING], Sense.MAXIMIZE)
    x = [3.0, 0.5]
    np.testing.assert_allclose(clip(x, *b_min), [2.0, 0.5])
    np.testing.assert_allclose(clip(x, *b_max), [0.0, 0.0])
    np.testing.assert_allclose(clip([0.5, 3.0], *b_max), [0.5, 2.0])


def test_clip_zero_iff_in_safe_region():
    rng = np.random.default_rng(5)
    for _ in range(100):
        box = safe_box(rng.normal(size=3),
                       rng.integers(-1, 2, size=3),
                       Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE)
        x = rng.normal(size=3) * 2
        p = ClippedBallSet(*box, 0.0).project(x)
        assert norm_value(clip(p, *box), Norm.LINF) <= 1e-15
        if norm_value(clip(x, *box), Norm.LINF) == 0.0:
            np.testing.assert_allclose(p, x)


def test_safe_region_projection_is_idempotent_and_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(100):
        box = safe_box(rng.normal(size=4), rng.integers(-1, 2, size=4))
        x = rng.normal(size=4) * 3
        y = rng.normal(size=4) * 3
        safe = ClippedBallSet(*box, 0.0)
        px, py = safe.project(x), safe.project(y)
        np.testing.assert_allclose(safe.project(px), px)
        assert np.all(np.abs(px - py) <= np.abs(x - y) + 1e-15)


def test_clip_norm_is_distance_to_safe_region():
    # ||clip(x)|| == min ||x - y|| over the zero-clip set, by dense grid in 2-D
    box = safe_box([0.5, -0.25], [Mono.INCREASING, Mono.NON_MONOTONE])
    rng = np.random.default_rng(3)
    ax1 = np.linspace(0.5 - 10.0, 0.5, 5001)  # increasing coord: safe at or below ref
    for kind in Norm:
        for _ in range(20):
            x = rng.normal(size=2) * 2
            best = np.inf
            for y1 in ax1:
                cand = norm_value([x[0] - y1, x[1] - (-0.25)], kind)
                best = min(best, cand)
            assert norm_value(clip(x, *box), kind) == pytest.approx(best, abs=3e-3)


def test_clipped_ball_projection_one_dim_frozen():
    # derived by hand: safe set {0}, radius 1, so -3 lands at -1
    ball = ClippedBallSet(*safe_box([0.0], [Mono.NON_MONOTONE]), 1.0)
    np.testing.assert_allclose(ball.project(np.array([-3.0])), [-1.0])
    np.testing.assert_allclose(ball.project(np.array([0.5])), [0.5])


def test_clipped_ball_projection_matches_grid_argmin():
    box = safe_box([1.0, 2.0], [Mono.INCREASING, Mono.NON_MONOTONE])
    x = np.array([3.0, 5.0])
    r = 1.0
    out = ClippedBallSet(*box, r).project(x)
    # frozen closed form: safe point (1, 2), distance sqrt(13)
    expect = np.array([1.0, 2.0]) + (r / np.sqrt(13.0)) * np.array([2.0, 3.0])
    np.testing.assert_allclose(out, expect, atol=1e-12)
    # independent grid argmin over the constraint set
    best, best_d = None, np.inf
    for y1 in np.linspace(-1, 4, 251):
        for y2 in np.linspace(0, 6, 301):
            y = np.array([y1, y2])
            if norm_value(clip(y, *box), Norm.L2) <= r:
                d = norm_value(x - y, Norm.L2)
                if d < best_d:
                    best, best_d = y, d
    np.testing.assert_allclose(out, best, atol=3e-2)


def test_clipped_ball_output_feasible_and_fixed_points():
    rng = np.random.default_rng(19)
    for _ in range(200):
        box = safe_box(rng.normal(size=3), rng.integers(-1, 2, size=3))
        r = float(rng.uniform(0, 2))
        x = rng.normal(size=3) * 4
        out = ClippedBallSet(*box, r).project(x)
        assert norm_value(clip(out, *box), Norm.L2) <= r + 1e-9
        if norm_value(clip(x, *box), Norm.L2) <= r:
            np.testing.assert_allclose(out, x)


def test_halfspace_projection():
    half = HalfspaceSet([1.0, 0.0], 1.0)
    np.testing.assert_allclose(half.project(np.array([2.0, 2.0])), [1.0, 2.0])
    np.testing.assert_allclose(half.project(np.array([0.0, 0.0])), [0.0, 0.0])
    with pytest.raises(ValueError):
        HalfspaceSet([0.0], 1.0)


def test_all_projections_are_nonexpansive():
    rng = np.random.default_rng(31)
    sets = [
        ClippedBallSet(*safe_box([0.3, -0.7], [Mono.DECREASING, Mono.NON_MONOTONE]), 0.8),
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
    sets = [
        ClippedBallSet(*safe_box([0.0, 0.0], [Mono.NON_MONOTONE, Mono.NON_MONOTONE]), 1.0),
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
    # the safe box from the sense-folded monotonicity, the clip as a nested
    # where on x - x_ref, the clipped-ball projection as a move toward the
    # clamp into the safe box, and the halfspace and ball projections in
    # closed form, over every monotonicity pattern in 3-D, both senses,
    # coordinates tied at x_ref and radius 0
    rng = np.random.default_rng(67)
    for mono, sense in itertools.product(itertools.product((-1, 0, 1), repeat=3), Sense):
        x_ref = rng.uniform(-2.0, 2.0, 3)
        box = safe_box(x_ref, list(mono), sense)
        eff = -np.array(mono) if sense == Sense.MAXIMIZE else np.array(mono)
        lo = np.where(eff > 0, -np.inf, x_ref)
        hi = np.where(eff < 0, np.inf, x_ref)
        assert (box[0].tobytes(), box[1].tobytes()) == (lo.tobytes(), hi.tobytes())
        for k in range(40):
            x = rng.uniform(-3.0, 3.0, 3)
            tied = rng.random(3) < 0.3
            x[tied] = x_ref[tied]
            r = 0.0 if k % 4 == 0 else float(rng.uniform(0.0, 2.0))
            d = x - x_ref
            harm = np.where(eff > 0, np.maximum(d, 0.0),
                            np.where(eff < 0, np.maximum(-d, 0.0), d))
            assert clip(x, *box).tobytes() == harm.tobytes()
            gn = norm_value(harm, Norm.L2)
            p = np.minimum(np.maximum(x, lo), hi)
            want = x.copy() if gn <= r else p + (r / gn) * (x - p)
            ball = ClippedBallSet(*box, r)
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
    with pytest.raises(ValueError, match=r"-1, 0 or \+1, got 2"):
        LipschitzNorm(1.0, Norm.L2, [2])
    with pytest.raises(ValueError, match="monotonicity length mismatch"):
        MetricRef(id="m", x_ref=[0.0, 1.0], value=1.0,
                  models=(LipschitzNorm(1.0, Norm.L2, [Mono.INCREASING]),))
    with pytest.raises(ValueError, match="reference point must be finite"):
        MetricRef(id="m", x_ref=[np.inf], value=1.0, models=(LipschitzNorm(1.0, Norm.L2, [0]),))
    # bools are ints to Python and numpy, but not monotonicity tags
    for bools in ([True, False], np.array([True, False]), [np.True_, 0]):
        with pytest.raises(ValueError, match=r"-1, 0 or \+1, got True"):
            LipschitzNorm(1.0, Norm.L2, bools)
    # a fraction is no tag (int() would read 0.5 as 0 and 1.9 as 1); an
    # integral float is
    for fractions in ([0.5, 1.0], [1.9, 0], np.array([-0.7, 1.0])):
        with pytest.raises(ValueError, match=r"-1, 0 or \+1, got (0\.5|1\.9|-0\.7)"):
            LipschitzNorm(1.0, Norm.L2, fractions)
    # nor is an infinity
    for infinite in (np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"-1, 0 or \+1, got -?inf"):
            LipschitzNorm(1.0, "l2", [infinite])
    assert as_mono_array([1.0, -1.0, 0.0]).tolist() == [1, -1, 0]
    # norms and senses may be given by value; anything else raises
    ref = MetricRef(id="m", x_ref=[1.0], value=1.0, sense="max",
                    models=(LipschitzNorm(1.0, "l2", [1]),))
    assert ref.sense is Sense.MAXIMIZE and ref.models[0].norm is Norm.L2
    assert ClippedNormSurrogate([ref], Norm.L2).needed([2.0]).tolist() == [0.0]
    with pytest.raises(ValueError, match="'l7' is not a valid Norm"):
        LipschitzNorm(1.0, "l7", [1])
    with pytest.raises(ValueError, match="'maximize' is not a valid Sense"):
        MetricRef(id="m", x_ref=[1.0], value=1.0, sense="maximize",
                  models=(LipschitzNorm(1.0, Norm.L2, [1]),))
    assert LipschitzNorm(1.0, Norm.L2, ["inc", "dec"]).mono.tolist() == [1, -1]
    lo, hi = safe_box([0.0, 0.0], ["inc", "dec"])
    assert lo.tolist() == [-np.inf, 0.0] and hi.tolist() == [0.0, np.inf]


@pytest.mark.parametrize("scalar, want", [
    (1, [1, 1]), (np.int64(1), [1, 1]), (np.int8(-1), [-1, -1]),
    (Mono.NON_MONOTONE, [0, 0]), ("dec", [-1, -1]), (True, None), (np.True_, None),
])
def test_scalar_monotonicity_broadcasts_like_an_int(scalar, want):
    # a signature has one entry per coordinate, so no scalar, numpy integers
    # and bools included, stands for all of them; spelled out, it is accepted
    with pytest.raises(ValueError, match="one entry per coordinate"):
        as_mono_array(scalar)
    if want is not None:
        assert as_mono_array([scalar] * 2).tolist() == want
    with pytest.raises(ValueError, match="one entry per coordinate"):
        as_mono_array([[scalar] * 2])


def test_validated_arrays_are_read_only_copies():
    # the table builds each safe box from these arrays without checking them
    # again, so nothing may write into them after validation
    capacity = np.array([1.0, 2.0])
    model = LipschitzNorm(1.0, Norm.L2, [1, -1])
    refs = [MetricRef(id=f"m{i}", x_ref=capacity, value=1.0, models=(model,)) for i in range(2)]
    for array in (model.mono, refs[0].x_ref):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert refs[0].x_ref is not capacity and refs[0].x_ref is not refs[1].x_ref
    capacity[0] = 5.0  # the caller's array stays its own, and writeable
    assert refs[0].x_ref.tolist() == [1.0, 2.0]


def test_building_the_table_validates_no_model_again(monkeypatch):
    import caolf.geometry
    import caolf.model

    rng = np.random.default_rng(83)
    refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(-2.0, 2.0, 6), value=1.0,
                      sense=Sense.MAXIMIZE if i % 2 else Sense.MINIMIZE,
                      models=tuple(LipschitzNorm(1.0, norm, rng.integers(-1, 2, 6))
                                   for norm in Norm))
            for i in range(5)]
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return as_mono_array(*args, **kwargs)

    for module in (caolf.geometry, caolf.model):
        monkeypatch.setattr(module, "as_mono_array", spy)
    for norm in Norm:
        assert ClippedNormSurrogate(refs, norm).rate.size == len(refs)
    assert calls == []


def _assert_surrogate_matches_models(surrogate, refs, norm, pts):
    for x in pts:
        want = _model_needs(refs, norm, x)
        assert [v.hex() for v in surrogate.needed(x)] == [w.hex() for w in want]
        assert surrogate.certify(x).hex() == max(want).hex()
        np.testing.assert_allclose(surrogate.on_grid(x[None, :]), [max(want)], rtol=1e-14)
    assert [v.hex() for v in surrogate.on_grid(pts)] == \
        [v.hex() for v in _model_grid(refs, norm, pts)]


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
        _assert_surrogate_matches_models(surrogate, refs, norm, rng.uniform(-3.0, 3.0, (50, 7)))


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


def _model_needs(refs, norm, x) -> list:
    """Each metric's need at ``x``, model by model from the written-out formulas."""
    out = []
    for r in refs:
        need, u = 0.0, x - r.x_ref
        for m in r.models:
            if isinstance(m, LipschitzNorm):
                if m.norm == norm:
                    need = max(need, m.bound / r.value * norm_value(clip(x, *r.safe_box(m)), norm))
            else:
                c = m.curvature if isinstance(m, ConvexQuadratic) else 0.0
                need = max(need, (c * float(np.dot(u, u)) + float(np.dot(m.grad, u))) / r.value)
        out.append(need)
    return out


def _model_grid(refs, norm, pts) -> np.ndarray:
    """The largest need at each row of ``pts``, model by model with array reductions."""
    reduce = {Norm.L1: lambda h: np.sum(np.abs(h), axis=1),
              Norm.L2: lambda h: np.sqrt(np.sum(h * h, axis=1)),
              Norm.LINF: lambda h: np.max(np.abs(h), axis=1)}[norm]
    worst = np.zeros(len(pts))
    for r in refs:
        u = pts - r.x_ref
        for m in r.models:
            if isinstance(m, LipschitzNorm):
                if m.norm == norm:
                    worst = np.maximum(worst, reduce(harm(pts, *r.safe_box(m)))
                                       * (m.bound / r.value))
            else:
                c = m.curvature if isinstance(m, ConvexQuadratic) else 0.0
                worst = np.maximum(worst, (c * np.sum(u * u, axis=1) + u @ m.grad) / r.value)
    return worst


def test_merged_surrogate_certifies_bit_for_bit():
    # grouped references share one clip row at the group's largest rate, yet
    # each metric's need is still its own rate's, model by model
    rng = np.random.default_rng(67)
    for norm in Norm:
        for _ in range(5):
            refs = _grouped_refs(rng, norm)
            surrogate = ClippedNormSurrogate(refs, norm)
            assert len(surrogate.rate) == 4 and len(surrogate.ids) == len(refs)
            _assert_surrogate_matches_models(surrogate, refs, norm,
                                             rng.uniform(-3.0, 3.0, (200, 5)))


def test_merged_keeps_the_largest_rate_first_on_ties_in_order():
    # one clip row per group, at the group's largest rate, in the order of
    # the models that carry it; every model keeps its own rate
    rng = np.random.default_rng(71)
    for norm in Norm:
        refs = _grouped_refs(rng, norm)
        table = ClippedNormSurrogate(refs, norm)
        rates = np.array([r.models[0].bound / r.value for r in refs])
        group = [r.id.split("m")[0] for r in refs]
        keep = {}
        for i, g in enumerate(group):
            if g not in keep or rates[i] > rates[keep[g]]:
                keep[g] = i
        want = sorted(keep.values())
        assert len(want) == 4 and table.ids == tuple(r.id for r in refs)
        np.testing.assert_array_equal(table.rate, rates[want])
        boxes = [refs[i].safe_box(refs[i].models[0]) for i in want]
        np.testing.assert_array_equal(table.lo, [lo for lo, _ in boxes])
        np.testing.assert_array_equal(table.hi, [hi for _, hi in boxes])
        np.testing.assert_array_equal(table.model_rate, rates)
        assert table.model_row.tolist() == [want.index(keep[g]) for g in group]
    # an exact tie goes to the first model, whose place orders the rows
    a, b = [1.0, 2.0], [3.0, 0.0]
    tied = [MetricRef(id=name, x_ref=x, value=2.0, models=(LipschitzNorm(3.0, Norm.L2, [1, -1]),))
            for name, x in (("a0", a), ("b", b), ("a1", a))]
    table = ClippedNormSurrogate(tied, Norm.L2)
    np.testing.assert_array_equal(table.lo, [[-np.inf, 2.0], [-np.inf, 0.0]])
    np.testing.assert_array_equal(table.hi, [[1.0, np.inf], [3.0, np.inf]])
    assert table.rate.tolist() == [1.5, 1.5] and table.model_row.tolist() == [0, 1, 0]


def test_merged_without_duplicates_is_unchanged():
    # without a shared safe box, each model has a row of its own, in order
    rng = np.random.default_rng(73)
    for norm in Norm:
        monos = rng.integers(-1, 2, (6, 4))
        monos[0, 0] = 1
        refs = [MetricRef(id=f"m{i}", x_ref=rng.uniform(-2.0, 2.0, 4), value=1.0,
                          models=(LipschitzNorm(1.0, norm, mono),))
                for i, mono in enumerate(monos)]
        # same point, other effective monotonicity: another box, not a duplicate either
        refs.append(MetricRef(id="twin", x_ref=refs[0].x_ref, value=1.0, sense=Sense.MAXIMIZE,
                              models=(LipschitzNorm(1.0, norm, monos[0]),)))
        table = ClippedNormSurrogate(refs, norm)
        assert table.model_row.tolist() == list(range(len(refs)))
        np.testing.assert_array_equal(table.rate, table.model_rate)
        boxes = [r.safe_box(r.models[0]) for r in refs]
        np.testing.assert_array_equal(table.lo, [lo for lo, _ in boxes])
        np.testing.assert_array_equal(table.hi, [hi for _, hi in boxes])
        # the safe box is the only stored form of a clip row
        assert not hasattr(table, "x_ref") and not hasattr(table, "eff_mono")


def test_merged_keeps_every_cap_row_and_the_metrics_that_own_one():
    # g0m3's clip model shares its group's row and its cap row stays its own;
    # "flat" has no row at all, and every metric keeps its place in ids
    rng = np.random.default_rng(79)
    refs = [replace(r, models=r.models + (ConcaveLinear(rng.normal(size=5)),))
            if r.id == "g0m3" else r for r in _grouped_refs(rng, Norm.L2)]
    refs.append(MetricRef(id="bowl", x_ref=rng.uniform(-2.0, 2.0, 5), value=2.0,
                          models=(ConvexQuadratic(rng.normal(size=5), 0.1),)))
    refs.append(MetricRef(id="flat", x_ref=np.zeros(5), value=1.0,
                          models=(ConcaveLinear(np.zeros(5)),)))
    table = ClippedNormSurrogate(refs, Norm.L2)
    assert table.ids == tuple(r.id for r in refs)
    assert table.rate.size == 4 and table.curvature.tolist() == [0.0, 0.1]
    capped = [refs[i] for i in table.owner[table.model_rate.size:]]
    assert [r.id for r in capped] == ["g0m3", "bowl"]
    np.testing.assert_array_equal(table.center, [r.x_ref for r in capped])
    np.testing.assert_array_equal(table.grad, [r.models[-1].grad for r in capped])
    np.testing.assert_array_equal(table.value, [r.value for r in capped])
    pts = rng.uniform(-3.0, 3.0, (200, 5))
    for x in pts:
        want = _model_needs(refs, Norm.L2, x)
        got = table.needed(x)
        assert [v.hex() for v in got] == [w.hex() for w in want] and got[-1] == 0.0
        assert table.certify(x) == max(want)
    assert [v.hex() for v in table.on_grid(pts)] == \
        [v.hex() for v in _model_grid(refs, Norm.L2, pts)]
