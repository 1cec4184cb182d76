"""Acceptance gate: seven criteria, one test and one pass/fail line each.

Every criterion prints ``[criterion N] PASS`` or ``[criterion N] FAIL`` so the
gate can be read off the run log directly.  Tolerances and runtime budgets are
pinned in the asserts; nothing here is tuned to the implementation.
"""

import itertools
import math
import time

import numpy as np
import pytest

from caolf.bench import ExperimentConfig, format_row, run_sweep
from caolf.geometry import Mono, Norm, Sense, clip, norm_value
from caolf.lp import LpProblem, LpStatus, solve_lp
from caolf.model import FeasibleSet, LipschitzNorm, MetricRef
from caolf.network import (
    METRIC_ROUTING,
    DemandMatrix,
    NetworkInstance,
    algebraic_connectivity,
    max_flow,
    max_flow_lp,
    routing_cost,
    routing_cost_lipschitz,
)
from caolf.solver import (
    SolveConfig,
    grid_oracle_caolf,
    grid_oracle_swcm,
    solve_caolf,
    stability_probe,
    verify_competitiveness,
)


def _line(tag, ok):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'}", flush=True)


def anchor_refs(m1, m2):
    # 1-D pair of anchors: f1 = 1 + m1*|x|, f2 = 1 + m2*|x-1|, both value 1
    return [
        MetricRef(id="left", x_ref=[0.0], value=1.0,
                  models=(LipschitzNorm(m1, Norm.L2, [Mono.NON_MONOTONE]),)),
        MetricRef(id="right", x_ref=[1.0], value=1.0,
                  models=(LipschitzNorm(m2, Norm.L2, [Mono.NON_MONOTONE]),)),
    ]


def lipschitz_evaluators(refs, norm=Norm.L2):
    # exact evaluators whose deviation from the recorded value is the
    # Lipschitz bound times the clipped displacement
    out = []
    for r in refs:
        model = r.lipschitz_model(norm)
        box = r.safe_box(model)
        sgn = 1.0 if r.sense == Sense.MINIMIZE else -1.0

        def f(x, box=box, model=model, r=r, sgn=sgn):
            return r.value + sgn * model.bound * norm_value(clip(x, *box), model.norm)

        out.append((f, r.value, r.sense))
    return out


def random_plane_refs(rng, dim=2):
    refs = []
    for i in range(int(rng.integers(2, 5))):
        refs.append(MetricRef(
            id=f"m{i}", x_ref=rng.uniform(0.0, 1.0, dim),
            value=float(rng.uniform(0.5, 2.0)),
            sense=Sense.MAXIMIZE if rng.random() < 0.3 else Sense.MINIMIZE,
            models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)), Norm.L2,
                                  rng.integers(-1, 2, dim)),)))
    return refs


def test_criterion_1_closed_form_gamma_and_point():
    ok = False
    try:
        started = time.perf_counter()
        for m1, m2 in ((1.0, 1.0), (2.0, 1.0), (10.0, 3.0)):
            sol = solve_caolf(anchor_refs(m1, m2), FeasibleSet.unconstrained(1),
                              SolveConfig())
            want_gamma = m1 * m2 / (m1 + m2)
            assert sol.gamma == pytest.approx(want_gamma, abs=1e-5)
            assert sol.x[0] == pytest.approx(want_gamma / m1, abs=1e-4)
        assert time.perf_counter() - started < 1.0
        ok = True
    finally:
        _line("1 closed-form", ok)


def test_criterion_2_stability_under_scaled_bounds():
    ok = False
    try:
        started = time.perf_counter()
        region = FeasibleSet.unconstrained(1)
        cfg = SolveConfig(gamma_tolerance=1e-9, feasibility_tolerance=1e-11)
        base = solve_caolf(anchor_refs(100.0, 1.0), region, cfg)
        probe = stability_probe(anchor_refs(100.0, 1.0), region, cfg, kappas=[1.0, 2.0])
        assert probe.gamma / base.gamma == pytest.approx(1.01 / 0.51, abs=1e-3)

        rng = np.random.default_rng(2024)
        loop_cfg = SolveConfig(gamma_tolerance=1e-7, feasibility_tolerance=1e-9)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            refs = [MetricRef(id=f"m{i}", x_ref=[float(rng.uniform(-1.0, 2.0))],
                              value=float(rng.uniform(0.5, 2.0)),
                              models=(LipschitzNorm(float(rng.uniform(0.5, 3.0)), Norm.L2,
                                                    [int(rng.integers(-1, 2))]),))
                    for i in range(k)]
            base = solve_caolf(refs, region, loop_cfg)
            kappas = rng.uniform(0.5, 3.0, k)
            moved = stability_probe(refs, region, loop_cfg, kappas=kappas)
            kmax = float(kappas.max())
            for i, (f, value, _) in enumerate(lipschitz_evaluators(refs)):
                drift = abs(f(moved.x) - value)
                assert drift <= (kmax / kappas[i]) * base.gamma * value + 1e-6
        assert time.perf_counter() - started < 10.0
        ok = True
    finally:
        _line("2 stability", ok)


def test_criterion_3_competitiveness_end_to_end():
    ok = False
    try:
        started = time.perf_counter()
        rng = np.random.default_rng(3003)
        region = FeasibleSet.nonnegative(2)
        for _ in range(200):
            refs = random_plane_refs(rng)
            sol = solve_caolf(refs, region, SolveConfig())
            _, passed = verify_competitiveness(sol.x, sol.gamma + 1e-6,
                                               lipschitz_evaluators(refs))
            assert passed
        assert time.perf_counter() - started < 30.0
        ok = True
    finally:
        _line("3 end-to-end", ok)


def test_criterion_4_grid_oracle_equivalence():
    ok = False
    try:
        started = time.perf_counter()
        rng = np.random.default_rng(4004)
        region = FeasibleSet.nonnegative(2, halfspaces=[(np.ones(2), 3.0)])
        box = [(0.0, 3.0), (0.0, 3.0)]
        resolution = 101
        step = 3.0 / (resolution - 1)
        for _ in range(50):
            refs = random_plane_refs(rng)
            max_m = max(r.lipschitz_model(Norm.L2).bound for r in refs)
            min_v = min(r.value for r in refs)
            allowed = 2.0 * step * max_m / min_v
            sol = solve_caolf(refs, region, SolveConfig())
            oracle_gamma, _ = grid_oracle_caolf(refs, region, resolution, box=box)
            assert abs(sol.gamma - oracle_gamma) <= allowed
            swcm_gamma, _ = grid_oracle_swcm(lipschitz_evaluators(refs), region,
                                             resolution, box=box)
            # the surrogate is conservative: never below the true optimum
            assert sol.gamma >= swcm_gamma - allowed
        assert time.perf_counter() - started < 60.0
        ok = True
    finally:
        _line("4 oracle-equivalence", ok)


def min_cut_by_enumeration(net, capacity, source, target):
    nodes = [v for v in range(net.node_count) if v not in (source, target)]
    best = np.inf
    for r in range(len(nodes) + 1):
        for extra in itertools.combinations(nodes, r):
            side = {source, *extra}
            cut = sum(capacity[e] for e, (u, v) in enumerate(net.edges)
                      if u in side and v not in side)
            best = min(best, cut)
    return best


def random_small_net(rng, node_count, edge_count):
    perm = rng.permutation(node_count)
    edges = [(int(perm[i]), int(perm[(i + 1) % node_count])) for i in range(node_count)]
    seen = set(edges)
    while len(edges) < edge_count:
        u, v = int(rng.integers(node_count)), int(rng.integers(node_count))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
    return NetworkInstance(node_count=node_count, edges=tuple(edges),
                           flow_cost=np.ones(len(edges)),
                           base_capacity=np.ones(len(edges)))


def test_criterion_5_metric_unit_suite():
    ok = False
    try:
        started = time.perf_counter()
        # connectivity units
        for n in (3, 4, 5):
            w = np.ones((n, n)) - np.eye(n)
            assert algebraic_connectivity(w) == pytest.approx(float(n), abs=1e-8)
        path3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert algebraic_connectivity(path3) == pytest.approx(1.0, abs=1e-8)
        for w in (0.25, 1.0, 4.0):
            assert algebraic_connectivity(np.array([[0.0, w], [w, 0.0]])) == \
                pytest.approx(2.0 * w, abs=1e-8)

        # max flow equals min cut on small graphs
        rng = np.random.default_rng(5005)
        for _ in range(25):
            k = int(rng.integers(4, 7))
            net = random_small_net(rng, k, int(rng.integers(k, 2 * k)))
            cap = rng.integers(0, 6, net.edge_count).astype(float)
            flow = max_flow(net, cap, 0, k - 1)
            assert flow == pytest.approx(min_cut_by_enumeration(net, cap, 0, k - 1),
                                         abs=1e-9)

        # routing-with-rental worked example
        two_edge = NetworkInstance(node_count=2, edges=((0, 1), (0, 1)),
                                   flow_cost=[1.0, 5.0], base_capacity=[1.0, 10.0],
                                   price_in=[2.0, 2.0])
        value = routing_cost(two_edge, DemandMatrix(2, ((0, 1, 3.0),)), [1.0, 10.0])
        assert value == pytest.approx(7.0, abs=1e-9)

        # sensitivity probe never beats the dual-norm bound
        for _ in range(5):
            net = random_small_net(rng, 4, 7)
            net = NetworkInstance(node_count=4, edges=net.edges,
                                  flow_cost=rng.uniform(1.0, 4.0, net.edge_count),
                                  base_capacity=net.base_capacity,
                                  price_in=rng.uniform(1.0, 4.0, net.edge_count))
            demand = DemandMatrix(4, ((0, 3, 2.0),))
            cap = rng.uniform(0.5, 3.0, net.edge_count)
            base_cost = routing_cost(net, demand, cap)
            for norm, order in ((Norm.L1, 1), (Norm.L2, 2), (Norm.LINF, np.inf)):
                bound = routing_cost_lipschitz(net, norm)
                moved = np.maximum(cap + rng.uniform(-0.3, 0.3, net.edge_count), 0.0)
                diff = abs(routing_cost(net, demand, moved) - base_cost)
                assert diff <= bound * np.linalg.norm(moved - cap, ord=order) + 1e-7
        assert time.perf_counter() - started < 30.0
        ok = True
    finally:
        _line("5 metric-units", ok)


def test_criterion_6_desk_scale_sweep():
    ok = False
    try:
        cfg = ExperimentConfig()
        started = time.perf_counter()
        rows = run_sweep(cfg)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        assert all(math.isfinite(r.gamma) for r in rows)

        # gamma never grows with budget, per norm
        per_norm_gamma = {}
        for r in rows:
            per_norm_gamma.setdefault(r.norm, {})[r.budget_mult] = r.gamma
        for norm, series in per_norm_gamma.items():
            gammas = [series[m] for m in cfg.budget_multipliers]
            for a, b in zip(gammas, gammas[1:]):
                assert b <= a + 1e-5, norm

        # every row satisfies its own competitiveness envelope
        for r in rows:
            if r.metric_id.startswith(METRIC_ROUTING):
                assert r.ratio <= 1.0 + r.gamma + 1e-6
            else:
                assert r.ratio >= 1.0 - r.gamma - 1e-6

        # identical seed, identical CSV bytes
        again = run_sweep(cfg)
        first = [format_row(r, include_timing=False) for r in rows]
        second = [format_row(r, include_timing=False) for r in again]
        assert first == second
        ok = True
    finally:
        _line("6 desk-scale-sweep", ok)


def test_criterion_7_lp_kernel_and_linf_path():
    ok = False
    try:
        # status triple
        sol = solve_lp(LpProblem(c=[1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0]))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        infeasible = solve_lp(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
        assert infeasible.status == LpStatus.INFEASIBLE
        unbounded = solve_lp(LpProblem(c=[-1.0], a_ub=np.zeros((0, 1)), b_ub=[]))
        assert unbounded.status == LpStatus.UNBOUNDED

        # simplex agrees with the combinatorial max flow on integral data
        rng = np.random.default_rng(7007)
        for _ in range(20):
            k = int(rng.integers(4, 8))
            net = random_small_net(rng, k, int(rng.integers(k, 2 * k + 2)))
            cap = rng.integers(0, 8, net.edge_count).astype(float)
            assert max_flow(net, cap, 0, k - 1) == pytest.approx(
                max_flow_lp(net, cap, 0, k - 1), abs=1e-9)

        # the epigraph LP route reproduces the closed form
        for m1, m2 in ((1.0, 1.0), (2.0, 1.0), (10.0, 3.0)):
            refs = [
                MetricRef(id="left", x_ref=[0.0], value=1.0,
                          models=(LipschitzNorm(m1, Norm.LINF, [Mono.NON_MONOTONE]),)),
                MetricRef(id="right", x_ref=[1.0], value=1.0,
                          models=(LipschitzNorm(m2, Norm.LINF, [Mono.NON_MONOTONE]),)),
            ]
            sol = solve_caolf(refs, FeasibleSet.unconstrained(1),
                              SolveConfig(norm=Norm.LINF))
            assert sol.gamma == pytest.approx(m1 * m2 / (m1 + m2), abs=1e-5)
        ok = True
    finally:
        _line("7 lp-kernel", ok)
