"""Generator, sweep, and file-format checks for the benchmark harness."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import caolf
from caolf import bench, geometry, network, solver

from caolf.bench import (
    CSV_HEADER,
    ExperimentConfig,
    SweepRow,
    build_experiment,
    emit_csv,
    format_row,
    generate_costs,
    load_demands,
    load_network,
    reference_budget,
    run_sweep,
    save_demands,
    save_network,
    select_flow_pairs,
    sparsify,
)
from caolf.geometry import Norm
from caolf.model import FeasibleSet, LipschitzNorm, MetricRef
from caolf.network import METRIC_ROUTING, DemandMatrix, NetworkInstance


def tiny_config(**overrides):
    base = dict(node_count=4, edge_count=7, scenario_count=2, demand_pairs=5,
                budget_multipliers=(0.5, 1.2), norms=(Norm.L2,), seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# generators


def test_generate_costs_ranges_and_rental_markup():
    rng = np.random.default_rng(2)
    flow_cost = rng.uniform(1.0, 10.0, 200)
    pre, rent = generate_costs(flow_cost, 10.0, rng)
    base = 10.0 / np.sqrt(flow_cost)
    assert np.all(pre >= base * 9.0 - 1e-9) and np.all(pre <= base * 11.0 + 1e-9)
    markup = rent / pre
    assert np.all(markup >= 1.05 - 1e-12) and np.all(markup <= 1.15 + 1e-12)


def test_generate_costs_rejects_bad_input():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        generate_costs([0.0, 1.0], 10.0, rng)
    with pytest.raises(ValueError):
        generate_costs([1.0], -1.0, rng)


def test_sparsify_keeps_expected_share():
    rng = np.random.default_rng(5)
    triples = tuple((s, t, 1.0) for s in range(20) for t in range(20) if s != t)[:200]
    demand = DemandMatrix(20, triples)
    kept = sparsify(demand, 0.4, rng)
    assert 90 <= len(kept) <= 150
    assert set(kept.triples) <= set(triples)


def test_sparsify_edge_probabilities():
    rng = np.random.default_rng(5)
    demand = DemandMatrix(3, ((0, 1, 1.0), (1, 2, 2.0)))
    assert len(sparsify(demand, 0.0, rng)) == 2
    assert len(sparsify(demand, 1.0, rng)) == 0
    with pytest.raises(ValueError):
        sparsify(demand, 1.5, rng)


def test_select_flow_pairs_counts_and_ties():
    demand = DemandMatrix(5, ((0, 1, 3.0), (2, 3, 5.0), (1, 4, 5.0), (3, 0, 1.0)))
    # ceil(0.05 * 4) = 1; the largest amount wins, ties by node ids
    assert select_flow_pairs(demand, 0.05) == [(1, 4)]
    assert select_flow_pairs(demand, 0.75) == [(1, 4), (2, 3), (0, 1)]
    assert select_flow_pairs(demand, 1.0) == [(1, 4), (2, 3), (0, 1), (3, 0)]
    with pytest.raises(ValueError):
        select_flow_pairs(DemandMatrix(3, ()), 0.5)


# ---------------------------------------------------------------------------
# experiment assembly


def test_build_experiment_is_deterministic():
    a_net, a_dem, a_hist = build_experiment(tiny_config())
    b_net, b_dem, b_hist = build_experiment(tiny_config())
    assert a_net.edges == b_net.edges
    np.testing.assert_array_equal(a_net.flow_cost, b_net.flow_cost)
    np.testing.assert_array_equal(a_net.price_pre, b_net.price_pre)
    assert a_dem.triples == b_dem.triples
    assert len(a_hist) == len(b_hist)
    for sa, sb in zip(a_hist, b_hist):
        np.testing.assert_array_equal(sa.capacity, sb.capacity)
        assert sa.values == sb.values


def test_build_experiment_seed_changes_the_draw():
    a_net, _, _ = build_experiment(tiny_config(seed=7))
    b_net, _, _ = build_experiment(tiny_config(seed=8))
    assert a_net.edges != b_net.edges or not np.array_equal(a_net.flow_cost, b_net.flow_cost)


def test_build_experiment_topology_strongly_connected():
    net, _, _ = build_experiment(tiny_config())
    # the spanning cycle guarantees everyone reaches everyone
    reach = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in net.edges:
            if a == u and b not in reach:
                reach.add(b)
                frontier.append(b)
    assert reach == set(range(net.node_count))


def test_build_experiment_scenarios_jitter_and_demand():
    cfg = tiny_config()
    net, base_demand, history = build_experiment(cfg)
    assert len(history) == cfg.scenario_count
    for sc in history:
        ratio = sc.capacity / net.base_capacity
        assert np.all(ratio >= bench.JITTER_RANGE[0] - 1e-12)
        assert np.all(ratio <= bench.JITTER_RANGE[1] + 1e-12)
        assert len(sc.demand) >= 1
        assert set(sc.demand.triples) <= set(base_demand.triples)
        assert sc.values  # every scenario carries realized metrics


def test_default_experiment_draws_are_pinned():
    # the random draws of build_experiment(ExperimentConfig()), recorded once:
    # a change to the generator settings or the draw order shows up here
    path = Path(__file__).resolve().parent / "data" / "default_experiment_draws.json"
    want = json.loads(path.read_text())
    net, _, history = build_experiment(ExperimentConfig())
    assert net.edges == tuple(tuple(e) for e in want["edges"])
    for name in ("base_capacity", "price_pre", "price_in"):
        np.testing.assert_allclose(getattr(net, name), want[name], rtol=1e-12, atol=0)
    assert len(history) == len(want["scenarios"])
    for sc, pinned in zip(history, want["scenarios"]):
        np.testing.assert_allclose(sc.capacity, pinned["capacity"], rtol=1e-12, atol=0)
        assert [(s, t) for s, t, _ in sc.demand.triples] == \
            [(s, t) for s, t, _ in pinned["demand"]]
        np.testing.assert_allclose([a for _, _, a in sc.demand.triples],
                                   [a for _, _, a in pinned["demand"]], rtol=1e-12, atol=0)


def test_warm_routing_equals_cold_routing_cost(monkeypatch):
    # every scenario's routing evaluator re-solves from the scenario's own
    # basis; its values must equal the cold routing_cost and must not depend
    # on the order in which capacities are evaluated
    net, _, history = build_experiment(ExperimentConfig())
    rng = np.random.default_rng(2027)
    solve_lp = network.solve_lp
    starts, pivots = [], []

    def recording(problem, max_iters=None, start=None):
        sol = solve_lp(problem, max_iters, start)
        starts.append(start)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(network, "solve_lp", recording)
    warm_pivots = cold_pivots = 0
    for sc in history:
        assert sc.routing_basis is not None
        evaluate = network.scenario_evaluator(net, sc, METRIC_ROUTING)
        capacities = [sc.capacity, np.zeros(net.edge_count), 100.0 * sc.capacity]
        capacities += [sc.capacity * scale * rng.uniform(0.9, 1.1, net.edge_count)
                       for scale in (0.5, 0.75, 1.0, 1.25, 1.5)]
        starts.clear()
        pivots.clear()
        forward = [evaluate(b) for b in capacities]
        assert all(start is sc.routing_basis for start in starts)
        warm_pivots += sum(pivots)
        backward = [evaluate(b) for b in reversed(capacities)][::-1]
        assert [v.hex() for v in forward] == [v.hex() for v in backward]
        pivots.clear()
        for b, value in zip(capacities, forward):
            cold = network.routing_cost(net, sc.demand, b)
            assert abs(value - cold) <= 1e-9 * max(1.0, abs(cold)), (value, cold)
        assert starts[-1] is None
        cold_pivots += sum(pivots)
    assert warm_pivots < cold_pivots / 4


def test_reference_budget_matches_manual_mean():
    net, _, history = build_experiment(tiny_config())
    want = np.mean([float(net.price_pre @ sc.capacity) for sc in history])
    assert reference_budget(net, history) == pytest.approx(want)


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        tiny_config(edge_count=3)  # fewer edges than nodes
    with pytest.raises(ValueError):
        tiny_config(budget_multipliers=(1.0, 0.5))
    with pytest.raises(ValueError):
        tiny_config(budget_multipliers=())
    with pytest.raises(ValueError):
        tiny_config(scenario_count=0)
    with pytest.raises(ValueError):
        tiny_config(demand_pairs=0)
    for mults in ((np.nan,), (np.inf,), (0.5, np.nan, 0.2)):
        with pytest.raises(ValueError, match="positive and finite"):
            tiny_config(budget_multipliers=mults)


# ---------------------------------------------------------------------------
# sweep


def test_run_sweep_rows_shape_and_determinism():
    cfg = tiny_config()
    rows = run_sweep(cfg)
    per_cell = {(r.budget_mult, r.norm.value) for r in rows}
    assert per_cell == {(m, n.value) for m in cfg.budget_multipliers for n in cfg.norms}
    assert all(math.isfinite(r.gamma) for r in rows)
    again = run_sweep(cfg)
    assert [format_row(r, include_timing=False) for r in rows] == \
        [format_row(r, include_timing=False) for r in again]


def test_three_norm_sweep_matches_its_recording():
    # gamma and ratio of run_sweep in all three norms, recorded from a solver
    # with one constraint per metric; each scenario here has 3 metrics at one
    # reference point, which the solver merges into one constraint.  The LP
    # norms must not move; an L2 gamma may only move within the tolerance.
    path = Path(__file__).resolve().parent / "data" / "tiny_sweep_three_norms.json"
    want = json.loads(path.read_text())["rows"]
    cfg = tiny_config(norms=(Norm.L1, Norm.L2, Norm.LINF))
    rows = run_sweep(cfg)
    assert [(r.budget_mult, r.norm.value, r.metric_id) for r in rows] == \
        [(w["budget_mult"], w["norm"], w["metric_id"]) for w in want]
    for r, w in zip(rows, want):
        if r.norm == Norm.L2:
            assert r.gamma <= w["gamma"] + cfg.gamma_tolerance, (r, w)
            continue
        for name in ("gamma", "ratio"):
            got, pinned = getattr(r, name), w[name]
            assert abs(got - pinned) <= 1e-12 * max(1.0, abs(pinned)), (name, r, w)


def test_run_sweep_gamma_shrinks_with_budget():
    cfg = tiny_config()
    rows = run_sweep(cfg)
    by_mult = {}
    for r in rows:
        by_mult.setdefault(r.budget_mult, set()).add(r.gamma)
    gammas = [by_mult[m].pop() for m in cfg.budget_multipliers]
    assert gammas[1] <= gammas[0] + 1e-5


def test_run_sweep_rows_meet_their_envelope():
    # every cell solves, and each realized metric keeps to its cell's gamma:
    # routing cost at most (1 + gamma) times the recorded value, the maximized
    # metrics at least (1 - gamma) times theirs
    rows = run_sweep(tiny_config())
    assert rows
    for r in rows:
        assert not math.isnan(r.gamma), r
        if r.metric_id.startswith(METRIC_ROUTING):
            assert r.ratio <= 1.0 + r.gamma + 1e-6, r
        else:
            assert r.ratio >= 1.0 - r.gamma - 1e-6, r


# ---------------------------------------------------------------------------
# CSV


def test_format_row_exact_fields():
    row = SweepRow(0.1, Norm.L2, 0.25, "routing-cost@s0", 1.03125, 12.3456, 42)
    assert format_row(row) == "0.1,l2,0.25,routing-cost@s0,1.03125,12.346,42"
    assert format_row(row, include_timing=False) == \
        "0.1,l2,0.25,routing-cost@s0,1.03125,0.000,42"


def test_emit_csv_reproducible_without_timing(tmp_path):
    cfg = tiny_config()
    rows = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, p1, include_timing=False)
    emit_csv(run_sweep(cfg), p2, include_timing=False)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)


# ---------------------------------------------------------------------------
# instance files


def test_network_file_round_trip(tmp_path):
    net = NetworkInstance(node_count=3, edges=((0, 1), (1, 2), (2, 0)),
                          flow_cost=[1.5, 2.0, 0.25], base_capacity=[3.0, 1.0, 7.5])
    path = tmp_path / "net.txt"
    save_network(net, path)
    back = load_network(path)
    assert back.node_count == 3 and back.edges == net.edges
    np.testing.assert_allclose(back.flow_cost, net.flow_cost)
    np.testing.assert_allclose(back.base_capacity, net.base_capacity)


def test_network_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("# capacity plan\n\n2 1\n# the only edge\n0 1 2.0 5.0\n")
    net = load_network(path)
    assert net.edges == ((0, 1),)
    assert net.base_capacity[0] == 5.0


def test_network_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1 2.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        load_network(path)
    path.write_text("2 3\n0 1 2.0 5.0\n")
    with pytest.raises(ValueError, match="promises 3 edges"):
        load_network(path)
    path.write_text("two 1\n0 1 2.0 5.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1"):
        load_network(path)


def test_demand_file_round_trip(tmp_path):
    demand = DemandMatrix(4, ((0, 1, 2.5), (2, 3, 0.75)))
    path = tmp_path / "dem.txt"
    save_demands(demand, path)
    back = load_demands(path, 4)
    assert back.triples == demand.triples


def test_demand_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "dem.txt"
    path.write_text("0 1 2.0\n0 2\n")
    with pytest.raises(ValueError, match=r"dem\.txt:2"):
        load_demands(path, 4)


def test_experiment_from_files(tmp_path):
    # a saved network plus explicit per-scenario demand files: no sparsify,
    # no jitter, demands used exactly as written
    net = NetworkInstance(node_count=3, edges=((0, 1), (1, 2), (2, 0), (0, 2)),
                          flow_cost=[1.0, 2.0, 1.0, 3.0],
                          base_capacity=[4.0, 4.0, 4.0, 4.0])
    net_path = tmp_path / "net.txt"
    save_network(net, net_path)
    d1, d2 = tmp_path / "d1.txt", tmp_path / "d2.txt"
    save_demands(DemandMatrix(3, ((0, 2, 1.0),)), d1)
    save_demands(DemandMatrix(3, ((1, 0, 2.0),)), d2)
    cfg = ExperimentConfig(node_count=3, edge_count=4, scenario_count=2,
                           demand_pairs=1, budget_multipliers=(1.0,),
                           norms=(Norm.L2,), network_path=str(net_path),
                           demand_paths=(str(d1), str(d2)), seed=0)
    built_net, _, history = build_experiment(cfg)
    assert built_net.edges == net.edges
    assert len(history) == 2
    assert history.scenarios[0].demand.triples == ((0, 2, 1.0),)
    assert history.scenarios[1].demand.triples == ((1, 0, 2.0),)
    np.testing.assert_array_equal(history.scenarios[0].capacity, net.base_capacity)


def test_benchmark_tracer_installs_and_uninstalls():
    # the benchmark wraps caolf's entry points from outside; a renamed or
    # inherited entry point must fail here rather than in a traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = (geometry.clip, geometry.ClippedBallSet.project, solver.solve_lp,
                 network.solve_lp, bench.solve_caolf)
    tracer = module.Tracer()
    tracer.install(caolf)
    try:
        refs = [MetricRef(id="a", x_ref=[0.0], value=1.0,
                          models=(LipschitzNorm(2.0, Norm.L2, [0]),)),
                MetricRef(id="b", x_ref=[1.0], value=1.0,
                          models=(LipschitzNorm(1.0, Norm.L2, [0]),))]
        # the cap cuts off the mean of the references, so the solve starts
        # from the region's `find_point`, which projects
        region = FeasibleSet(lower=[-np.inf], halfspaces=[([1.0], 0.25)])
        sol = solver.solve_caolf(refs, region, solver.SolveConfig())
    finally:
        tracer.uninstall()
    assert sol.gamma == pytest.approx(0.75, abs=1e-5)
    assert tracer.counts["solver.solves"] == 1
    assert tracer.counts["geometry.project.calls"] > 0
    assert (geometry.clip, geometry.ClippedBallSet.project, solver.solve_lp,
            network.solve_lp, bench.solve_caolf) == originals
