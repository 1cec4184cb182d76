"""Generator, sweep, and CSV checks for the benchmark harness."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import caolf
from caolf import bench, geometry, lp, network, solver

from caolf.bench import (
    CSV_HEADER,
    ExperimentConfig,
    SweepRow,
    build_experiment,
    emit_csv,
    format_row,
    generate_costs,
    reference_budget,
    run_sweep,
    select_flow_pairs,
    sparsify,
)
from caolf.geometry import Norm
from caolf.model import FeasibleSet, LipschitzNorm, MetricRef
from caolf.network import METRIC_ROUTING, DemandMatrix


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


def prepared_arrays(start):
    """Every array of an `lp.LpStart`."""
    values = (*vars(start.problem).values(), start.basis.rows, start.basis.cols,
              *vars(start.form).values(), *start.split, start.inverse, start.tableau)
    return [v for v in values if isinstance(v, np.ndarray)]


def test_warm_routing_equals_cold_routing_cost(monkeypatch):
    # every scenario's routing evaluator prepares one start from the
    # scenario's own record, and each evaluation is one solve from it that
    # prices its paths in the same call, never cold; its values must equal
    # the cold routing_cost and must not depend on the order in which
    # capacities are evaluated, and evaluating leaves the record and the
    # prepared start as they were: read-only, with the same values
    assert [f.name for f in dataclasses.fields(lp.LpBasis)] == ["shape", "rows", "cols"]
    net, _, history = build_experiment(ExperimentConfig())
    rng = np.random.default_rng(2027)
    solve_lp, two_phase, prepare_start = network.solve_lp, lp._two_phase, network.prepare_start
    starts, pivots, cold_solves, prepared = [], [], [], []

    def recording(problem, max_iters=None, start=None, price=None):
        sol = solve_lp(problem, max_iters, start, price)
        starts.append(start)
        pivots.append(sol.iterations)
        return sol

    def counting(*args):
        cold_solves.append(args)
        return two_phase(*args)

    def preparing(*args):
        prepared.append(prepare_start(*args))
        return prepared[-1]

    monkeypatch.setattr(network, "solve_lp", recording)
    monkeypatch.setattr(network, "prepare_start", preparing)
    monkeypatch.setattr(lp, "_two_phase", counting)
    warm_pivots = cold_pivots = 0
    for sc in history:
        paths, basis = sc.routing_record
        basis.rows.setflags(write=False)
        basis.cols.setflags(write=False)
        before = (basis.shape, basis.rows.copy(), basis.cols.copy())
        prepared.clear()
        evaluate = network.scenario_evaluator(net, sc, METRIC_ROUTING)
        assert len(prepared) == 1  # built with the evaluator
        arrays = prepared_arrays(prepared[0])
        values = [a.copy() for a in arrays]
        capacities = [sc.capacity, np.zeros(net.edge_count), 100.0 * sc.capacity]
        capacities += [sc.capacity * scale * rng.uniform(0.9, 1.1, net.edge_count)
                       for scale in (0.5, 0.75, 1.0, 1.25, 1.5)]
        pivots.clear()
        forward = []
        for b in capacities:
            starts.clear()
            forward.append(evaluate(b))
            assert starts == [prepared[0]]  # one solve, from the prepared start
        warm_pivots += sum(pivots)
        backward = [evaluate(b) for b in reversed(capacities)][::-1]
        assert [v.hex() for v in forward] == [v.hex() for v in backward]
        assert not cold_solves
        assert not any(a.flags.writeable for a in arrays)
        for a, value in zip(arrays, values):
            assert a.tobytes() == value.tobytes()
        assert sc.routing_record[0] is paths and sc.routing_record[1] is basis
        assert basis.shape == before[0]
        np.testing.assert_array_equal(basis.rows, before[1])
        np.testing.assert_array_equal(basis.cols, before[2])
        pivots.clear()
        for b, value in zip(capacities, forward):
            cold = network.routing_cost(net, sc.demand, b)
            assert abs(value - cold) <= 1e-9 * max(1.0, abs(cold)), (value, cold)
        assert starts[-1] is None
        cold_pivots += sum(pivots)
        cold_solves.clear()
    assert warm_pivots == 774 and cold_pivots == 17646


def test_a_routing_evaluation_splits_each_basis_once(monkeypatch):
    # an evaluation from the prepared start splits each optimal basis once,
    # in its closing solve: the priced paths' B⁻¹a reuse that split, and
    # B⁻¹b is solved once, at the last optimum, also by that split; only a
    # refactorization splits a basis otherwise.  A re-split per pricing
    # round, or B⁻¹b per round, would keep every answer and lose the time
    net, _, history = build_experiment(ExperimentConfig())
    sc = history.scenarios[0]
    prepare_start, split, through_basis = network.prepare_start, lp._split, lp._through_basis
    closing_solve, refactor = lp._closing_solve, lp._refactor
    prepared, counts, rhs_solves = [], {}, []

    def counted(name, real):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        return call

    def solves_for_b(B, split, M, inverse=None):
        # B⁻¹b by the closing split; the prepared start's own B⁻¹b, for its
        # first tableau, goes through the inverse it keeps
        rhs_solves.append(inverse is None and M.shape[1] == 1 and np.array_equal(M[:, 0], b0))
        return through_basis(B, split, M, inverse)

    monkeypatch.setattr(network, "prepare_start", lambda *args: prepared.append(
        prepare_start(*args)) or prepared[-1])
    evaluate = network.scenario_evaluator(net, sc, METRIC_ROUTING)
    assert len(prepared) == 1 and prepared[0].inverse is not None
    for name, real in (("_split", split), ("_closing_solve", closing_solve),
                       ("_refactor", refactor), ("_two_phase", lp._two_phase)):
        monkeypatch.setattr(lp, name, counted(name, real))
    monkeypatch.setattr(lp, "_through_basis", solves_for_b)
    rng = np.random.default_rng(2032)
    rounds = 0
    for scale in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
        b = sc.capacity * scale * rng.uniform(0.9, 1.1, net.edge_count)
        b0 = np.concatenate([b, prepared[0].problem.b_eq])[prepared[0].basis.rows]
        counts.clear()
        rhs_solves.clear()
        assert evaluate(b) > 0.0
        assert "_two_phase" not in counts
        assert counts["_split"] == counts["_closing_solve"] + counts.get("_refactor", 0), counts
        assert sum(rhs_solves) == 1, rhs_solves
        rounds += counts["_closing_solve"] - 1
    assert rounds >= 3  # pricing rounds that added paths, over the six evaluations


def recorded_build(monkeypatch, cfg):
    """build_experiment(cfg), with the routing solve of each scenario's
    record as (problem, start, pivots), and the number of routing solves
    that fell back to phase one.  Each record is one solve, which prices
    its paths in the same call."""
    solve_lp, two_phase, route = network.solve_lp, lp._two_phase, network._route_by_paths
    solves, phase_ones = [], []

    def routing(*args):
        calls = len(solves)
        result = route(*args)
        assert len(solves) == calls + 1  # one solve per record
        return result

    def recording(problem, max_iters=None, start=None, price=None):
        sol = solve_lp(problem, max_iters, start, price)
        solves.append((problem, start, sol.iterations))
        return sol

    def counting(*args):
        phase_ones.append(args)
        return two_phase(*args)

    monkeypatch.setattr(network, "_route_by_paths", routing)
    monkeypatch.setattr(network, "solve_lp", recording)
    monkeypatch.setattr(lp, "_two_phase", counting)
    net, _, history = build_experiment(cfg)
    monkeypatch.undo()
    assert len(solves) == len(history)  # one record per scenario
    return net, history, solves, len(phase_ones)


def highs_routing_cost(monkeypatch, net, demand, capacity):
    """`network.routing_cost` with its arc-flow LP solved by scipy's HiGHS
    dual simplex: the kernel's cold solves take about 80 s per 20-node
    experiment, so HiGHS is the reference value there."""
    optimize = pytest.importorskip("scipy.optimize")

    def highs(problem):
        ref = optimize.linprog(problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                               A_eq=problem.a_eq, b_eq=problem.b_eq, method="highs-ds",
                               options={"primal_feasibility_tolerance": 1e-10,
                                        "dual_feasibility_tolerance": 1e-10})
        assert ref.status == 0
        return lp.LpSolution(lp.LpStatus.OPTIMAL, ref.x, ref.fun, ref.nit)

    with monkeypatch.context() as patched:
        patched.setattr(network, "solve_lp", highs)
        return network.routing_cost(net, demand, capacity)


@pytest.mark.parametrize("cfg", [pytest.param(ExperimentConfig(seed=s), id=f"default-{s}")
                                 for s in range(20)]
                         + [pytest.param(tiny_config(edge_count=n, seed=s), id=f"tiny{n}-{s}")
                            for n in (7, 6) for s in range(10)])
def test_tree_start_records_the_cold_routing_cost(monkeypatch, cfg):
    # the path record starts from each pair's shortest path, a start that is
    # dual feasible, so no record's solve falls back to phase one
    net, history, solves, fallbacks = recorded_build(monkeypatch, cfg)
    assert fallbacks == 0
    for sc, (_, start, _) in zip(history, solves):
        assert start is not None
        cold = network.routing_cost(net, sc.demand, sc.capacity)
        assert abs(sc.values[METRIC_ROUTING] - cold) <= 1e-12 * cold, (sc.values, cold)


def test_tree_start_needs_a_quarter_of_the_cold_pivots(monkeypatch):
    net, history, solves, _ = recorded_build(monkeypatch, ExperimentConfig())
    path_pivots = sum(pivots for _, _, pivots in solves)
    assert path_pivots == 219
    cold_pivots = []

    def counting(problem):
        sol = lp.solve_lp(problem)
        cold_pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(network, "solve_lp", counting)
    for sc in history:
        network.routing_cost(net, sc.demand, sc.capacity)
    assert 4 * path_pivots <= sum(cold_pivots), (path_pivots, cold_pivots)  # 219 against 2081


@pytest.mark.parametrize("seed", range(3))
def test_tree_start_on_a_larger_network_matches_highs(monkeypatch, seed):
    cfg = ExperimentConfig(node_count=20, edge_count=60, demand_pairs=80, seed=seed)
    net, history, solves, fallbacks = recorded_build(monkeypatch, cfg)
    assert fallbacks == 0
    for sc, (_, start, _) in zip(history, solves):
        assert start is not None
        ref = highs_routing_cost(monkeypatch, net, sc.demand, sc.capacity)
        assert abs(sc.values[METRIC_ROUTING] - ref) <= 1e-12 * ref, (sc.values, ref)


def test_path_evaluation_on_a_larger_network_matches_highs(monkeypatch):
    # above the default 12 nodes: evaluations at jittered capacities from
    # half to one and a half times a scenario's equal the HiGHS arc-flow
    # value, and leave the scenario's record as it was
    net, _, history = build_experiment(ExperimentConfig(node_count=20, edge_count=60,
                                                        demand_pairs=80))
    rng = np.random.default_rng(2031)
    for sc in history:
        paths, basis = sc.routing_record
        rows, cols = basis.rows.copy(), basis.cols.copy()
        evaluate = network.scenario_evaluator(net, sc, METRIC_ROUTING)
        for scale in (0.5, 0.75, 1.0, 1.25, 1.5):
            b = sc.capacity * scale * rng.uniform(0.9, 1.1, net.edge_count)
            value, want = evaluate(b), highs_routing_cost(monkeypatch, net, sc.demand, b)
            assert abs(value - want) <= 1e-9 * want, (value, want)
        assert sc.routing_record[0] is paths and sc.routing_record[1] is basis
        assert basis.shape == (net.edge_count + len(sc.demand), len(paths) + 2 * net.edge_count)
        assert np.array_equal(basis.rows, rows) and np.array_equal(basis.cols, cols)


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
    # a NaN tolerance passed `<= 0` and hung the sweep's first L2 solve
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            tiny_config(gamma_tolerance=tol)


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


def test_a_three_norm_sweep_prepares_one_routing_start_per_scenario(monkeypatch):
    # the norms share their reference ids, so the sweep builds one evaluator
    # per id, and one prepared routing start per scenario, not per norm
    prepare_start, prepared = network.prepare_start, []
    monkeypatch.setattr(network, "prepare_start",
                        lambda *args: prepared.append(args) or prepare_start(*args))
    cfg = tiny_config(norms=(Norm.L1, Norm.L2, Norm.LINF))
    run_sweep(cfg)
    _, _, history = build_experiment(cfg)
    assert len(prepared) == sum(sc.routing_record is not None for sc in history) == 2


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


def test_default_sweep_gamma_is_convex_and_nonincreasing_in_the_budget():
    # a larger budget only widens the region, and (x, gamma, budget) range
    # over one convex set, so each norm's optimal gamma is a nonincreasing
    # convex function of the budget: in ascending budget its secant slopes
    # never fall, to the solve's tolerance
    cfg = ExperimentConfig()
    gammas = {}
    for r in run_sweep(cfg):
        gammas.setdefault(r.norm, {})[r.budget_mult] = r.gamma
    mults = sorted(cfg.budget_multipliers)
    assert set(gammas) == set(cfg.norms)
    for norm, by_mult in gammas.items():
        g = np.array([by_mult[m] for m in mults])
        assert not np.any(np.isnan(g)), norm
        tol = cfg.gamma_tolerance * np.maximum(1.0, g)
        assert np.all(np.diff(g) <= tol[:-1]), norm
        # g[i] at most the chord of its neighbours, that is, the slope from
        # i - 1 to i at most the slope from i to i + 1
        m = np.array(mults)
        chord = ((m[2:] - m[1:-1]) * g[:-2] + (m[1:-1] - m[:-2]) * g[2:]) / (m[2:] - m[:-2])
        assert np.all(g[1:-1] <= chord + tol[1:-1]), norm


def test_default_sweep_budget_price_is_a_subgradient_of_gamma(monkeypatch):
    # the budget row's multiplier p in an L1 or LINF epigraph LP prices the
    # budget B, and -p is a subgradient of the convex optimal gamma*(B): the
    # secant slope between neighbouring cells lies between the negated
    # prices at its two ends
    cfg = ExperimentConfig(norms=(Norm.L1, Norm.LINF))
    net, _, history = build_experiment(cfg)
    budgets = np.array(cfg.budget_multipliers) * reference_budget(net, history)
    real_solve_lp, prices = solver.solve_lp, {}

    def spy(problem):
        sol = real_solve_lp(problem)
        # only the L1 LP has magnitude variables beyond (x, gamma); the budget
        # row is the region's only halfspace, the last a_ub row
        norm = Norm.LINF if problem.c.size == net.edge_count + 1 else Norm.L1
        prices.setdefault(norm, []).append((problem.b_ub[-1], sol.duals[-1]))
        return sol

    monkeypatch.setattr(solver, "solve_lp", spy)
    gammas = {}
    for r in run_sweep(cfg):
        gammas.setdefault(r.norm, {})[r.budget_mult] = r.gamma
    for norm in cfg.norms:
        b, p = np.array(prices[norm]).T
        np.testing.assert_array_equal(b, budgets)
        assert p[0] > 0.0 and np.all(p >= 0.0), norm
        g = np.array([gammas[norm][m] for m in cfg.budget_multipliers])
        secant = np.diff(g) / np.diff(budgets)
        tol = 1e-9 * np.maximum(1.0, np.abs(p))
        assert np.all(-p[:-1] <= secant + tol[:-1]), norm
        assert np.all(secant <= -p[1:] + tol[1:]), norm


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


def test_a_failed_cell_gets_nan_rows_and_leaves_the_others_as_they_were(monkeypatch):
    # the second cell, (0.5, l2), raises; cells run multiplier by multiplier
    cfg = tiny_config(norms=(Norm.L1, Norm.L2))
    failed = (cfg.budget_multipliers[0], Norm.L2)
    clean = run_sweep(cfg)
    solve, calls = bench.solve_caolf, []

    def fail_the_second_cell(refs, region, config):
        calls.append(config.norm)
        if len(calls) == 2:
            raise solver.SolveError("injected")
        return solve(refs, region, config)

    monkeypatch.setattr(bench, "solve_caolf", fail_the_second_cell)
    rows = run_sweep(cfg)
    assert calls == [Norm.L1, Norm.L2] * len(cfg.budget_multipliers)
    net, _, history = build_experiment(cfg)
    nan_rows = [r for r in rows if (r.budget_mult, r.norm) == failed]
    assert [r.metric_id for r in nan_rows] == \
        [ref.id for ref in network.build_metric_refs(net, history, Norm.L2)]
    for r in nan_rows:
        assert math.isnan(r.gamma) and math.isnan(r.ratio)
        assert r.iterations == 0 and r.wall_ms >= 0
    assert [format_row(r, include_timing=False) for r in rows if (r.budget_mult, r.norm) != failed] \
        == [format_row(r, include_timing=False) for r in clean if (r.budget_mult, r.norm) != failed]


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
        region = FeasibleSet(lower=[-np.inf], halfspaces=[([1.0], 0.25)])
        sol = solver.solve_caolf(refs, region, solver.SolveConfig())
        # the solve never projects, so project explicitly: the class-method
        # patches must take effect
        region.find_point([1.0])
    finally:
        tracer.uninstall()
    assert sol.gamma == pytest.approx(0.75, abs=1e-5)
    assert tracer.counts["solver.solves"] == 1
    assert tracer.counts["model.find_point.calls"] == 1
    assert tracer.counts["geometry.project.calls"] > 0
    assert (geometry.clip, geometry.ClippedBallSet.project, solver.solve_lp,
            network.solve_lp, bench.solve_caolf) == originals
