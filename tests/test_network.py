"""Units and cross-checks for the network experiment metrics."""

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from caolf import lp
from caolf.geometry import Norm, Sense, dual_norm_value
from caolf.network import (
    METRIC_CONNECTIVITY,
    METRIC_ROUTING,
    METRIC_THROUGHPUT,
    DemandMatrix,
    NetworkInstance,
    Scenario,
    ScenarioHistory,
    algebraic_connectivity,
    build_metric_refs,
    capacity_weights,
    connectivity_lipschitz,
    demand_to_supply,
    incidence,
    laplacian,
    max_flow,
    max_flow_lipschitz,
    max_flow_lp,
    parse_throughput_id,
    record_scenario,
    ref_evaluator,
    routing_cost,
    routing_cost_lipschitz,
    scenario_evaluator,
    throughput_metric_id,
)


def single_edge_net(price_in=3.0):
    return NetworkInstance(node_count=2, edges=((0, 1),),
                           flow_cost=[1.0], base_capacity=[1.0],
                           price_in=[price_in])


def random_net(rng, node_count, edge_count, with_prices=False):
    # spanning cycle keeps every node reachable, extras drawn without repeats
    perm = rng.permutation(node_count)
    edges = [(int(perm[i]), int(perm[(i + 1) % node_count])) for i in range(node_count)]
    seen = set(edges)
    while len(edges) < edge_count:
        u, v = rng.integers(0, node_count, 2)
        if u == v or (int(u), int(v)) in seen:
            continue
        seen.add((int(u), int(v)))
        edges.append((int(u), int(v)))
    kwargs = {}
    if with_prices:
        kwargs["price_in"] = rng.uniform(1.0, 4.0, len(edges))
    return NetworkInstance(node_count=node_count, edges=tuple(edges),
                           flow_cost=rng.uniform(1.0, 5.0, len(edges)),
                           base_capacity=rng.uniform(1.0, 10.0, len(edges)),
                           **kwargs)


# ---------------------------------------------------------------------------
# structure


def test_incidence_single_edge_column():
    net = single_edge_net()
    np.testing.assert_allclose(incidence(net), [[1.0], [-1.0]])


def test_incidence_columns_sum_to_zero():
    net = NetworkInstance(node_count=3, edges=((0, 1), (1, 2), (2, 0)),
                          flow_cost=[1.0, 1.0, 1.0], base_capacity=[1.0, 1.0, 1.0])
    np.testing.assert_allclose(incidence(net).sum(axis=0), np.zeros(3))


def test_demand_to_supply_two_nodes():
    d = DemandMatrix(2, ((0, 1, 2.0),))
    np.testing.assert_allclose(demand_to_supply(d), [[2.0, 0.0], [-2.0, 0.0]])


def test_demand_to_supply_columns_sum_to_zero():
    rng = np.random.default_rng(3)
    triples = [(0, 1, 2.0), (0, 2, 1.0), (2, 1, 4.0), (3, 0, 0.5)]
    d = DemandMatrix(4, tuple(triples))
    np.testing.assert_allclose(demand_to_supply(d).sum(axis=0), np.zeros(4), atol=1e-12)


def test_network_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        NetworkInstance(node_count=2, edges=((0, 0),), flow_cost=[1.0], base_capacity=[1.0])
    with pytest.raises(ValueError):
        NetworkInstance(node_count=2, edges=((0, 3),), flow_cost=[1.0], base_capacity=[1.0])
    with pytest.raises(ValueError):
        NetworkInstance(node_count=2, edges=((0, 1),), flow_cost=[-1.0], base_capacity=[1.0])
    with pytest.raises(ValueError):
        # rental price below the up-front price
        NetworkInstance(node_count=2, edges=((0, 1),), flow_cost=[1.0],
                        base_capacity=[1.0], price_pre=[2.0], price_in=[1.0])


def test_demand_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        DemandMatrix(3, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        DemandMatrix(3, ((0, 1, -2.0),))
    with pytest.raises(ValueError):
        DemandMatrix(3, ((0, 1, 1.0), (0, 1, 2.0)))


# ---------------------------------------------------------------------------
# routing cost


def test_routing_cost_single_edge_rents_the_shortfall():
    # capacity 1, demand 2: one rented unit at price 3 on top of flow cost 2
    net = single_edge_net(price_in=3.0)
    demand = DemandMatrix(2, ((0, 1, 2.0),))
    assert routing_cost(net, demand, [1.0]) == pytest.approx(5.0, abs=1e-9)


def test_routing_cost_parallel_edges_prefers_cheap_plus_rental():
    # routing all 3 units on the cheap edge and renting 2 beats the pricey edge
    net = NetworkInstance(node_count=2, edges=((0, 1), (0, 1)),
                          flow_cost=[1.0, 5.0], base_capacity=[1.0, 10.0],
                          price_in=[2.0, 2.0])
    demand = DemandMatrix(2, ((0, 1, 3.0),))
    assert routing_cost(net, demand, [1.0, 10.0]) == pytest.approx(7.0, abs=1e-9)


def test_routing_cost_zero_demand_is_free():
    net = single_edge_net()
    assert routing_cost(net, DemandMatrix(2, ()), [1.0]) == 0.0
    # the path form has no pair to route and keeps no record
    scenario = record_scenario(net, [1.0], DemandMatrix(2, ()), (METRIC_ROUTING,))
    assert scenario.values == {METRIC_ROUTING: 0.0} and scenario.routing_record is None
    assert scenario_evaluator(net, scenario, METRIC_ROUTING)([3.0]) == 0.0


def test_routing_cost_monotone_in_capacity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_net(rng, 5, 9, with_prices=True)
        triples = [(0, 1, float(rng.uniform(1, 3))), (2, 4, float(rng.uniform(1, 3)))]
        demand = DemandMatrix(5, tuple(triples))
        cap = rng.uniform(0.5, 4.0, net.edge_count)
        bigger = cap + rng.uniform(0.0, 2.0, net.edge_count)
        assert routing_cost(net, demand, bigger) <= routing_cost(net, demand, cap) + 1e-7


def test_routing_cost_lipschitz_probe():
    # finite-difference changes never exceed the dual-norm sensitivity bound
    rng = np.random.default_rng(23)
    for _ in range(5):
        net = random_net(rng, 4, 7, with_prices=True)
        demand = DemandMatrix(4, ((0, 2, 2.0), (1, 3, 1.0)))
        cap = rng.uniform(0.5, 3.0, net.edge_count)
        base = routing_cost(net, demand, cap)
        for norm in Norm:
            bound = routing_cost_lipschitz(net, norm)
            delta = rng.uniform(-0.2, 0.2, net.edge_count)
            moved = np.maximum(cap + delta, 0.0)
            diff = abs(routing_cost(net, demand, moved) - base)
            step = np.linalg.norm(moved - cap, ord={Norm.L1: 1, Norm.L2: 2, Norm.LINF: np.inf}[norm])
            assert diff <= bound * step + 1e-7


def test_routing_lipschitz_constants():
    net = single_edge_net(price_in=3.0)
    for norm in Norm:
        assert routing_cost_lipschitz(net, norm) == 3.0
    two = NetworkInstance(node_count=2, edges=((0, 1), (0, 1)),
                          flow_cost=[1.0, 1.0], base_capacity=[1.0, 1.0],
                          price_in=[3.0, 4.0])
    assert routing_cost_lipschitz(two, Norm.L2) == pytest.approx(5.0)
    assert routing_cost_lipschitz(two, Norm.L1) == pytest.approx(4.0)
    assert routing_cost_lipschitz(two, Norm.LINF) == pytest.approx(7.0)


def one_edge_routing():
    """One edge, cost 1, rental price 3, demand 5 across it."""
    net = single_edge_net()
    demand = DemandMatrix(2, ((0, 1, 5.0),))
    return net, demand, record_scenario(net, [2.0], demand, (METRIC_ROUTING,))


CAPACITY_EVALUATORS = {
    "routing_cost": lambda net, demand, sc: lambda b: routing_cost(net, demand, b),
    "warm routing": lambda net, demand, sc: scenario_evaluator(net, sc, METRIC_ROUTING),
    "max_flow": lambda net, demand, sc: lambda b: max_flow(net, b, 0, 1),
    "capacity_weights": lambda net, demand, sc: lambda b: capacity_weights(net, b),
}


@pytest.mark.parametrize("name", sorted(CAPACITY_EVALUATORS))
def test_evaluators_reject_a_bad_capacity(name):
    net, demand, scenario = one_edge_routing()
    assert scenario.routing_record is not None
    evaluate = CAPACITY_EVALUATORS[name](net, demand, scenario)
    evaluate([2.0])
    for bad in ([-4.0], [np.nan], [np.inf], [-np.inf], [1.0, 1.0], [[1.0]]):
        with pytest.raises(ValueError, match="capacity"):
            evaluate(bad)


def test_record_scenario_keeps_the_routing_basis():
    net, demand, scenario = one_edge_routing()
    assert scenario.values == {METRIC_ROUTING: pytest.approx(5.0 + 3.0 * 3.0)}
    paths, basis = scenario.routing_record
    assert paths == ((0,),)
    warm = scenario_evaluator(net, scenario, METRIC_ROUTING)
    for cap in (0.0, 2.0, 5.0, 9.0):
        assert warm([cap]) == pytest.approx(routing_cost(net, demand, [cap]), abs=1e-12)
    assert scenario.routing_record == (paths, basis)
    assert record_scenario(net, [2.0], demand, (METRIC_CONNECTIVITY,)).routing_record is None


@pytest.mark.parametrize("evaluate", [
    lambda net, demand: routing_cost(net, demand, np.ones(net.edge_count)),
    lambda net, demand: record_scenario(net, np.ones(net.edge_count), demand, (METRIC_ROUTING,)),
], ids=["routing_cost", "record_scenario"])
@pytest.mark.parametrize("nodes", [2, 4])
def test_routing_rejects_a_demand_for_another_node_count(evaluate, nodes):
    net = NetworkInstance(node_count=3, edges=((0, 1), (1, 2), (2, 0)), flow_cost=np.ones(3),
                          base_capacity=np.ones(3), price_in=np.full(3, 2.0))
    assert evaluate(net, DemandMatrix(3, ((0, 2, 1.0),))) is not None
    with pytest.raises(ValueError, match=f"demand is for {nodes} nodes, the network has 3"):
        evaluate(net, DemandMatrix(nodes, ((0, 1, 1.0),)))


def test_routing_records_the_reachable_pairs_when_the_network_does_not_span(monkeypatch):
    # node 3 only sends, so nothing reaches it; the path master needs a path
    # per demand pair only, so these pairs record without the cold solve
    net = NetworkInstance(node_count=4, edges=((0, 1), (1, 2), (2, 0), (3, 0)),
                          flow_cost=np.ones(4), base_capacity=np.ones(4),
                          price_in=np.full(4, 2.0))
    demand = DemandMatrix(4, ((0, 2, 3.0), (1, 0, 1.0)))
    want = routing_cost(net, demand, np.zeros(4))
    monkeypatch.setattr(lp, "_two_phase", lambda *args: pytest.fail("fell back to the cold solve"))
    # flows 3, 4, 1 on the cycle's arcs, all rented at 2
    scenario = record_scenario(net, np.zeros(4), demand, (METRIC_ROUTING,))
    assert scenario.values[METRIC_ROUTING] == 24.0 == want
    assert scenario.routing_record[0] == ((0, 1), (1, 2))
    with pytest.raises(RuntimeError, match="routing LP ended with status infeasible"):
        record_scenario(net, np.ones(4), DemandMatrix(4, ((0, 3, 3.0),)), (METRIC_ROUTING,))


def test_routing_cost_requires_rental_prices():
    net = NetworkInstance(node_count=2, edges=((0, 1),), flow_cost=[1.0],
                          base_capacity=[1.0])
    with pytest.raises(ValueError):
        routing_cost(net, DemandMatrix(2, ((0, 1, 1.0),)), [1.0])


# ---------------------------------------------------------------------------
# max flow


def test_max_flow_parallel_edges():
    net = NetworkInstance(node_count=2, edges=((0, 1), (0, 1)),
                          flow_cost=[0.0, 0.0], base_capacity=[1.0, 2.0])
    assert max_flow(net, [1.0, 2.0], 0, 1) == pytest.approx(3.0)


def test_max_flow_diamond():
    # s=0, a=1, b=2, t=3; cuts give 2
    net = NetworkInstance(node_count=4, edges=((0, 1), (0, 2), (1, 3), (2, 3)),
                          flow_cost=np.zeros(4), base_capacity=[2.0, 1.0, 1.0, 2.0])
    assert max_flow(net, [2.0, 1.0, 1.0, 2.0], 0, 3) == pytest.approx(2.0)


def test_max_flow_unreachable_target_is_zero():
    net = NetworkInstance(node_count=3, edges=((0, 1),), flow_cost=[0.0],
                          base_capacity=[1.0])
    assert max_flow(net, [1.0], 0, 2) == 0.0


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


def test_max_flow_equals_min_cut_on_small_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(4, 7))
        net = random_net(rng, k, int(rng.integers(k, 2 * k)))
        cap = rng.integers(0, 6, net.edge_count).astype(float)
        s, t = 0, k - 1
        flow = max_flow(net, cap, s, t)
        cut = min_cut_by_enumeration(net, cap, s, t)
        assert flow == pytest.approx(cut, abs=1e-9)


def test_max_flow_combinatorial_matches_lp():
    rng = np.random.default_rng(29)
    for _ in range(10):
        k = int(rng.integers(4, 8))
        net = random_net(rng, k, int(rng.integers(k, 2 * k + 2)))
        cap = rng.integers(0, 8, net.edge_count).astype(float)
        s, t = 0, k - 1
        assert max_flow(net, cap, s, t) == pytest.approx(max_flow_lp(net, cap, s, t), abs=1e-7)


@pytest.mark.parametrize("flow", [max_flow, max_flow_lp])
def test_max_flow_rejects_endpoints_outside_the_graph(flow):
    net = NetworkInstance(node_count=3, edges=((0, 1), (1, 2), (2, 0)),
                          flow_cost=np.zeros(3), base_capacity=np.ones(3))
    assert flow(net, [1.0, 2.0, 3.0], 2, 0) == pytest.approx(3.0)
    for source, target in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError, match="source/target out of range"):
            flow(net, [1.0, 2.0, 3.0], source, target)


def test_max_flow_monotone_in_capacity():
    rng = np.random.default_rng(31)
    net = random_net(rng, 5, 10)
    cap = rng.uniform(0.0, 5.0, net.edge_count)
    base = max_flow(net, cap, 0, 4)
    bigger = cap + rng.uniform(0.0, 2.0, net.edge_count)
    assert max_flow(net, bigger, 0, 4) >= base - 1e-9


PINNED_MAX_FLOWS = Path(__file__).resolve().parent / "data" / "pinned_max_flows.json"


def pinned_flow_instance(seed):
    """A seeded max-flow instance: 4-16 nodes, capacities uniform(0, 10),
    about a tenth of them set to zero, and a random source/target pair."""
    rng = np.random.default_rng([2026, seed])
    k = int(rng.integers(4, 17))
    net = random_net(rng, k, int(rng.integers(k, 3 * k + 1)))
    cap = rng.uniform(0.0, 10.0, net.edge_count)
    cap[rng.random(net.edge_count) < 0.1] = 0.0
    s, t = (int(v) for v in rng.choice(k, 2, replace=False))
    return net, cap, s, t


def test_max_flow_matches_its_bitwise_recording():
    # recorded with the blocking-flow kernel this one replaced; the values
    # may not move by a single bit
    want = json.loads(PINNED_MAX_FLOWS.read_text())["flows"]
    assert [max_flow(*pinned_flow_instance(seed)).hex() for seed in range(len(want))] == want


def test_max_flow_on_a_long_path():
    k = 1200
    net = NetworkInstance(node_count=k, edges=tuple((v, v + 1) for v in range(k - 1)),
                          flow_cost=np.zeros(k - 1), base_capacity=np.ones(k - 1))
    assert max_flow(net, np.ones(k - 1), 0, k - 1) == 1.0


def test_max_flow_lipschitz_constants():
    for n in (4, 9, 30):
        assert max_flow_lipschitz(Norm.L1, n) == 1.0
        assert max_flow_lipschitz(Norm.L2, n) == float(np.sqrt(n))
        assert max_flow_lipschitz(Norm.LINF, n) == float(n)


# ---------------------------------------------------------------------------
# algebraic connectivity


def test_connectivity_rejects_asymmetric():
    with pytest.raises(ValueError):
        algebraic_connectivity(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(43)
    w = rng.uniform(0, 2, (5, 5))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    np.testing.assert_allclose(laplacian(w).sum(axis=1), np.zeros(5), atol=1e-12)


def test_connectivity_single_edge_is_twice_the_weight():
    for w in (0.5, 1.0, 3.25):
        weights = np.array([[0.0, w], [w, 0.0]])
        assert algebraic_connectivity(weights) == pytest.approx(2.0 * w, abs=1e-10)


def test_connectivity_path_of_three():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert algebraic_connectivity(w) == pytest.approx(1.0, abs=1e-10)


def test_connectivity_complete_graphs():
    for n in (3, 4, 5):
        w = np.ones((n, n)) - np.eye(n)
        assert algebraic_connectivity(w) == pytest.approx(float(n), abs=1e-8)


def test_connectivity_monotone_in_any_weight():
    rng = np.random.default_rng(47)
    net = random_net(rng, 5, 9)
    cap = rng.uniform(0.5, 3.0, net.edge_count)
    base = algebraic_connectivity(capacity_weights(net, cap))
    for e in range(net.edge_count):
        bumped = cap.copy()
        bumped[e] += 0.7
        grown = algebraic_connectivity(capacity_weights(net, bumped))
        assert grown >= base - 1e-9


def test_capacity_weights_fold_parallel_and_opposite_arcs():
    net = NetworkInstance(node_count=2, edges=((0, 1), (0, 1), (1, 0)),
                          flow_cost=np.zeros(3), base_capacity=np.ones(3))
    w = capacity_weights(net, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(w, [[0.0, 7.0], [7.0, 0.0]])


def test_connectivity_rejects_negative_weights():
    with pytest.raises(ValueError):
        algebraic_connectivity(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_connectivity_lipschitz_constants():
    for n in (4, 9, 30):
        assert connectivity_lipschitz(Norm.L1, n) == 2.0
        assert connectivity_lipschitz(Norm.L2, n) == float(2.0 * np.sqrt(n))
        assert connectivity_lipschitz(Norm.LINF, n) == float(2.0 * n)


def test_connectivity_lipschitz_probe():
    rng = np.random.default_rng(53)
    net = random_net(rng, 5, 9)
    cap = rng.uniform(0.5, 3.0, net.edge_count)
    base = algebraic_connectivity(capacity_weights(net, cap))
    for _ in range(10):
        delta = rng.uniform(-0.1, 0.1, net.edge_count)
        moved = np.maximum(cap + delta, 0.0)
        diff = abs(algebraic_connectivity(capacity_weights(net, moved)) - base)
        assert diff <= connectivity_lipschitz(Norm.L1, net.edge_count) * np.abs(moved - cap).sum() + 1e-9


# ---------------------------------------------------------------------------
# scenario history and references


def make_history(rng, net, scenario_count=2):
    scenarios = []
    for _ in range(scenario_count):
        cap = rng.uniform(1.0, 5.0, net.edge_count)
        demand = DemandMatrix(net.node_count, ((0, net.node_count - 1, float(rng.uniform(1, 2))),))
        scenarios.append(record_scenario(net, cap, demand,
                                         (METRIC_ROUTING, METRIC_THROUGHPUT, METRIC_CONNECTIVITY),
                                         flow_pairs=((0, net.node_count - 1),)))
    return ScenarioHistory(tuple(scenarios))


def test_throughput_id_round_trip():
    assert parse_throughput_id(throughput_metric_id(3, 11)) == (3, 11)


def test_evaluate_scenario_keys_and_values():
    rng = np.random.default_rng(59)
    net = random_net(rng, 4, 8, with_prices=True)
    cap = rng.uniform(1.0, 4.0, net.edge_count)
    demand = DemandMatrix(4, ((0, 3, 1.5),))
    values = record_scenario(net, cap, demand,
                             (METRIC_ROUTING, METRIC_THROUGHPUT, METRIC_CONNECTIVITY),
                             flow_pairs=((0, 3),)).values
    assert set(values) == {METRIC_ROUTING, throughput_metric_id(0, 3), METRIC_CONNECTIVITY}
    assert values[METRIC_ROUTING] == pytest.approx(routing_cost(net, demand, cap))
    assert values[throughput_metric_id(0, 3)] == pytest.approx(max_flow(net, cap, 0, 3))


def test_evaluate_scenario_unknown_metric():
    net = single_edge_net()
    with pytest.raises(ValueError):
        record_scenario(net, [1.0], DemandMatrix(2, ((0, 1, 1.0),)), ("latency",))


def test_build_metric_refs_signatures():
    rng = np.random.default_rng(61)
    net = random_net(rng, 4, 8, with_prices=True)
    history = make_history(rng, net)
    refs = build_metric_refs(net, history, Norm.L2)
    assert len(refs) == 3 * len(history)
    by_id = {r.id: r for r in refs}
    routing_ref = by_id[f"{METRIC_ROUTING}@s0"]
    assert routing_ref.sense == Sense.MINIMIZE
    assert np.all(routing_ref.models[0].mono == -1)
    assert routing_ref.models[0].bound == pytest.approx(dual_norm_value(net.price_in, Norm.L2))
    conn_ref = by_id[f"{METRIC_CONNECTIVITY}@s1"]
    assert conn_ref.sense == Sense.MAXIMIZE
    assert np.all(conn_ref.models[0].mono == 1)
    np.testing.assert_allclose(conn_ref.x_ref, history.scenarios[1].capacity)


def test_build_metric_refs_rejects_nonpositive_value():
    net = single_edge_net()
    demand = DemandMatrix(2, ((0, 1, 1.0),))
    history = ScenarioHistory((Scenario(capacity=np.array([1.0]), demand=demand,
                                        values={METRIC_CONNECTIVITY: 0.0}),))
    with pytest.raises(ValueError):
        build_metric_refs(net, history, Norm.L2)


def test_ref_evaluator_matches_recorded_values():
    rng = np.random.default_rng(67)
    net = random_net(rng, 4, 8, with_prices=True)
    history = make_history(rng, net)
    refs = build_metric_refs(net, history, Norm.L1)
    for r in refs:
        evaluator = ref_evaluator(net, history, r.id)
        # at the reference capacity the evaluator must reproduce the record
        assert evaluator(r.x_ref) == pytest.approx(r.value, rel=1e-9, abs=1e-9)


def test_ref_evaluator_rejects_a_tag_outside_the_history():
    rng = np.random.default_rng(67)
    net = random_net(rng, 4, 8, with_prices=True)
    history = make_history(rng, net)
    assert len(history) == 2
    for tag in ("-1", "2", "7", "x", ""):
        ref_id = f"{METRIC_ROUTING}@s{tag}"
        with pytest.raises(ValueError, match=re.escape(repr(ref_id))):
            ref_evaluator(net, history, ref_id)


def test_scenario_evaluator_routing_uses_scenario_demand():
    rng = np.random.default_rng(71)
    net = random_net(rng, 4, 8, with_prices=True)
    demand = DemandMatrix(4, ((0, 3, 2.0),))
    sc = Scenario(capacity=np.ones(net.edge_count), demand=demand,
                  values={METRIC_ROUTING: 1.0})
    f = scenario_evaluator(net, sc, METRIC_ROUTING)
    cap = rng.uniform(1.0, 3.0, net.edge_count)
    assert f(cap) == pytest.approx(routing_cost(net, demand, cap))
