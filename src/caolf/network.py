"""Network experiment metrics: routing cost, throughput, and connectivity.

All three metrics are functions of the installed capacity vector, one entry
per directed edge.  Routing cost is a multi-commodity flow LP where demand
exceeding the installed capacity can be covered by renting extra capacity at
a premium.  Throughput is a single-pair maximum flow.  Connectivity is the
second-smallest eigenvalue of the weighted graph Laplacian, with capacities
as weights.

`routing_cost` solves the arc-flow LP cold, with one conservation row per
(source, node).  A recorded scenario evaluates the same optimum by path
flows instead: a master LP with one row per edge and one per demand pair,
whose path columns are priced by the LP's row duals and one Dijkstra per
source (column generation; Ford & Fulkerson, *Management Science* 5(1),
1958; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 17).  Each
evaluation is one `solve_lp` call: its pricing callback adds the priced
paths, which join the kernel's live tableau.  A scenario's evaluator
prepares one read-only start from the scenario's fixed record of columns
and basis (`prepare_start`), so an evaluation factorizes nothing at its
start and computes only the basic values for its capacities.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import Mono, Norm, Sense, dual_norm_value
from .lp import LpBasis, LpProblem, LpStatus, prepare_start, solve_lp
from .model import LipschitzNorm, MetricRef

METRIC_ROUTING = "routing-cost"
METRIC_THROUGHPUT = "throughput"
METRIC_CONNECTIVITY = "connectivity"

FLOW_EPS = 1e-12  # residual capacity at or below which `max_flow` treats an arc as full


@dataclass(eq=False)
class NetworkInstance:
    """Directed graph with per-edge routing costs and installed capacities.

    ``price_pre`` and ``price_in`` are the per-unit capacity prices paid
    up front and in service (rental), when the instance carries them.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    flow_cost: np.ndarray
    base_capacity: np.ndarray
    price_pre: np.ndarray | None = None
    price_in: np.ndarray | None = None

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("need at least two nodes")
        self.edges = tuple((int(u), int(v)) for u, v in self.edges)
        self.flow_cost = np.asarray(self.flow_cost, dtype=float)
        self.base_capacity = np.asarray(self.base_capacity, dtype=float)
        n = len(self.edges)
        if n == 0:
            raise ValueError("need at least one edge")
        for u, v in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) out of range for {self.node_count} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
        if self.flow_cost.shape != (n,) or np.any(self.flow_cost < 0) or not np.all(np.isfinite(self.flow_cost)):
            raise ValueError("flow costs must be nonnegative finite, one per edge")
        if self.base_capacity.shape != (n,) or np.any(self.base_capacity < 0) or not np.all(np.isfinite(self.base_capacity)):
            raise ValueError("capacities must be nonnegative finite, one per edge")
        for name in ("price_pre", "price_in"):
            p = getattr(self, name)
            if p is None:
                continue
            p = np.asarray(p, dtype=float)
            setattr(self, name, p)
            if p.shape != (n,) or np.any(p <= 0) or not np.all(np.isfinite(p)):
                raise ValueError(f"{name} must be positive finite, one per edge")
        if self.price_pre is not None and self.price_in is not None:
            if np.any(self.price_in < self.price_pre - 1e-12):
                raise ValueError("rental prices must not undercut up-front prices")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(eq=False)
class DemandMatrix:
    """Sparse source/target demand, stored as (source, target, amount) triples."""

    node_count: int
    triples: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        cleaned = []
        for s, t, f in self.triples:
            s, t, f = int(s), int(t), float(f)
            if not (0 <= s < self.node_count and 0 <= t < self.node_count):
                raise ValueError(f"demand pair ({s},{t}) out of range")
            if s == t:
                raise ValueError(f"demand from node {s} to itself")
            if not (f > 0 and np.isfinite(f)):
                raise ValueError(f"demand amount must be positive finite, got {f}")
            if (s, t) in seen:
                raise ValueError(f"duplicate demand pair ({s},{t})")
            seen.add((s, t))
            cleaned.append((s, t, f))
        self.triples = tuple(cleaned)

    def dense(self) -> np.ndarray:
        d = np.zeros((self.node_count, self.node_count))
        for s, t, f in self.triples:
            d[s, t] = f
        return d

    def __len__(self) -> int:
        return len(self.triples)


def incidence(net: NetworkInstance) -> np.ndarray:
    """Node-edge incidence matrix: +1 at the tail, -1 at the head of each edge."""
    a = np.zeros((net.node_count, net.edge_count))
    for e, (u, v) in enumerate(net.edges):
        a[u, e] = 1.0
        a[v, e] = -1.0
    return a


def demand_to_supply(demand: DemandMatrix) -> np.ndarray:
    """Per-commodity net supply at every node, one column per source node.

    Column s carries the flow-conservation right-hand side for the commodity
    originating at s: the total demand it sends on the diagonal entry, and
    the negated amounts at its targets.
    """
    d = demand.dense()
    return np.diag(d.sum(axis=1)) - d.T


def _checked_capacity(net: NetworkInstance, capacity) -> np.ndarray:
    """``capacity`` as floats; raises unless finite, nonnegative, one per edge."""
    capacity = np.asarray(capacity, dtype=float)
    if capacity.shape != (net.edge_count,):
        raise ValueError(f"capacity vector must have one entry per edge ({net.edge_count}), "
                         f"got shape {capacity.shape}")
    bad = np.nonzero(~(capacity >= 0) | ~np.isfinite(capacity))[0]
    if bad.size:
        e = int(bad[0])
        raise ValueError(f"capacity {capacity[e]!r} of edge {e} is not finite and nonnegative")
    return capacity


def _checked_routing(net: NetworkInstance, demand: DemandMatrix, capacity) -> np.ndarray:
    """``capacity`` as floats, once the instance has rental prices, the demand
    is for its node count and `_checked_capacity` passes; raises otherwise."""
    if net.price_in is None:
        raise ValueError("routing cost needs rental prices on the instance")
    if demand.node_count != net.node_count:
        raise ValueError(f"demand is for {demand.node_count} nodes, the network has {net.node_count}")
    return _checked_capacity(net, capacity)


def routing_cost(net: NetworkInstance, demand: DemandMatrix, capacity) -> float:
    """Cheapest way to route all demand, renting capacity beyond ``capacity``.

    One commodity per demand-bearing source node, with one conservation row
    per (source, node); flow on an edge beyond the installed capacity is paid
    for at the rental price.  Raises when the instance has no rental prices or
    the LP cannot be certified optimal.  Always a cold solve of this arc-flow
    LP: the independent check of `scenario_evaluator`'s path-flow evaluation.
    """
    capacity = _checked_routing(net, demand, capacity)
    n = net.edge_count
    supply = demand_to_supply(demand)
    sources = [s for s in range(net.node_count) if supply[s, s] > 0]
    if not sources:
        return 0.0
    k = net.node_count
    a = incidence(net)
    n_commod = len(sources)
    n_var = n_commod * n + n  # per-commodity flows, then rented capacity
    a_eq = np.zeros((n_commod * k, n_var))
    b_eq = np.zeros(n_commod * k)
    for ci, s in enumerate(sources):
        a_eq[ci * k:(ci + 1) * k, ci * n:(ci + 1) * n] = a
        b_eq[ci * k:(ci + 1) * k] = supply[:, s]
    a_ub = np.zeros((n, n_var))
    for ci in range(n_commod):
        a_ub[:, ci * n:(ci + 1) * n] = np.eye(n)
    a_ub[:, n_commod * n:] = -np.eye(n)
    c = np.concatenate([np.tile(net.flow_cost, n_commod), net.price_in])
    sol = solve_lp(LpProblem(c=c, a_ub=a_ub, b_ub=capacity.copy(), a_eq=a_eq, b_eq=b_eq))
    if sol.status != LpStatus.OPTIMAL:
        raise RuntimeError(f"routing LP ended with status {sol.status.value}")
    return sol.value


def _shortest_paths(out: list[list[tuple[int, int]]], length: list[float], source: int):
    """Dijkstra from ``source`` under the edge lengths ``length`` (>= 0), with
    ``out[u]`` the (head, edge) pairs leaving node u: per node its distance
    (inf when unreachable) and the edge it is reached by (ties go to the node
    popped first, by distance then id)."""
    dist = [math.inf] * len(out)
    via = [-1] * len(out)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, e in out[u]:
            if d + length[e] < dist[v]:
                dist[v], via[v] = d + length[e], e
                heapq.heappush(heap, (dist[v], v))
    return dist, via


def _cheapest_paths(net: NetworkInstance, pairs, length: np.ndarray):
    """Per (source, target) pair, its shortest path under ``length`` as a
    tuple of edge ids and that path's length; (inf, None) when the target
    cannot be reached.  One Dijkstra per distinct source."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(net.node_count)]
    for e, (u, v) in enumerate(net.edges):
        out[u].append((v, e))
    length = length.tolist()
    trees = {}
    found = []
    for s, t in pairs:
        if s not in trees:
            trees[s] = _shortest_paths(out, length, s)
        dist, via = trees[s]
        if dist[t] == math.inf:
            found.append((math.inf, None))
            continue
        path, v = [], t
        while v != s:
            path.append(via[v])
            v = net.edges[via[v]][0]
        found.append((dist[t], tuple(reversed(path))))
    return found


def _path_columns(net: NetworkInstance, pair_row: dict, paths) -> np.ndarray:
    """The master's columns of ``paths``: 1 on each edge's row and on the row
    ``pair_row`` gives the path's (first tail, last head)."""
    columns = np.zeros((net.edge_count + len(pair_row), len(paths)))
    index = np.arange(len(paths))
    columns[[e for path in paths for e in path], np.repeat(index, [len(p) for p in paths])] = 1.0
    columns[[pair_row[net.edges[p[0]][0], net.edges[p[-1]][1]] for p in paths], index] = 1.0
    return columns


def _master_problem(net: NetworkInstance, demand: DemandMatrix, paths, capacity) -> LpProblem:
    """The path-flow master LP at ``paths`` (`_route_by_paths`)."""
    n, k = net.edge_count, len(demand)
    pair_row = {(s, t): n + i for i, (s, t, _) in enumerate(demand.triples)}
    columns = _path_columns(net, pair_row, paths)
    a = np.hstack([columns, np.vstack([-np.eye(n), np.zeros((k, n))])])
    c = np.concatenate([net.flow_cost @ columns[:n], net.price_in])
    return LpProblem(c=c, a_ub=a[:n], b_ub=capacity, a_eq=a[n:],
                     b_eq=np.array([f for _, _, f in demand.triples]))


def _route_by_paths(net: NetworkInstance, demand: DemandMatrix, capacity, record):
    """Routing cost by column generation on the path-flow master LP, and the
    master's last (paths, basis), None when nothing is routed.

    The master has one flow per path column, then one rent per edge at its
    rental price; one row per edge, its paths' flows minus its rent at most
    its capacity, then one row per demand pair, its paths' flows equal to the
    demand.  By flow decomposition its optimum is `routing_cost`'s (Ford &
    Fulkerson, *Management Science* 5(1), 1958; Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 17).

    The solve starts from ``record``, a (paths, `LpStart`) that
    `scenario_evaluator` prepared from a (paths, basis) this function
    returned; without one, from each pair's shortest path under
    ``flow_cost``, with every capacity slack basic, which is dual feasible.
    It is one `solve_lp` call whose pricing callback gets the row duals
    after each optimum: the edge rows' duals u >= 0 and the pair rows'
    duals sigma price the paths by one Dijkstra per source under
    flow_cost + u, and each pair's shortest path shorter than its sigma by
    more than rounding joins the master after the paths it has, before the
    rents.  The kernel goes on from the same basis and stops when no path
    joins.
    """
    capacity = _checked_routing(net, demand, capacity)
    if not demand.triples:
        return 0.0, None
    pairs = [(s, t) for s, t, _ in demand.triples]
    n, k = net.edge_count, len(pairs)
    if record is None:
        start = _cheapest_paths(net, pairs, net.flow_cost)
        if any(path is None for _, path in start):
            raise RuntimeError("routing LP ended with status infeasible")
        paths = tuple(path for _, path in start)
        problem = _master_problem(net, demand, paths, capacity)
        start = LpBasis((n + k, k + 2 * n), np.arange(n + k),
                        np.concatenate([k + n + np.arange(n), np.arange(k)]))
    else:
        paths, start = record
        problem = replace(start.problem, b_ub=capacity)
    pair_row = {pair: n + i for i, pair in enumerate(pairs)}
    known = set(paths)

    def price(duals):
        nonlocal paths
        u, sigma = duals[:n], duals[n:]
        priced = _cheapest_paths(net, pairs, net.flow_cost + np.maximum(u, 0.0))
        new = tuple(path for (length, path), v in zip(priced, sigma)
                    if length < v - 1e-9 * (1.0 + abs(v)) and path not in known)
        if not new:
            return None
        at, paths = len(paths), paths + new
        known.update(new)
        columns = _path_columns(net, pair_row, new)
        return at, net.flow_cost @ columns[:n], columns

    sol = solve_lp(problem, start=start, price=price)
    if sol.status != LpStatus.OPTIMAL:
        raise RuntimeError(f"routing LP ended with status {sol.status.value}")
    return sol.value, (paths, sol.basis)


def routing_cost_lipschitz(net: NetworkInstance, norm: Norm) -> float:
    """Sensitivity bound of the routing cost to capacity changes in ``norm``."""
    return _lipschitz(METRIC_ROUTING, norm, net.edge_count, net.price_in)


def _check_endpoints(net: NetworkInstance, source: int, target: int) -> None:
    if source == target:
        raise ValueError("source and target must differ")
    if not (0 <= source < net.node_count and 0 <= target < net.node_count):
        raise ValueError("source/target out of range")


def max_flow(net: NetworkInstance, capacity, source: int, target: int) -> float:
    """Maximum s-t flow under ``capacity``, by shortest augmenting paths."""
    _check_endpoints(net, source, target)
    capacity = _checked_capacity(net, capacity)
    # arc list with paired reverse arcs at even/odd indices
    to: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(net.node_count)]
    for e, (u, v) in enumerate(net.edges):
        adj[u].append(len(to)); to.append(v); cap.append(float(capacity[e]))
        adj[v].append(len(to)); to.append(u); cap.append(0.0)
    total = 0.0
    while True:
        via = {source: -1}  # the arc a breadth-first search reached each node by
        queue = [source]
        for u in queue:
            for aid in adj[u]:
                if cap[aid] > FLOW_EPS and to[aid] not in via:
                    via[to[aid]] = aid
                    queue.append(to[aid])
        if target not in via:
            return total
        path = []
        v = target
        while v != source:
            path.append(via[v])
            v = to[via[v] ^ 1]
        pushed = min(cap[aid] for aid in path)
        for aid in path:
            cap[aid] -= pushed
            cap[aid ^ 1] += pushed
        total += pushed


def max_flow_lp(net: NetworkInstance, capacity, source: int, target: int) -> float:
    """Same value as `max_flow`, posed as a circulation LP for cross-checking."""
    _check_endpoints(net, source, target)
    capacity = _checked_capacity(net, capacity)
    n = net.edge_count
    a_eq = np.hstack([incidence(net), np.zeros((net.node_count, 1))])
    a_eq[source, n] = -1.0  # the extracted flow re-enters at the source
    a_eq[target, n] = 1.0
    c = np.zeros(n + 1)
    c[n] = -1.0
    upper = np.concatenate([capacity, [np.inf]])
    sol = solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=np.zeros(net.node_count), upper=upper))
    if sol.status != LpStatus.OPTIMAL:
        raise RuntimeError(f"max-flow LP ended with status {sol.status.value}")
    return -sol.value


def max_flow_lipschitz(norm: Norm, edge_count: int) -> float:
    """Sensitivity of any s-t max flow to capacity changes, per ``norm``."""
    return _lipschitz(METRIC_THROUGHPUT, norm, edge_count)


def capacity_weights(net: NetworkInstance, capacity) -> np.ndarray:
    """Symmetric node-by-node weight matrix; parallel and opposite arcs add up."""
    capacity = _checked_capacity(net, capacity)
    w = np.zeros((net.node_count, net.node_count))
    for e, (u, v) in enumerate(net.edges):
        w[u, v] += capacity[e]
        w[v, u] += capacity[e]
    return w


def laplacian(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    return np.diag(weights.sum(axis=1)) - weights


def algebraic_connectivity(weights: np.ndarray) -> float:
    """Second-smallest Laplacian eigenvalue of the weighted graph.

    The smallest eigenvalue is asserted to sit at zero (it always does for a
    valid Laplacian; a violation means the weights were malformed).
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < -1e-12):
        raise ValueError("weights must be nonnegative")
    if weights.shape[0] < 2:
        raise ValueError("need at least two nodes")
    lap = laplacian(weights)
    # eigvalsh reads one triangle only and would take an asymmetric input silently
    if not np.allclose(lap, lap.T, atol=1e-10 * (1.0 + np.abs(lap).max())):
        raise ValueError("weights must be symmetric")
    eigs = np.linalg.eigvalsh(lap)
    scale = max(1.0, float(np.abs(lap).max()))
    if abs(eigs[0]) > 1e-8 * scale:
        raise RuntimeError(f"Laplacian smallest eigenvalue not at zero: {eigs[0]:.3e}")
    return float(eigs[1])


def connectivity_lipschitz(norm: Norm, edge_count: int) -> float:
    """Sensitivity of algebraic connectivity to capacity changes, per ``norm``."""
    return _lipschitz(METRIC_CONNECTIVITY, norm, edge_count)


# Per metric kind: its sense, its monotonicity in every capacity, and its
# per-edge sensitivity s (from the rental prices and the edge count); a capacity
# change d moves the value by at most s . |d|, so its Lipschitz bound is s's dual norm.
_KINDS = {
    METRIC_ROUTING: (Sense.MINIMIZE, Mono.DECREASING, lambda price_in, n: price_in),
    METRIC_THROUGHPUT: (Sense.MAXIMIZE, Mono.INCREASING, lambda price_in, n: np.ones(n)),
    METRIC_CONNECTIVITY: (Sense.MAXIMIZE, Mono.INCREASING, lambda price_in, n: np.full(n, 2.0)),
}


def _lipschitz(kind: str, norm: Norm, edge_count: int, price_in=None) -> float:
    if edge_count < 1:
        raise ValueError("edge count must be positive")
    sensitivity = _KINDS[kind][2](price_in, edge_count)
    if sensitivity is None:
        raise ValueError("routing sensitivity needs rental prices on the instance")
    return dual_norm_value(sensitivity, norm)


# ---------------------------------------------------------------------------
# Scenario history -> metric references


@dataclass(eq=False)
class Scenario:
    """One historical operating point: installed capacities, the demand they
    served, and the realized metric values keyed by metric id.

    ``routing_record`` is the path-flow master LP solved at ``capacity``:
    its path columns, each a tuple of edge ids, and its optimal basis
    (`_route_by_paths`).  `scenario_evaluator` prepares the start of every
    routing evaluation from it and never changes it.
    """

    capacity: np.ndarray
    demand: DemandMatrix
    values: dict[str, float]
    routing_record: tuple[tuple[tuple[int, ...], ...], LpBasis] | None = None

    def __post_init__(self):
        self.capacity = np.asarray(self.capacity, dtype=float)
        if np.any(self.capacity < 0) or not np.all(np.isfinite(self.capacity)):
            raise ValueError("scenario capacities must be nonnegative finite")
        for key, v in self.values.items():
            if not np.isfinite(v):
                raise ValueError(f"scenario value {key!r} must be finite")


@dataclass(eq=False)
class ScenarioHistory:
    scenarios: tuple[Scenario, ...]

    def __post_init__(self):
        self.scenarios = tuple(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)


def throughput_metric_id(source: int, target: int) -> str:
    return f"{METRIC_THROUGHPUT}:{source}->{target}"


def parse_throughput_id(metric_id: str) -> tuple[int, int]:
    pair = metric_id.split(":", 1)[1]
    s, t = pair.split("->")
    return int(s), int(t)


def record_scenario(net: NetworkInstance, capacity, demand: DemandMatrix,
                    metrics: Sequence[str], flow_pairs=()) -> Scenario:
    """The scenario at one operating point: its realized metric values, and
    the record of the routing cost's path-flow master LP.

    The master starts from each pair's shortest path under ``flow_cost``;
    dual simplex pivots repair the overloaded edges, and pricing adds the
    paths that lower the cost (`_route_by_paths`).  `routing_cost` stays the
    cold arc-flow LP.
    """
    values: dict[str, float] = {}
    record = None
    for metric in metrics:
        if metric == METRIC_ROUTING:
            values[METRIC_ROUTING], record = _route_by_paths(net, demand, capacity, None)
        elif metric == METRIC_THROUGHPUT:
            for s, t in flow_pairs:
                values[throughput_metric_id(s, t)] = max_flow(net, capacity, s, t)
        elif metric == METRIC_CONNECTIVITY:
            values[METRIC_CONNECTIVITY] = algebraic_connectivity(capacity_weights(net, capacity))
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return Scenario(capacity=capacity, demand=demand, values=values, routing_record=record)


def scenario_evaluator(net: NetworkInstance, scenario: Scenario, metric_id: str):
    """Callable mapping a capacity vector to the named realized metric.

    Routing cost is evaluated by path flows from the scenario's own routing
    record (from the shortest paths when it has none), the same start for
    every capacity.  The evaluator prepares that start once, when it is
    built: the master LP at the record's paths, its standard form and B⁻¹N
    at the record's basis (`prepare_start`), read-only and never changed.
    Each evaluation is one solve from it for its capacities, which computes
    only B⁻¹b and prices its own paths, so a value never depends on earlier
    calls.
    """
    if metric_id == METRIC_ROUTING:
        demand, record = scenario.demand, scenario.routing_record
        if record is not None:
            paths, basis = record
            record = paths, prepare_start(
                _master_problem(net, demand, paths, scenario.capacity), basis)
        return lambda b: _route_by_paths(net, demand, b, record)[0]
    if metric_id.startswith(METRIC_THROUGHPUT + ":"):
        s, t = parse_throughput_id(metric_id)
        return lambda b: max_flow(net, b, s, t)
    if metric_id == METRIC_CONNECTIVITY:
        return lambda b: algebraic_connectivity(capacity_weights(net, b))
    raise ValueError(f"unknown metric id {metric_id!r}")


def build_metric_refs(net: NetworkInstance, history: ScenarioHistory,
                      norm: Norm) -> list[MetricRef]:
    """Turn every recorded scenario value into a metric reference.

    Routing cost falls when capacity grows, so it is decreasing in every
    coordinate and minimized; throughput and connectivity grow with capacity
    and are maximized.  A nonpositive recorded value cannot anchor a relative
    guarantee and raises.
    """
    refs: list[MetricRef] = []
    n = net.edge_count
    for idx, sc in enumerate(history):
        for metric_id in sorted(sc.values):
            v = float(sc.values[metric_id])
            if v <= 0:
                raise ValueError(
                    f"scenario {idx}: metric {metric_id!r} value {v} is not positive")
            kind = METRIC_THROUGHPUT if metric_id.startswith(METRIC_THROUGHPUT + ":") else metric_id
            if kind not in _KINDS or metric_id == METRIC_THROUGHPUT:
                raise ValueError(f"scenario {idx}: unknown metric id {metric_id!r}")
            sense, mono, _ = _KINDS[kind]
            refs.append(MetricRef(
                id=f"{metric_id}@s{idx}",
                x_ref=sc.capacity,
                value=v,
                sense=sense,
                models=(LipschitzNorm(bound=_lipschitz(kind, norm, n, net.price_in), norm=norm,
                                      mono=np.full(n, mono, dtype=np.int8)),)))
    return refs


def ref_evaluator(net: NetworkInstance, history: ScenarioHistory, ref_id: str):
    """Evaluator for a reference id of the form ``<metric-id>@s<index>``."""
    metric_id, _, tag = ref_id.rpartition("@s")
    if not (tag.isdecimal() and int(tag) < len(history)):
        raise ValueError(f"reference id {ref_id!r} names no scenario of the "
                         f"{len(history)} in the history")
    return scenario_evaluator(net, history.scenarios[int(tag)], metric_id)
