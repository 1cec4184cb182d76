"""Benchmark harness: synthetic instances, budget sweeps, CSV output.

The experiment mirrors a capacity-planning story: a history of operating
points is recorded on one network, then a single new capacity vector is
bought under a budget that is swept from tight to generous.  Every sweep
cell re-solves the tolerance problem and reports, per historical metric,
how the bought point compares to the recorded value.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .geometry import Norm
from .model import FeasibleSet
from .network import (
    METRIC_CONNECTIVITY,
    METRIC_ROUTING,
    METRIC_THROUGHPUT,
    DemandMatrix,
    NetworkInstance,
    ScenarioHistory,
    build_metric_refs,
    record_scenario,
    ref_evaluator,
)
from .solver import SolveConfig, SolveError, solve_caolf

CSV_HEADER = "budget_mult,norm,gamma,metric_id,ratio,wall_ms,iters"

METRICS = (METRIC_ROUTING, METRIC_THROUGHPUT, METRIC_CONNECTIVITY)
COST_RANGE = (1.0, 10.0)        # routing cost per unit of flow on an edge
CAPACITY_RANGE = (5.0, 15.0)    # base capacity of an edge
DEMAND_RANGE = (1.0, 5.0)       # amount of one demand pair
JITTER_RANGE = (0.8, 1.2)       # per-edge factor on a scenario's capacity
PRICE_SCALE = 10.0              # capacity price at unit routing cost
SPARSIFY_PROBABILITY = 0.4      # chance a scenario drops a demand pair
FLOW_PAIR_FRACTION = 0.05       # share of the largest pairs given a throughput metric


@dataclass
class ExperimentConfig:
    node_count: int = 12
    edge_count: int = 30
    scenario_count: int = 5
    demand_pairs: int = 36
    budget_multipliers: tuple = tuple(np.linspace(0.1, 1.6, 10))
    norms: tuple = (Norm.L1, Norm.L2, Norm.LINF)
    seed: int = 0
    gamma_tolerance: float = 1e-6

    def __post_init__(self):
        if self.node_count < 2 or self.edge_count < self.node_count:
            raise ValueError("need >= 2 nodes and at least one edge per node (spanning cycle)")
        if self.edge_count > self.node_count * (self.node_count - 1):
            raise ValueError("more edges than ordered node pairs")
        if self.scenario_count < 1:
            raise ValueError("need at least one scenario")
        if not 0 < self.gamma_tolerance < np.inf:
            raise ValueError("gamma tolerance must be positive and finite")
        mults = tuple(float(m) for m in self.budget_multipliers)
        if not mults or not all(0 < m < np.inf for m in mults):
            raise ValueError("budget multipliers must be positive and finite")
        if list(mults) != sorted(mults):
            raise ValueError("budget multipliers must be ascending")
        self.budget_multipliers = mults
        self.norms = tuple(Norm(n) for n in self.norms)
        if not (1 <= self.demand_pairs <= self.node_count * (self.node_count - 1)):
            raise ValueError("demand pair count out of range")


@dataclass
class SweepRow:
    budget_mult: float
    norm: Norm
    gamma: float
    metric_id: str
    ratio: float
    wall_ms: float
    iterations: int


def generate_costs(flow_cost, scale: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Up-front and rental capacity prices from routing costs.

    Expensive-to-route edges get cheap capacity (inverse square-root
    coupling with a +/-10% jitter) and renting always costs 5-15% more
    than buying up front.
    """
    flow_cost = np.asarray(flow_cost, dtype=float)
    if np.any(flow_cost <= 0):
        raise ValueError("routing costs must be positive to derive capacity prices")
    if scale <= 0:
        raise ValueError("price scale must be positive")
    price_pre = (scale / np.sqrt(flow_cost)) * rng.uniform(9.0, 11.0, flow_cost.size)
    price_in = price_pre * rng.uniform(1.05, 1.15, flow_cost.size)
    return price_pre, price_in


def sparsify(demand: DemandMatrix, probability: float, rng) -> DemandMatrix:
    """Drop each demand pair independently with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("drop probability must be in [0, 1]")
    draws = rng.random(len(demand.triples))
    kept = tuple(t for t, u in zip(demand.triples, draws) if u >= probability)
    return DemandMatrix(node_count=demand.node_count, triples=kept)


def select_flow_pairs(demand: DemandMatrix, fraction: float = FLOW_PAIR_FRACTION) -> list[tuple[int, int]]:
    """The largest demand pairs: a ``fraction`` share, at least one.

    Ties are broken by node ids so the selection never depends on input
    order.
    """
    if len(demand.triples) == 0:
        raise ValueError("demand matrix is empty")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = max(1, int(np.ceil(fraction * len(demand.triples))))
    ranked = sorted(demand.triples, key=lambda t: (-t[2], t[0], t[1]))
    return [(s, t) for s, t, _ in ranked[:count]]


def _random_edges(node_count: int, edge_count: int, rng) -> tuple[tuple[int, int], ...]:
    """A spanning directed cycle (strong connectivity) plus random extra arcs."""
    perm = rng.permutation(node_count)
    edges = [(int(perm[i]), int(perm[(i + 1) % node_count])) for i in range(node_count)]
    seen = set(edges)
    while len(edges) < edge_count:
        u = int(rng.integers(node_count))
        v = int(rng.integers(node_count))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
    return tuple(edges)


def _random_demand(node_count: int, pair_count: int, rng) -> DemandMatrix:
    all_pairs = [(s, t) for s in range(node_count) for t in range(node_count) if s != t]
    pair_count = min(pair_count, len(all_pairs))
    chosen = rng.choice(len(all_pairs), size=pair_count, replace=False)
    amounts = rng.uniform(*DEMAND_RANGE, pair_count)
    triples = tuple((all_pairs[int(i)][0], all_pairs[int(i)][1], float(a))
                    for i, a in zip(chosen, amounts))
    return DemandMatrix(node_count=node_count, triples=triples)


def build_experiment(cfg: ExperimentConfig) -> tuple[NetworkInstance, DemandMatrix, ScenarioHistory]:
    """Instantiate the network, base demand, and scenario history.

    Draw order is part of the contract (it pins the seed semantics):
    topology, routing costs, base capacities, demand pairs and amounts,
    capacity prices, then per scenario a demand sparsification (redrawn if it
    comes up empty) followed by the capacity jitter.
    """
    rng = np.random.default_rng(cfg.seed)
    k, n = cfg.node_count, cfg.edge_count
    edges = _random_edges(k, n, rng)
    flow_cost = rng.uniform(*COST_RANGE, n)
    base_capacity = rng.uniform(*CAPACITY_RANGE, n)
    base_demand = _random_demand(k, cfg.demand_pairs, rng)
    price_pre, price_in = generate_costs(flow_cost, PRICE_SCALE, rng)
    net = NetworkInstance(node_count=k, edges=edges, flow_cost=flow_cost,
                          base_capacity=base_capacity,
                          price_pre=price_pre, price_in=price_in)
    scenarios = []
    for _ in range(cfg.scenario_count):
        demand_i = sparsify(base_demand, SPARSIFY_PROBABILITY, rng)
        for _ in range(100):
            if len(demand_i):
                break
            demand_i = sparsify(base_demand, SPARSIFY_PROBABILITY, rng)
        else:
            raise RuntimeError("could not draw a non-empty sparsified demand")
        capacity_i = base_capacity * rng.uniform(*JITTER_RANGE, n)
        scenarios.append(record_scenario(net, capacity_i, demand_i, METRICS,
                                         select_flow_pairs(demand_i)))
    return net, base_demand, ScenarioHistory(tuple(scenarios))


def reference_budget(net: NetworkInstance, history: ScenarioHistory) -> float:
    """Mean up-front cost of the historical capacity vectors."""
    if net.price_pre is None:
        raise ValueError("instance has no up-front prices")
    return float(np.mean([float(net.price_pre @ sc.capacity) for sc in history]))


def run_sweep(cfg: ExperimentConfig | None = None) -> list[SweepRow]:
    """Solve every (budget multiplier, norm) cell and report per-metric rows.

    A solver failure in one cell is recorded as NaN rows for that cell and
    does not abort the sweep.
    """
    cfg = cfg or ExperimentConfig()
    net, _, history = build_experiment(cfg)
    budget = reference_budget(net, history)
    refs_by_norm = {norm: build_metric_refs(net, history, norm) for norm in cfg.norms}
    # the norms share their reference ids, so each id gets one evaluator
    ids = dict.fromkeys(ref.id for refs in refs_by_norm.values() for ref in refs)
    evaluators = {ref_id: ref_evaluator(net, history, ref_id) for ref_id in ids}
    rows: list[SweepRow] = []
    for mult in cfg.budget_multipliers:
        for norm in cfg.norms:
            region = FeasibleSet.nonnegative(net.edge_count,
                                             [(net.price_pre.copy(), mult * budget)])
            refs = refs_by_norm[norm]
            solve_cfg = SolveConfig(norm=norm, gamma_tolerance=cfg.gamma_tolerance)
            started = time.perf_counter()
            try:
                sol = solve_caolf(refs, region, solve_cfg)
            except SolveError:
                sol = None
            wall = (time.perf_counter() - started) * 1000.0
            for ref in refs:
                if sol is None:
                    rows.append(SweepRow(mult, norm, float("nan"), ref.id, float("nan"), wall, 0))
                else:
                    rows.append(SweepRow(mult, norm, sol.gamma, ref.id,
                                         evaluators[ref.id](sol.x) / ref.value, wall,
                                         sol.diagnostics.iterations))
    return rows


def format_row(row: SweepRow, include_timing: bool = True) -> str:
    wall = row.wall_ms if include_timing else 0.0
    return (f"{row.budget_mult:.10g},{row.norm.value},{row.gamma:.12g},"
            f"{row.metric_id},{row.ratio:.12g},{wall:.3f},{row.iterations}")


def emit_csv(rows, path=None, include_timing: bool = True) -> None:
    """Write sweep rows to ``path``, or to stdout when ``path`` is empty or None;
    with timing off the output is byte-reproducible."""
    text = "\n".join([CSV_HEADER, *(format_row(r, include_timing) for r in rows)]) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
