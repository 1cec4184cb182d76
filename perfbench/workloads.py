"""The benchmark's four workloads: inputs, the timed operations and output checks.

Each workload makes its inputs from the run seed in ``setup`` (timed, and
repeated), lists its operations in ``ops`` (run one at a time between speed
probes) and checks every output in ``check``, outside the timed and traced
part.  An operation that raises, reports a non-finite gamma or fails a check
counts as failed.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from caolf import bench, network, solver
from caolf.geometry import Norm, Sense
from caolf.model import ConcaveLinear, ConvexQuadratic, FeasibleSet, LipschitzNorm, MetricRef
from speed import closed_loop

GRID = bench.ExperimentConfig().budget_multipliers  # the default sweep grid, tight to generous


@dataclass
class RunResult:
    """What one pass over a workload's operations produced.

    Times are in seconds at the reference speed of ``speed.probe``.
    """

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # op index -> first failed check
    digest: object = field(default_factory=hashlib.sha256)

    @property
    def attempted(self) -> int:
        return len(self.op_ms)

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def record(self, text: str) -> None:
        self.digest.update(text.encode() + b"\n")


def timed_setup(workload, seed: int, seconds: float, repeats: int):
    """The last set-up's state and the median set-up time at reference speed."""
    states, spans, meter = closed_loop([lambda: workload.setup(seed, seconds)] * repeats)
    for state in states:
        if isinstance(state, Exception):
            raise state
    return states[-1], statistics.median(meter.seconds(*span) for span in spans)


def one_pass(workload, state):
    """Run every op of the workload once, one at a time, while speed is sampled."""
    result = RunResult()
    outputs, spans, meter = closed_loop(workload.ops(state))
    result.raw_wall_s = sum(meter.raw_seconds(*span) for span in spans)
    result.wall_s = sum(meter.seconds(*span) for span in spans)
    return result, outputs, spans, meter


# ---------------------------------------------------------------------------
# Sweeps: run_sweep on the default 12-node instance, one call per cell


class SweepWorkload:
    """``run_sweep`` on single cells of the default grid.

    Each op is one ``run_sweep`` call on one (multiplier, norm) cell.  The
    call rebuilds the instance and evaluates the realized ratios, as a full
    sweep does per cell; the op's latency is its solve, timed from outside by
    rebinding ``bench.solve_caolf`` for the length of the call.

    Tight cells sit exactly on grid multipliers: a 1% budget change there
    moves the L2 projection cycle count by up to +-20% (measured), which
    would swamp the run-to-run spread.  The seed draws the other budgets.
    """

    setup_repeats = 3
    op_counter = "solver.solves"
    nominal_pass_s = 20.0

    def __init__(self, name: str, plan):
        self.name = name
        self.plan = plan

    def setup(self, seed: int, seconds: float):
        cells = self.plan(np.random.default_rng(seed))
        # instance construction, which run_sweep repeats inside every call
        bench.build_experiment(bench.ExperimentConfig())
        passes = max(1, round(seconds / self.nominal_pass_s))
        return [bench.ExperimentConfig(budget_multipliers=(mult,), norms=(norm,))
                for mult, norm in cells] * passes

    def ops(self, configs):
        return [lambda cfg=cfg: _run_cell(cfg) for cfg in configs]

    def check(self, configs, outputs, spans, meter, out: RunResult) -> None:
        last: dict[Norm, tuple[float, float]] = {}  # norm -> (budget, gamma) of its last cell
        for op, (cfg, output) in enumerate(zip(configs, outputs)):
            mult, norm = cfg.budget_multipliers[0], cfg.norms[0]
            if isinstance(output, Exception):
                out.op_ms.append(meter.seconds(*spans[op]) * 1000.0)
                out.gammas.append(0.0)
                out.fail(op, f"run_sweep raised {output!r}")
                continue
            rows, solve_span = output
            gamma = rows[0].gamma
            out.op_ms.append(meter.seconds(*solve_span) * 1000.0)
            out.gammas.append(gamma if math.isfinite(gamma) else 0.0)
            for row in rows:
                out.record(bench.format_row(row, include_timing=False))
            if not math.isfinite(gamma):
                out.fail(op, f"{norm.value} cell at {mult:.6g}: solver failed")
                continue
            for row in rows:
                if row.metric_id.startswith(network.METRIC_ROUTING):
                    ok = row.ratio <= 1.0 + row.gamma + 1e-6
                else:
                    ok = row.ratio >= 1.0 - row.gamma - 1e-6
                if not ok:
                    out.fail(op, f"{row.metric_id} ratio {row.ratio!r} outside gamma {gamma!r}")
            prev_mult, prev_gamma = last.get(norm, (-math.inf, math.inf))
            if mult > prev_mult and gamma > prev_gamma + 1e-5:
                out.fail(op, f"{norm.value} gamma rose to {gamma!r} at budget {mult:.6g}")
            last[norm] = (mult, gamma)


def _run_cell(cfg):
    """``run_sweep`` on one cell: its rows and the (start, end) of its solve."""
    solve = bench.solve_caolf
    span = []

    def timed(*args, **kwargs):
        span.append(time.perf_counter())
        try:
            return solve(*args, **kwargs)
        finally:
            span.append(time.perf_counter())

    bench.solve_caolf = timed
    try:
        rows = bench.run_sweep(cfg)
    finally:
        bench.solve_caolf = solve
    return rows, tuple(span)


def _jitter(rng, mult: float) -> float:
    return float(mult * rng.uniform(0.98, 1.02))


def _plan_l2(rng):
    # tight (7.6k projection cycles), tighter (24k) and near the threshold
    # (3.6k) on grid points, then two generous budgets (22 cycles, gamma
    # about 0); the median op is the near-threshold solve
    generous = sorted(rng.uniform(GRID[7], GRID[9], 2))
    return [(GRID[0], Norm.L2), (GRID[5], Norm.L2), (GRID[6], Norm.L2)] + \
        [(float(m), Norm.L2) for m in generous]


def _plan_lp(rng):
    # the epigraph LP at the tight end in L1 (about 7 s), and across the grid
    # in L-infinity (2-4.5 s each)
    return [(_jitter(rng, GRID[0]), Norm.L1)] + \
        [(_jitter(rng, GRID[i]), Norm.LINF) for i in (0, 3, 6, 9)]


# ---------------------------------------------------------------------------
# Verify: true-metric verification of candidate capacity vectors


class VerifyWorkload:
    """``verify_competitiveness`` against all 20 historical references.

    Candidates are the five scenario capacities scaled over a fixed ladder
    from under- to over-provisioned, with seeded per-edge jitter.
    """

    name = "verify"
    setup_repeats = 3
    op_counter = "solver.verify_calls"
    scales = (0.75, 0.9, 1.05, 1.2)
    claimed_gamma = 0.25
    candidates_per_second = 1.0  # each takes about 0.6 s, and as long again to check

    def setup(self, seed: int, seconds: float):
        net, _, history = bench.build_experiment(bench.ExperimentConfig())
        refs = network.build_metric_refs(net, history, Norm.L2)
        metrics = [(network.ref_evaluator(net, history, r.id), r.value, r.sense) for r in refs]
        rng = np.random.default_rng(seed)
        candidates = []
        for i in range(max(1, round(seconds * self.candidates_per_second))):
            scenario = history.scenarios[i % len(history)]
            scale = self.scales[(i // len(history)) % len(self.scales)]
            jitter = rng.uniform(0.98, 1.02, net.edge_count)
            candidates.append(scenario.capacity * scale * jitter)
        return net, history, refs, metrics, candidates

    def ops(self, state):
        metrics, candidates = state[3], state[4]
        return [lambda x=x: solver.verify_competitiveness(x, self.claimed_gamma, metrics)[0]
                for x in candidates]

    def check(self, state, outputs, spans, meter, out: RunResult) -> None:
        net, history, refs, _, candidates = state
        for op, (x, slacks) in enumerate(zip(candidates, outputs)):
            out.op_ms.append(meter.seconds(*spans[op]) * 1000.0)
            if isinstance(slacks, Exception):
                out.gammas.append(0.0)
                out.fail(op, f"verify raised {slacks!r}")
                continue
            out.gammas.append(max(0.0, float(np.max(slacks))))
            out.record(" ".join(float(s).hex() for s in slacks))
            if not np.all(np.isfinite(slacks)):
                out.fail(op, "non-finite slack")
                continue
            again = _second_evaluation(net, history, refs, x)
            worst = float(np.max(np.abs(again - slacks) / np.maximum(1.0, np.abs(again))))
            if worst > 1e-9:
                out.fail(op, f"slacks differ from a second evaluation by {worst:.3e}")


def _second_evaluation(net, history, refs, x) -> np.ndarray:
    """Slacks recomputed by calling the network evaluators directly."""
    slacks = []
    for ref in refs:
        metric_id, _, tag = ref.id.rpartition("@s")
        scenario = history.scenarios[int(tag)]
        if metric_id == network.METRIC_ROUTING:
            f = network.routing_cost(net, scenario.demand, x)
        elif metric_id == network.METRIC_CONNECTIVITY:
            f = network.algebraic_connectivity(network.capacity_weights(net, x))
        else:
            s, t = network.parse_throughput_id(metric_id)
            f = network.max_flow(net, x, s, t)
        slacks.append(f / ref.value - 1.0 if ref.sense == Sense.MINIMIZE else 1.0 - f / ref.value)
    return np.asarray(slacks)


# ---------------------------------------------------------------------------
# Synthetic: 24-dimensional instances solved in every norm and mixed models


@dataclass
class SyntheticInstance:
    refs: list[MetricRef]      # Lipschitz models in all three norms
    mixed: list[MetricRef]     # l2 Lipschitz, supporting-hyperplane and quadratic-cap models
    region: FeasibleSet


class SyntheticWorkload:
    """Seeded 24-dimensional instances with 12 references at distinct points.

    The instances come from a fixed generator stream, so every run does the
    same solver work: bisection cycle counts vary several-fold between random
    instances, and averaging that out would take far more instances than a run
    holds.  The run seed draws a coordinate relabelling of each instance; the
    relabelled problem is equivalent, but its input arrays differ.
    """

    name = "synthetic"
    setup_repeats = 31  # a set-up takes about 5 ms
    op_counter = "solver.solves"
    dim = 24
    ref_count = 12
    stream_seed = 2410
    nominal_instance_s = 3.6

    def setup(self, seed: int, seconds: float):
        relabel = np.random.default_rng(seed)
        count = max(1, round(seconds / self.nominal_instance_s))
        return [self._instance(k, relabel.permutation(self.dim)) for k in range(count)]

    def _instance(self, k: int, perm: np.ndarray) -> SyntheticInstance:
        rng = np.random.default_rng([self.stream_seed, k])
        d = self.dim
        points = rng.uniform(1.0, 5.0, (self.ref_count, d))
        price = rng.uniform(0.5, 1.5, d)
        refs, mixed = [], []
        for i in range(self.ref_count):
            mono = rng.choice([-1, 0, 1], size=d, p=[0.4, 0.2, 0.4])[perm]
            sense = Sense.MINIMIZE if i % 2 == 0 else Sense.MAXIMIZE
            value = float(rng.uniform(1.0, 3.0))
            bound = float(rng.uniform(0.5, 2.0))
            l2 = LipschitzNorm(bound, Norm.L2, mono)
            models = (l2,
                      LipschitzNorm(bound * float(rng.uniform(0.5, 1.0)), Norm.L1, mono),
                      LipschitzNorm(bound * float(rng.uniform(1.0, 3.0)), Norm.LINF, mono))
            x_ref = points[i][perm]
            refs.append(MetricRef(id=f"m{i}", x_ref=x_ref, value=value, sense=sense, models=models))
            grad = rng.normal(0.0, 0.3, d)[perm]
            curvature = float(rng.uniform(0.05, 0.2))
            kind = i % 3
            if kind == 0:
                approx = (l2,)
            elif kind == 1:
                approx = (l2, ConcaveLinear(grad))
            else:
                approx = (ConvexQuadratic(grad, curvature),)
            mixed.append(MetricRef(id=f"m{i}", x_ref=x_ref, value=value, sense=sense,
                                   models=approx))
        budget = 1.5 * float(np.mean(points @ price))
        region = FeasibleSet.nonnegative(d, [(price[perm], budget)])
        return SyntheticInstance(refs, mixed, region)

    @staticmethod
    def _cases(instances):
        return [(inst, norm) for inst in instances for norm in (Norm.L2, Norm.L1, Norm.LINF, None)]

    def ops(self, instances):
        def solve(inst, norm):
            if norm is None:
                return solver.solve_approx(inst.mixed, inst.region, solver.SolveConfig())
            return solver.solve_caolf(inst.refs, inst.region, solver.SolveConfig(norm=norm))
        return [lambda inst=inst, norm=norm: solve(inst, norm)
                for inst, norm in self._cases(instances)]

    def check(self, instances, solutions, spans, meter, out: RunResult) -> None:
        tolerance = solver.SolveConfig().feasibility_tolerance
        for op, ((inst, norm), sol) in enumerate(zip(self._cases(instances), solutions)):
            out.op_ms.append(meter.seconds(*spans[op]) * 1000.0)
            if isinstance(sol, Exception):
                out.gammas.append(0.0)
                out.fail(op, f"solve raised {sol!r}")
                continue
            out.gammas.append(sol.gamma if math.isfinite(sol.gamma) else 0.0)
            out.record(float(sol.gamma).hex() + " " + hashlib.sha256(sol.x.tobytes()).hexdigest())
            if not math.isfinite(sol.gamma):
                out.fail(op, "non-finite gamma")
                continue
            refs = inst.mixed if norm is None else inst.refs
            needed = max(_surrogate(ref, sol.x, norm) for ref in refs)
            if needed > sol.gamma + 1e-9 * max(1.0, sol.gamma):
                out.fail(op, f"surrogate {needed!r} exceeds gamma {sol.gamma!r}")
            if not inst.region.contains(sol.x, tol=tolerance):
                out.fail(op, f"point outside the region by {inst.region.violation(sol.x):.3e}")


def _surrogate(ref: MetricRef, x: np.ndarray, norm: Norm | None) -> float:
    """Smallest gamma at which ``x`` meets ``ref``'s models, computed from scratch.

    ``norm`` None means the mixed-model surrogate of ``solve_approx``.
    """
    d = x - ref.x_ref
    worst = 0.0
    for m in ref.models:
        if isinstance(m, LipschitzNorm):
            if norm is not None and m.norm != norm:
                continue
            eff = -m.mono if ref.sense == Sense.MAXIMIZE else m.mono
            harm = np.where(eff > 0, np.maximum(d, 0.0), np.where(eff < 0, np.maximum(-d, 0.0), d))
            size = {Norm.L1: np.sum(np.abs(harm)), Norm.L2: np.sqrt(harm @ harm),
                    Norm.LINF: np.max(np.abs(harm))}[m.norm]
            worst = max(worst, m.bound / ref.value * float(size))
        elif isinstance(m, ConcaveLinear):
            worst = max(worst, float(m.grad @ d) / ref.value)
        else:
            worst = max(worst, (m.curvature * float(d @ d) + float(m.grad @ d)) / ref.value)
    return worst


WORKLOADS = {
    "sweep-l2": lambda: SweepWorkload("sweep-l2", _plan_l2),
    "sweep-lp": lambda: SweepWorkload("sweep-lp", _plan_lp),
    "verify": VerifyWorkload,
    "synthetic": SyntheticWorkload,
}

