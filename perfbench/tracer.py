"""Per-layer tracing of caolf, applied from outside the package.

The tracer replaces the public entry points of each caolf module with timing
wrappers for the length of a traced pass and restores them afterwards; no
code under ``src/`` knows it exists.  Coarse calls (solves, LPs, metric
evaluators, experiment builds) are kept as spans in memory: name, start,
end, parent span and operation id.  The geometry primitives run millions of
times per sweep, so they are timed and counted but not kept as spans.

A layer's self time is the time inside its calls minus the time inside
wrapped calls they make, whatever layer those belong to.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.op_counter = ""  # the call counter whose calls each start a new operation
        self._stack: list[list] = []  # [start, child seconds, span index]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer: str, keep_span: bool, on_result=None, counter: str | None = None):
        clock = time.perf_counter
        stack = self._stack
        counts, total_s, self_s, spans = self.counts, self.total_s, self.self_s, self.spans
        calls_key = counter or layer + ".calls"

        def traced(*args, **kwargs):
            if keep_span:
                if calls_key == self.op_counter:
                    self.op_id += 1
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                index = len(spans)
                spans.append([layer + ":" + fn.__name__, 0.0, 0.0, parent, self.op_id])
            else:
                index = -1
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                total_s[layer] += elapsed
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    spans[index][1] = frame[0]
                    spans[index][2] = end
            counts[calls_key] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def patch_everywhere(self, modules, original, replacement) -> None:
        """Rebind every module-level name that refers to ``original``."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, name, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- install over caolf ------------------------------------------------

    def install(self, caolf) -> None:
        """Wrap the entry points of every caolf layer."""
        from caolf import bench, geometry, lp, model, network, solver

        modules = (caolf, geometry, model, solver, lp, network, bench)
        counts = self.counts

        def lp_result(prefix):
            def record(sol):
                counts[prefix + ".pivots"] += sol.iterations
                if sol.status != lp.LpStatus.OPTIMAL:
                    counts["lp.non_optimal"] += 1
            return record

        def solve_result(sol):
            if sol.diagnostics.method.startswith("bisection-projection"):
                counts["solver.cycles"] += sol.diagnostics.iterations

        # one wrapper per caller module, so LP work is split by caller
        self.patch(solver, "solve_lp",
                   self.wrap(lp.solve_lp, "lp.epigraph", True, lp_result("lp.epigraph")))
        self.patch(network, "solve_lp",
                   self.wrap(lp.solve_lp, "lp.routing", True, lp_result("lp.routing")))

        coarse = [
            (bench.build_experiment, "bench.build_experiment", None, None),
            (bench.run_sweep, "bench.run_sweep", None, None),
            (solver.solve_caolf, "solver", solve_result, "solver.solves"),
            (solver.solve_approx, "solver", solve_result, "solver.solves"),
            (solver.verify_competitiveness, "solver", None, "solver.verify_calls"),
            (network.routing_cost, "network.routing", None, None),
            (network.max_flow, "network.dinic", None, None),
            (network.algebraic_connectivity, "network.lambda2", None, None),
        ]
        for fn, layer, hook, counter in coarse:
            self.patch_everywhere(modules, fn, self.wrap(fn, layer, True, hook, counter))
        self.patch(model.FeasibleSet, "find_point",
                   self.wrap(model.FeasibleSet.find_point, "model.find_point", True))

        for fn, layer in ((geometry.clip, "geometry.clip"),
                          (geometry.max_violation, "geometry"),
                          (geometry.dykstra, "geometry")):
            self.patch_everywhere(modules, fn, self.wrap(fn, layer, False))
        for cls in (geometry.LowerBoundSet, geometry.HalfspaceSet,
                    geometry.ClippedBallSet, geometry.BallSet):
            self.patch(cls, "project", self.wrap(cls.project, "geometry.project", False))
            self.patch(cls, "violation", self.wrap(cls.violation, "geometry.violation", False))

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, tot, own = self.counts, self.total_s, self.self_s
        geometry_self = sum(own[k] for k in ("geometry", "geometry.clip",
                                             "geometry.project", "geometry.violation"))
        ms = 1000.0
        return {
            "geometry.clip_calls": (c["geometry.clip.calls"], "count"),
            "geometry.project_calls": (c["geometry.project.calls"], "count"),
            "geometry.violation_calls": (c["geometry.violation.calls"], "count"),
            "geometry.self_ms": (geometry_self * ms, "ms"),
            "solver.solves": (c["solver.solves"], "count"),
            "solver.cycles": (c["solver.cycles"], "count"),
            "solver.self_ms": (own["solver"] * ms, "ms"),
            "model.find_point_calls": (c["model.find_point.calls"], "count"),
            "model.find_point_ms": (tot["model.find_point"] * ms, "ms"),
            "lp.epigraph.calls": (c["lp.epigraph.calls"], "count"),
            "lp.epigraph.pivots": (c["lp.epigraph.pivots"], "count"),
            "lp.epigraph.ms": (tot["lp.epigraph"] * ms, "ms"),
            "lp.routing.calls": (c["lp.routing.calls"], "count"),
            "lp.routing.pivots": (c["lp.routing.pivots"], "count"),
            "lp.routing.ms": (tot["lp.routing"] * ms, "ms"),
            "lp.non_optimal": (c["lp.non_optimal"], "count"),
            "network.routing.self_ms": (own["network.routing"] * ms, "ms"),
            "network.dinic.calls": (c["network.dinic.calls"], "count"),
            "network.dinic.ms": (tot["network.dinic"] * ms, "ms"),
            "network.lambda2.calls": (c["network.lambda2.calls"], "count"),
            "network.lambda2.ms": (tot["network.lambda2"] * ms, "ms"),
            "bench.build_experiment.ms": (tot["bench.build_experiment"] * ms, "ms"),
            "bench.run_sweep.self_ms": (own["bench.run_sweep"] * ms, "ms"),
        }
