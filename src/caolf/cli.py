"""Command-line entry points: solve, sweep, verify, oracle."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import ExperimentConfig, emit_csv, run_sweep
from .geometry import Norm, Sense
from .model import (ClippedNormSurrogate, ConcaveLinear, ConvexQuadratic, FeasibleSet,
                    LipschitzNorm, MetricRef)
from .solver import SolveConfig, grid_oracle_caolf, solve_caolf


class _Entries(dict):
    """A JSON object whose missing entries raise a ValueError naming them."""

    def __init__(self, payload, what: str):
        if not isinstance(payload, dict):
            raise ValueError(f"{what} must be a JSON object")
        super().__init__(payload)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} needs a {key!r} entry")


def _parse_region(payload, dim: int) -> FeasibleSet:
    payload = _Entries(payload, "region")
    lower = payload.get("lower")
    if lower is None:
        lower = [None] * dim
    lower = [(-np.inf if v is None else float(v)) for v in lower]
    halfspaces = [_Entries(h, "halfspace") for h in payload.get("halfspaces", [])]
    halfspaces = [(np.asarray(h["a"], dtype=float), float(h["b"])) for h in halfspaces]
    return FeasibleSet(lower=np.asarray(lower), halfspaces=tuple(halfspaces))


def _parse_model(payload, what: str):
    payload = _Entries(payload, what)
    kind = payload.get("kind", "lipschitz")
    if kind == "lipschitz":
        return LipschitzNorm(bound=float(payload["bound"]),
                             norm=Norm(payload.get("norm", "l2")),
                             mono=payload["mono"])
    if kind == "linear":
        return ConcaveLinear(grad=np.asarray(payload["grad"], dtype=float))
    if kind == "quadratic":
        return ConvexQuadratic(grad=np.asarray(payload["grad"], dtype=float),
                               curvature=float(payload["curvature"]))
    raise ValueError(f"{what}: unknown model kind {kind!r}")


_SENSES = {"min": Sense.MINIMIZE, "minimize": Sense.MINIMIZE,
           "max": Sense.MAXIMIZE, "maximize": Sense.MAXIMIZE}


def _parse_metric(payload) -> MetricRef:
    ident = str(_Entries(payload, "metric").get("id", "metric"))
    payload = _Entries(payload, f"metric {ident!r}")
    sense = str(payload.get("sense", "min")).lower()
    if sense not in _SENSES:
        raise ValueError(f"{payload.what}: unknown sense {sense!r} (use min or max)")
    return MetricRef(
        id=ident,
        x_ref=np.asarray(payload["x_ref"], dtype=float),
        value=float(payload["value"]),
        sense=_SENSES[sense],
        models=tuple(_parse_model(m, f"{payload.what} model") for m in payload["models"]))


def load_instance(path):
    with open(path) as fh:
        payload = _Entries(json.load(fh), "instance")
    metrics = [_parse_metric(m) for m in payload["metrics"]]
    if not metrics:
        raise ValueError("instance has no metrics")
    region = _parse_region(payload.get("region", {}), metrics[0].dim)
    return payload, metrics, region


def _emit(payload, out_path) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    _, metrics, region = load_instance(args.instance)
    config = SolveConfig(norm=Norm(args.norm), gamma_tolerance=args.tol)
    sol = solve_caolf(metrics, region, config)
    _emit({
        "gamma": sol.gamma,
        "x": [float(v) for v in sol.x],
        "iterations": sol.diagnostics.iterations,
        "residual": sol.diagnostics.residual,
        "method": sol.diagnostics.method,
    }, args.out)
    return 0


def _cmd_sweep(args) -> int:
    norms = (Norm(args.norm),) if args.norm else (Norm.L1, Norm.L2, Norm.LINF)
    ordered_pairs = args.nodes * (args.nodes - 1)
    edges, pairs = args.edges, args.demand_pairs
    if edges is None:
        edges = min(ExperimentConfig.edge_count, ordered_pairs)
    if pairs is None:
        pairs = min(ExperimentConfig.demand_pairs, ordered_pairs)
    cfg = ExperimentConfig(seed=args.seed, norms=norms,
                           node_count=args.nodes, edge_count=edges,
                           scenario_count=args.scenarios,
                           demand_pairs=pairs,
                           gamma_tolerance=args.tol)
    emit_csv(run_sweep(cfg), args.out, include_timing=not args.no_timing)
    return 0


def _cmd_verify(args) -> int:
    if not 0 <= args.tol < np.inf:
        raise ValueError("--tol must be finite and at least 0")
    payload, metrics, region = load_instance(args.instance)
    x = np.asarray(payload["point"], dtype=float)
    gamma = float(payload["gamma"])
    # a NaN would read as a violated metric (exit 1) rather than as bad input
    if not (np.all(np.isfinite(x)) and np.isfinite(gamma)):
        raise ValueError("'point' and 'gamma' must be finite")
    if x.shape != (region.dim,):
        raise ValueError(f"'point' has shape {x.shape}, the instance has dimension {region.dim}")
    # the certificate `solve` reports
    needed = ClippedNormSurrogate(metrics, Norm(args.norm)).needed(x)
    report = [{"id": ref.id, "needed_gamma": float(need), "ok": bool(need <= gamma + args.tol)}
              for ref, need in zip(metrics, needed)]
    region_ok = region.violation(x) <= args.tol
    ok = region_ok and all(m["ok"] for m in report)
    _emit({"ok": bool(ok), "region_ok": bool(region_ok),
           "gamma": gamma, "metrics": report}, args.out)
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    payload, metrics, region = load_instance(args.instance)
    gamma, point = grid_oracle_caolf(metrics, region, resolution=args.resolution,
                                     box=payload["box"], norm=Norm(args.norm))
    _emit({"gamma": gamma, "x": [float(v) for v in point],
           "resolution": args.resolution}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caolf",
        description="Tolerance-minimizing scalarization against historical metric references.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_norm_default=True, with_tol=True):
        p.add_argument("--norm", choices=[n.value for n in Norm],
                       default="l2" if with_norm_default else None,
                       help="norm the Lipschitz models are stated in")
        if with_tol:
            p.add_argument("--tol", type=float, default=1e-6, help="tolerance parameter")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON path")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the synthetic budget sweep")
    common(p_sweep, with_norm_default=False)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--nodes", type=int, default=12)
    p_sweep.add_argument("--edges", type=int, default=None,
                         help="edge count (default: 30, capped at the ordered node pairs)")
    p_sweep.add_argument("--scenarios", type=int, default=5)
    p_sweep.add_argument("--demand-pairs", type=int, default=None,
                         help="demand pair count (default: scales with the node count)")
    p_sweep.add_argument("--no-timing", action="store_true",
                         help="write zero wall times for reproducible output")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="check a point against an instance")
    p_verify.add_argument("instance", help="instance JSON with 'point' and 'gamma'")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force small instances on a grid")
    p_oracle.add_argument("instance", help="instance JSON with a 'box' entry")
    p_oracle.add_argument("--resolution", type=int, default=101)
    common(p_oracle, with_tol=False)  # the grid has no tolerance to set
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
