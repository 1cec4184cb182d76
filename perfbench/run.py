"""Run one caolf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-l2 --seed 1 --seconds 20 --trace 0

Untraced runs (``--trace 0``) report the end-to-end metrics.  A traced run
(``--trace 1``) repeats the same work once untraced and once with every caolf
layer wrapped, reports the per-layer metrics and the tracing overhead, and
writes its spans to ``.bench_out/``.  Every metric is printed by name with
its unit; the last line is one JSON object.  The exit code is 0 only when
every output check passed.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One core-sized closed loop: BLAS gets one thread (at most nproc), and the
# setting must be in place before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_caolf():
    if not (SRC / "caolf" / "__init__.py").is_file():
        die(f"no caolf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import caolf
    if Path(caolf.__file__).resolve().parent != SRC / "caolf":
        die(f"imported caolf from {caolf.__file__}, not from {SRC}")
    return caolf


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "caolf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail(op_ms):
    """The highest percentile with at least ten ops beyond it, or None."""
    ordered = sorted(op_ms)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def main(argv=None) -> int:
    args = parse_args(argv)
    caolf = import_caolf()
    import numpy as np
    from speed import PROBE_REF_S
    from tracer import Tracer
    from workloads import WORKLOADS, one_pass, timed_setup

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    state, setup_s = timed_setup(workload, args.seed, args.seconds, workload.setup_repeats)
    result, *timing = one_pass(workload, state)
    workload.check(state, *timing, result)

    metrics: dict[str, tuple[float, str]] = {}
    checked = [result]
    if args.trace:
        tracer = Tracer()
        tracer.install(caolf)
        try:
            traced_state, traced_setup_s = timed_setup(workload, args.seed, args.seconds, 1)
            tracer.op_counter = workload.op_counter
            traced, *traced_timing = one_pass(workload, traced_state)
        finally:
            tracer.uninstall()
        workload.check(traced_state, *traced_timing, traced)
        checked.append(traced)
        if traced.digest.hexdigest() != result.digest.hexdigest():
            traced.fail(0, "traced outputs differ from untraced outputs")
        metrics.update(tracer.layer_metrics())
        metrics["trace.overhead_s"] = ((traced_setup_s + traced.wall_s)
                                       - (setup_s + result.wall_s), "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        finished = [ms for ms in result.op_ms if np.isfinite(ms)]
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (result.wall_s, "s")
        metrics["op_p50_ms"] = (statistics.median(finished) if finished else float("nan"), "ms")
        metrics["gamma_sum"] = (float(sum(result.gammas)), "1")
        metrics["ok_frac"] = ((result.attempted - len(result.failures)) / max(1, result.attempted), "1")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    attempted = sum(r.attempted for r in checked)
    failed = sum(len(r.failures) for r in checked)
    op_tail = tail([ms for ms in result.op_ms if np.isfinite(ms)])
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": BLAS_THREADS, "probe_ref_s": PROBE_REF_S, "git_commit": git_commit(),
        "src_sha256": source_digest(), "ops": result.attempted,
        "op_tail": (f"p{op_tail[1]:.0f} of {result.attempted} ops"
                    if op_tail else f"none: {result.attempted} ops, needs 11"),
        "output_sha256": result.digest.hexdigest()[:16],
    }
    print("# env " + json.dumps(env))
    for r in checked:
        for op, reason in sorted(r.failures.items()):
            print(f"# FAILED op {op}: {reason}")
    print(f"failed_frac = {failed / max(1, attempted):.6g} ({failed} of {attempted} ops)")
    print(f"raw_wall_s = {result.raw_wall_s:.6g} s (not scaled to the reference speed)")
    if op_tail:
        print(f"op_tail_ms = {op_tail[0]:.6g} ms (p{op_tail[1]:.0f}, {result.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
