"""Check that traced runs of one seed repeat exactly.

    python3 perfbench/check_determinism.py --seeds 1 4242 --seconds 20

For every workload and seed, runs ``run.py --trace 1`` twice and compares
every per-layer count (LP pivots per caller, projection cycles, evaluator
calls, ...) and the digest of the outputs, which for the sweeps covers the
``format_row(..., include_timing=False)`` bytes.  Exits 1 on any difference
or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("sweep-l2", "sweep-lp", "verify", "synthetic")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[6:])
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    return counts, env["output_sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 4242])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            first = traced_run(workload, seed, args.seconds)
            second = traced_run(workload, seed, args.seconds)
            same = first == second
            ok = ok and same
            print(f"{workload} seed {seed}: {'identical' if same else 'DIFFERENT'} "
                  f"(outputs {first[1]}, {len(first[0])} counts)")
            if not same:
                for name in sorted(set(first[0]) | set(second[0])):
                    if first[0].get(name) != second[0].get(name):
                        print(f"  {name}: {first[0].get(name)} != {second[0].get(name)}")
                if first[1] != second[1]:
                    print(f"  outputs: {first[1]} != {second[1]}")
            else:
                print("  " + ", ".join(f"{k}={v}" for k, v in sorted(first[0].items())))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
