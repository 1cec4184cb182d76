"""Compare this checkout with a parent commit on the perfbench workloads.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_6.json \\
        --pairs sweep-lp=10 --pairs sweep-l2=3 --pairs verify=3 --pairs synthetic=3

Both sides run from trees exported with ``git archive`` side by side into
one temporary directory (removed afterwards; set TMPDIR to choose where), so
neither runs from a location of its own and nothing is registered in the
repository.  The parent side exports ``--parent``; the change side exports
HEAD, or, when the checkout has local edits, the commit ``git stash create``
makes of them, which leaves the checkout and the stash list as they were.
That commit holds the tracked and the staged files only, so ``git add`` a
new file before a run.  For each workload, N pairs of untraced runs of
``python3 perfbench/run.py --workload W --seed S --seconds T`` are made, one
in each tree, one run at a time; the side that goes first alternates from
pair to pair.  T is ``run_seconds`` from ``BENCHMARK.json``, so every report
compares with the benchmark's bounds.  ``perfbench/`` is only run, never
imported.

The output file holds every run's final JSON line, ``output_sha256`` and exit
code.  Each workload's summary lists each side's distinct ``output_sha256``
values, sets ``same_outputs`` when both sides list exactly one and it is the
same (a run without a digest never counts), and counts each side's runs with
a nonzero exit code.  Per end-to-end metric, with the better direction and
the bound taken from ``BENCHMARK.json``, it gives:

- the median and quartiles of each side, and the number of pairs this
  checkout won (ties count for neither side);
- ``worse_by``: the change median's move against the parent median, relative
  to the parent median and positive when worse;
- ``within_bound``: whether ``worse_by`` is at most the metric's bound;
- ``unresolved``: whether the runs spread too widely to tell, that is, the
  parent's interquartile distance relative to its median exceeds the bound,
  and not every change run reads better than every parent run; such a
  metric is reported as noise, neither as unchanged nor as moved;
- ``gain``: whether a gain may be claimed, that is, at least ten pairs ran,
  the change won at least nine tenths of them, and its median is better than
  the parent's by more than the parent's interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the commit to compare with")
    parser.add_argument("--out", required=True, help="output path, BENCH_<n>.json by convention")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="run N pairs of WORKLOAD; repeat for more workloads")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    plan = []
    for item in args.pairs:
        name, _, count = item.partition("=")
        if not name or not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs needs WORKLOAD=N with N >= 1, got {item!r}")
        plan.append((name, int(count)))
    args.pairs = plan
    return args


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_tree(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``: its final JSON line plus the output digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode} without a result:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    result["output_sha256"] = env.get("output_sha256")
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def relative(move: float, base: float) -> float:
    """``move`` relative to ``base``; any move away from a base of 0 is infinite."""
    if base:
        return move / abs(base)
    return math.copysign(math.inf, move) if move else 0.0


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's pairs for ``metrics``, the
    ``end_to_end`` entries of ``BENCHMARK.json``."""
    digests = {side: list(dict.fromkeys(p[side]["output_sha256"] for p in pairs))
               for side in SIDES}
    out = {
        "output_sha256": digests,
        "same_outputs": digests["parent"] == digests["change"] and len(digests["parent"]) == 1
                        and digests["parent"][0] is not None,
        "nonzero_exit": {side: sum(p[side]["exit_code"] != 0 for p in pairs) for side in SIDES},
    }
    for metric in metrics:
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {side: quartiles(sides[side]) for side in SIDES}
        parent, change = out[name]["parent"], out[name]["change"]
        worse = sign * (change["median"] - parent["median"])
        worse_by = relative(worse, parent["median"])
        spread = relative(parent["q3"] - parent["q1"], parent["median"])
        separated = max(sign * c for c in sides["change"]) < min(sign * p for p in sides["parent"])
        out[name].update({
            "change_wins": f"{wins} of {len(pairs)}",
            "worse_by": worse_by,
            "within_bound": worse_by <= metric["bound"],
            "unresolved": spread > metric["bound"] and not separated,
            "gain": (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                     and -worse > parent["q3"] - parent["q1"]),
        })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    for name, _ in args.pairs:
        if name not in known:
            sys.exit(f"unknown workload {name!r}; choose from {', '.join(sorted(known))}")
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    head, edits = git("rev-parse", "HEAD"), git("stash", "create")
    report = {
        "parent": parent_sha,
        "change": head + (f" with local edits ({edits})" if edits else ""),
        "seed": args.seed, "run_seconds": spec["run_seconds"],
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, ref in zip(SIDES, (parent_sha, edits or head)):
            trees[side].mkdir()
            export_tree(ref, trees[side])
        for workload, count in args.pairs:
            pairs = []
            for i in range(count):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, args.seed, spec["run_seconds"])
                    wall = pair[side]["metrics"].get("wall_s", {}).get("value")
                    print(f"{workload} pair {i + 1}/{count} {side}: wall_s {wall}", flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {"pairs": pairs,
                                             "summary": summarize(pairs, spec["end_to_end"])}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
