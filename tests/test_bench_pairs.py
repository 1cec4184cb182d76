"""The pair summary of ``tools/bench_pairs.py`` on fabricated runs, and
where its runs take place."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.2},
           {"name": "ok_frac", "better": "higher", "bound": 0.01}]


def run(wall_s, ok_frac=1.0, digest="a"):
    return {"metrics": {"wall_s": {"value": wall_s}, "ok_frac": {"value": ok_frac}},
            "output_sha256": digest, "exit_code": 0}


def pairs(parent, change, **change_kw):
    return [{"parent": run(p), "change": run(c, **change_kw)} for p, c in zip(parent, change)]


PARENT = [1.00, 1.10, 0.90, 1.05, 0.95, 1.02, 0.98, 1.08, 0.92, 1.00]  # median 1.0, quartiles 0.9575 and 1.0425


def test_a_clear_gain_on_ten_pairs():
    change = [0.80, 0.85, 0.75, 0.82, 0.78, 0.81, 0.79, 0.84, 0.76, 0.80]
    wall = bench_pairs.summarize(pairs(PARENT, change), METRICS)["wall_s"]
    assert wall["change_wins"] == "10 of 10"
    assert wall["worse_by"] == pytest.approx(-0.2)
    assert wall["within_bound"] and wall["gain"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread():
    # 8 of 10 wins, though the medians are far apart
    change = [0.80, 0.85, 0.75, 0.82, 0.78, 0.81, 0.79, 0.84, 1.20, 1.30]
    assert not bench_pairs.summarize(pairs(PARENT, change), METRICS)["wall_s"]["gain"]
    # every pair won, by less than the parent's interquartile distance
    change = [p - 0.01 for p in PARENT]
    wall = bench_pairs.summarize(pairs(PARENT, change), METRICS)["wall_s"]
    assert wall["change_wins"] == "10 of 10" and not wall["gain"]
    # every pair won by far, but fewer than ten pairs ran
    change = [0.5 * p for p in PARENT[:9]]
    assert not bench_pairs.summarize(pairs(PARENT[:9], change), METRICS)["wall_s"]["gain"]


def test_worse_by_is_signed_by_the_better_direction():
    change = [1.25 * p for p in PARENT]
    summary = bench_pairs.summarize(pairs(PARENT, change, ok_frac=0.98), METRICS)
    assert summary["wall_s"]["worse_by"] == pytest.approx(0.25)
    assert not summary["wall_s"]["within_bound"] and not summary["wall_s"]["gain"]
    # ok_frac is better higher: 1.0 -> 0.98 is 2% worse, beyond its 1% bound
    assert summary["ok_frac"]["worse_by"] == pytest.approx(0.02)
    assert not summary["ok_frac"]["within_bound"]
    assert summary["ok_frac"]["change_wins"] == "0 of 10"
    # an unmoved metric is within any bound
    same = bench_pairs.summarize(pairs(PARENT, PARENT), METRICS)
    assert same["wall_s"]["worse_by"] == 0.0 and same["wall_s"]["within_bound"]
    assert same["wall_s"]["change_wins"] == "0 of 10"


WIDE = [0.60, 1.40, 0.70, 1.30, 1.00, 0.80, 1.20, 0.90, 1.10, 1.00]  # median 1.0, quartiles 0.825 and 1.175


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles are 35% of its median apart, beyond the 20% bound
    wall = bench_pairs.summarize(pairs(WIDE, WIDE[::-1]), METRICS)["wall_s"]
    assert wall["within_bound"] and wall["unresolved"]
    # a change that reads better in some pairs but not in all is still noise
    change = [p - 0.3 for p in WIDE]
    assert bench_pairs.summarize(pairs(WIDE, change), METRICS)["wall_s"]["unresolved"]


def test_a_wide_spread_with_a_clean_separation_is_resolved():
    # every change run reads better than every parent run
    change = [0.3 * p for p in WIDE]
    assert max(change) < min(WIDE)
    wall = bench_pairs.summarize(pairs(WIDE, change), METRICS)["wall_s"]
    assert not wall["unresolved"]


def test_a_tight_parent_is_resolved():
    # the parent's quartiles are 8.5% of its median apart, within the 20% bound,
    # so a change 25% worse is a resolved regression
    summary = bench_pairs.summarize(pairs(PARENT, [1.25 * p for p in PARENT]), METRICS)
    assert not summary["wall_s"]["unresolved"] and not summary["wall_s"]["within_bound"]
    assert not summary["ok_frac"]["unresolved"]


def test_a_move_from_zero_is_infinite():
    summary = bench_pairs.summarize([{"parent": run(1.0, ok_frac=0.0), "change": run(1.0)}], METRICS)
    assert summary["ok_frac"]["worse_by"] == float("-inf") and summary["ok_frac"]["within_bound"]
    assert summary["output_sha256"] == {"parent": ["a"], "change": ["a"]}
    assert summary["nonzero_exit"] == {"parent": 0, "change": 0}


def test_same_outputs_needs_one_shared_digest_on_both_sides():
    same = pairs(PARENT[:3], PARENT[:3])
    assert bench_pairs.summarize(same, METRICS)["same_outputs"]
    # the change's outputs differ from the parent's
    assert not bench_pairs.summarize(pairs(PARENT[:3], PARENT[:3], digest="b"), METRICS)["same_outputs"]
    # both sides agree on the first digest, but one run of each wrote another
    runs = same + [{"parent": run(1.0, digest="b"), "change": run(1.0, digest="b")}]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["output_sha256"] == {"parent": ["a", "b"], "change": ["a", "b"]}
    assert not summary["same_outputs"]
    # runs without a digest show nothing
    runs = [{"parent": run(1.0, digest=None), "change": run(1.0, digest=None)}]
    assert not bench_pairs.summarize(runs, METRICS)["same_outputs"]


@pytest.mark.parametrize("stash", ["", "5" * 40], ids=["clean", "local-edits"])
def test_both_sides_run_from_exports_side_by_side(monkeypatch, tmp_path, stash):
    # the parent and the change each run from their own export under one
    # temporary directory, never from the checkout: the change side exports
    # HEAD, or the commit `git stash create` makes when there are local edits
    refs = {("rev-parse", "--verify", "PARENT^{commit}"): "p" * 40,
            ("rev-parse", "HEAD"): "h" * 40, ("stash", "create"): stash}
    exports, runs = {}, []

    def export_tree(ref, dest):
        assert dest.is_dir() and not any(dest.iterdir())
        exports[dest] = ref

    def run_once(tree, workload, seed, seconds):
        runs.append(tree)
        return {"metrics": {name: {"value": 1.0} for name in
                            ("setup_s", "wall_s", "op_p50_ms", "gamma_sum", "ok_frac", "peak_rss_mb")},
                "output_sha256": "a", "exit_code": 0}

    monkeypatch.setattr(bench_pairs, "git", lambda *argv: refs[argv])
    monkeypatch.setattr(bench_pairs, "export_tree", export_tree)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "PARENT", "--out", str(out), "--pairs", "verify=3"]) == 0
    (parent, parent_ref), (change, change_ref) = exports.items()
    assert parent_ref == "p" * 40 and change_ref == (stash or "h" * 40)
    assert parent.parent == change.parent and parent != change
    assert bench_pairs.ROOT not in (parent, change, *parent.parents)
    assert not parent.parent.exists()  # removed afterwards
    # the side that goes first alternates, each side in its own tree
    assert runs == [parent, change, change, parent, parent, change]
    report = json.loads(out.read_text())
    assert report["parent"] == "p" * 40
    assert report["change"] == "h" * 40 + (f" with local edits ({stash})" if stash else "")
