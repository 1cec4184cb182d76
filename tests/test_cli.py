"""End-to-end checks of the command-line interface."""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from caolf.bench import CSV_HEADER
from caolf.cli import build_parser, main


def write_instance(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def two_anchor_instance(gamma=None, point=None):
    # anchors at 0 and 1 with bounds 2 and 1: best gamma is 2/3 at x = 1/3
    payload = {
        "region": {"lower": [None]},
        "metrics": [
            {"id": "left", "x_ref": [0.0], "value": 1.0, "sense": "min",
             "models": [{"kind": "lipschitz", "bound": 2.0, "norm": "l2", "mono": [0]}]},
            {"id": "right", "x_ref": [1.0], "value": 1.0, "sense": "min",
             "models": [{"kind": "lipschitz", "bound": 1.0, "norm": "l2", "mono": [0]}]},
        ],
        "box": [[-0.5, 1.5]],
    }
    if gamma is not None:
        payload["gamma"] = gamma
    if point is not None:
        payload["point"] = point
    return payload


def test_solve_reports_the_closed_form(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", two_anchor_instance())
    assert main(["solve", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert out["x"][0] == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert out["method"]


def test_solve_writes_output_file(tmp_path):
    inst = write_instance(tmp_path / "inst.json", two_anchor_instance())
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst, "--out", str(out_path)]) == 0
    saved = json.loads(out_path.read_text())
    assert saved["gamma"] == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_solve_l1_norm_flag(tmp_path, capsys):
    payload = two_anchor_instance()
    for metric in payload["metrics"]:
        metric["models"][0]["norm"] = "l1"
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["solve", inst, "--norm", "l1"]) == 0
    out = json.loads(capsys.readouterr().out)
    # one dimension: every norm gives the same answer
    assert out["gamma"] == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_solve_rejects_a_norm_with_no_model(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", two_anchor_instance())
    assert main(["solve", inst, "--norm", "l1"]) == 2
    assert "no Lipschitz model" in capsys.readouterr().err


def test_solve_dispatches_mixed_models(tmp_path, capsys):
    payload = {
        "region": {"lower": [None]},
        "metrics": [
            {"id": "cap", "x_ref": [0.0], "value": 3.0, "sense": "min",
             "models": [{"kind": "quadratic", "grad": [-2.0], "curvature": 1.0}]},
            {"id": "ball", "x_ref": [2.0], "value": 1.0, "sense": "min",
             "models": [{"kind": "lipschitz", "bound": 1.0, "norm": "l2", "mono": [0]}]},
        ],
    }
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["solve", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] >= 0.0
    assert "mixed" in out["method"]


def test_solve_settles_boxes_that_meet_with_gamma_zero(tmp_path, capsys):
    # two decreasing metrics: their safe boxes [1, inf) x [0, inf) and
    # [0, inf) x [2, inf) meet in [1, inf) x [2, inf), inside x1 + x2 <= 4
    def lipschitz(bound):
        return [{"kind": "lipschitz", "bound": bound, "norm": norm, "mono": [-1, -1]}
                for norm in ("l2", "l1")]
    payload = {"region": {"lower": [0.0, 0.0], "halfspaces": [{"a": [1.0, 1.0], "b": 4.0}]},
               "metrics": [{"id": "a", "x_ref": [1.0, 0.0], "value": 1.0, "models": lipschitz(1.0)},
                           {"id": "b", "x_ref": [0.0, 2.0], "value": 2.0, "models": lipschitz(3.0)}]}
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["solve", inst]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert (sol["gamma"], sol["method"]) == (0.0, "zero-lp")
    payload.update(point=sol["x"], gamma=sol["gamma"])
    assert main(["verify", write_instance(tmp_path / "checked.json", payload)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert main(["solve", inst, "--norm", "l1"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == 0.0


def test_verify_accepts_the_optimum(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json",
                          two_anchor_instance(gamma=2.0 / 3.0 + 1e-6, point=[1.0 / 3.0]))
    assert main(["verify", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["region_ok"]
    assert all(m["ok"] for m in out["metrics"])


def test_verify_rejects_an_understated_gamma(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json",
                          two_anchor_instance(gamma=0.3, point=[1.0 / 3.0]))
    assert main(["verify", inst]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]


def test_verify_counts_a_linear_model_next_to_a_lipschitz_one(tmp_path, capsys):
    # moving up is harmless to the decreasing Lipschitz model but costs the
    # linear one (x - 0) * 1 / 1 = 1, which solve_approx certifies at x = 1
    payload = {"region": {"lower": [None]}, "point": [1.0], "gamma": 0.0, "metrics": [
        {"id": "both", "x_ref": [0.0], "value": 1.0, "models": [
            {"kind": "lipschitz", "bound": 1.0, "norm": "l2", "mono": [-1]},
            {"kind": "linear", "grad": [1.0]}]}]}
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["verify", inst]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"] and out["region_ok"]
    assert out["metrics"] == [{"id": "both", "needed_gamma": 1.0, "ok": False}]


def test_verify_accepts_a_quadratic_only_metric(tmp_path, capsys):
    # (curvature * 1 + grad * 1) / value = (1 + 1) / 2 at x = 1
    payload = {"region": {"lower": [None]}, "point": [1.0], "gamma": 1.0, "metrics": [
        {"id": "bowl", "x_ref": [0.0], "value": 2.0,
         "models": [{"kind": "quadratic", "grad": [1.0], "curvature": 1.0}]}]}
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["verify", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["metrics"] == [{"id": "bowl", "needed_gamma": 1.0, "ok": True}]
    payload["gamma"] = 0.5
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["verify", inst]) == 1
    capsys.readouterr()
    # `solve` refuses mixed models outside l2, and so does verify
    assert main(["verify", inst, "--norm", "l1"]) == 2
    assert "l2" in capsys.readouterr().err


def test_verify_requires_point_and_gamma(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", two_anchor_instance(gamma=0.5))
    assert main(["verify", inst]) == 2
    assert "point" in capsys.readouterr().err


def test_oracle_matches_solver(tmp_path, capsys):
    inst = write_instance(tmp_path / "inst.json", two_anchor_instance())
    assert main(["oracle", inst, "--resolution", "401"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == pytest.approx(2.0 / 3.0, abs=5e-3)


def test_oracle_solve_and_verify_share_every_model(tmp_path, capsys):
    # oracle used to drop the linear model and answer 0 at x = 1; solve and
    # verify used to exit 2 on the l1 model beside the linear one
    payload = {"region": {"lower": [None]}, "box": [[-0.5, 1.5]], "metrics": [
        {"id": "both", "x_ref": [0.0], "value": 1.0, "models": [
            {"kind": "lipschitz", "bound": 1.0, "norm": "l2", "mono": [-1]},
            {"kind": "lipschitz", "bound": 1.0, "norm": "l1", "mono": [-1]},
            {"kind": "linear", "grad": [1.0]}]},
        {"id": "far", "x_ref": [1.0], "value": 1.0, "models": [
            {"kind": "lipschitz", "bound": 1.0, "norm": "l2", "mono": [0]}]}]}
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["oracle", inst, "--resolution", "201"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == pytest.approx(0.5, abs=1e-9)
    assert out["x"][0] == pytest.approx(0.5, abs=1e-9)
    assert main(["solve", inst]) == 0
    sol = json.loads(capsys.readouterr().out)
    assert sol["gamma"] == pytest.approx(0.5, abs=1e-5) and "mixed" in sol["method"]
    payload.update(point=sol["x"], gamma=sol["gamma"])
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["verify", inst]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_only_the_oracle_takes_no_tolerance(tmp_path, capsys):
    # the grid oracle never read --tol, so it accepted any value, NaN too
    inst = write_instance(tmp_path / "inst.json", two_anchor_instance())
    with pytest.raises(SystemExit) as usage:
        main(["oracle", inst, "--tol", "1"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    for argv in (["solve", inst], ["sweep"], ["verify", inst]):
        assert build_parser().parse_args([*argv, "--tol", "1"]).tol == 1.0


def test_oracle_needs_a_box(tmp_path, capsys):
    payload = two_anchor_instance()
    del payload["box"]
    inst = write_instance(tmp_path / "inst.json", payload)
    assert main(["oracle", inst]) == 2
    assert "box" in capsys.readouterr().err


def test_sweep_smoke_writes_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--nodes", "4", "--edges", "7", "--scenarios", "2",
                 "--norm", "l2", "--seed", "3", "--tol", "1e-3", "--no-timing",
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "budget_mult,norm,gamma,metric_id,ratio,wall_ms,iters"
    assert len(lines) > 1
    assert all(",0.000," in ln for ln in lines[1:])


def test_sweep_prints_the_bytes_it_writes_with_out(tmp_path, capsys):
    argv = ["sweep", "--nodes", "4", "--norm", "l1", "--no-timing"]
    out_path = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    for extra in ([], ["--out", ""]):  # an empty path writes to stdout too
        assert main(argv + extra) == 0
        assert capsys.readouterr().out.encode() == out_path.read_bytes()


def test_sweep_edge_count_scales_with_the_node_count(capsys):
    # 4 nodes have 12 ordered pairs, fewer than the default 30 edges
    assert main(["sweep", "--nodes", "4", "--norm", "l1", "--no-timing"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER
    assert main(["sweep", "--nodes", "4", "--edges", "40", "--norm", "l1", "--no-timing"]) == 2
    assert "more edges than ordered node pairs" in capsys.readouterr().err


def test_a_tolerance_that_is_not_a_finite_number_exits_with_error(tmp_path, capsys):
    # a NaN --tol hung solve and sweep, and made verify report a violation
    inst = write_instance(tmp_path / "inst.json",
                          two_anchor_instance(gamma=2.0 / 3.0 + 1e-6, point=[1.0 / 3.0]))
    for tol in ("nan", "inf", "0", "-1"):
        assert main(["solve", inst, "--tol", tol]) == 2
        assert main(["sweep", "--nodes", "4", "--norm", "l2", "--tol", tol]) == 2
        assert "positive and finite" in capsys.readouterr().err
    for tol in ("nan", "inf", "-1"):
        assert main(["verify", inst, "--tol", tol]) == 2
        assert "--tol must be finite" in capsys.readouterr().err
    # verify allows an exact check
    assert main(["verify", inst, "--tol", "0"]) == 0


def test_missing_instance_file_exits_with_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_exits_with_error(tmp_path, capsys):
    def broken(edit):
        payload = two_anchor_instance(gamma=0.7, point=[0.3])
        edit(payload)
        return payload

    every = ("solve", "verify", "oracle")
    cases = [
        ({"metrics": []}, "no metrics", every),
        (broken(lambda p: p["metrics"][0].update(sense="minimise")), "unknown sense", every),
        (broken(lambda p: p["metrics"][0].pop("x_ref")), "'x_ref'", every),
        (broken(lambda p: p["metrics"][1]["models"][0].pop("bound")), "'bound'", every),
        (broken(lambda p: p["region"].update(halfspaces=[{"a": [1.0]}])), "'b'", every),
        (broken(lambda p: p["metrics"][0]["models"][0].update(mono=[True])), "-1, 0 or +1", every),
        (broken(lambda p: p["metrics"][0].update(models=[{"kind": "linear", "grad": [[1.0]]}])),
         "1-D", every),
        (broken(lambda p: p["metrics"][1].update(
            x_ref=[1.0, 2.0], models=[{"bound": 1.0, "mono": [0, 0]}])),
         "metric 'right' has dimension 2", every),
        ([two_anchor_instance()], "JSON object", every),
        # entries of the wrong type: the message is numpy's or Python's own
        (broken(lambda p: p["metrics"][0].update(value=[1.0])), "", every),
        (broken(lambda p: p["metrics"][0].update(models=3)), "", every),
        (broken(lambda p: p["region"].update(lower=3)), "", every),
        (broken(lambda p: p["region"].update(halfspaces=3)), "", every),
        (broken(lambda p: p["metrics"][1]["models"][0].update(bound=None)), "", every),
        (broken(lambda p: p.update(point={"a": 1})), "", ("verify",)),
        (broken(lambda p: p.update(gamma=[1])), "", ("verify",)),
        (broken(lambda p: p.update(point=[float("nan")])), "finite", ("verify",)),
        (broken(lambda p: p.update(point=[float("inf")])), "finite", ("verify",)),
        (broken(lambda p: p.update(gamma=float("nan"))), "finite", ("verify",)),
        (broken(lambda p: p.update(gamma=float("inf"))), "finite", ("verify",)),
        (broken(lambda p: p.update(box=3)), "", ("oracle",)),
    ]
    for payload, reason, commands in cases:
        inst = write_instance(tmp_path / "bad.json", payload)
        # exit 2, not a traceback, and not verify's 1 for a violated metric
        for command in commands:
            assert main([command, inst]) == 2, (command, payload)
            err = capsys.readouterr().err
            assert err.startswith("error:") and reason in err, (command, err)


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the only runtime dependency in pyproject.toml; scipy and
    # pytest are for the tests alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "caolf"}
    src = Path(__file__).resolve().parent.parent / "src" / "caolf"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay within the package
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_the_package_exports_resolve():
    import caolf

    namespace = {}
    exec("from caolf import *", namespace)
    for name in caolf.__all__:
        assert namespace[name] is getattr(caolf, name), name
