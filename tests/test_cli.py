import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from perflat import (DividendProcess, ExponentialUtilityMeasure, GainLossRatio, TVar,
                     XVar, binomial_tree, coin2, lpm_ratio, random_tree, raroc)
from perflat.cli import main
from perflat.lattice import dump_json


@pytest.fixture
def files(tmp_path):
    space = coin2()
    paths = {
        "space": tmp_path / "coin2.json",
        "glr": tmp_path / "glr.json",
        "lpm": tmp_path / "lpm.json",
        "x": tmp_path / "x.json",
        "dir": tmp_path,
    }
    dump_json(space.to_json(), paths["space"])
    dump_json(GainLossRatio().to_json(), paths["glr"])
    dump_json(lpm_ratio(2.0).to_json(), paths["lpm"])
    dump_json(XVar(space, [3.0, -1.0]).to_json(), paths["x"])
    return {k: str(v) if k != "dir" else v for k, v in paths.items()}


def test_evaluate_prints_two(files, capsys):
    code = main(["evaluate", "--measure", files["glr"], "--space",
                 files["space"], "--var", files["x"], "--t", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_induce_prints_zero(files, capsys):
    code = main(["induce", "--measure", files["glr"], "--space", files["space"],
                 "--var", files["x"], "--t", "0", "--z", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize("command, level, error", [
    ("induce", ["--z", "nan"], "induction failed"),
    ("curve", ["--z-list", "0.5,nan"], "curve failed")])
def test_a_nan_level_prints_no_value(files, command, level, error, capsys):
    out = files["dir"] / "artifact.json"
    code = main([command, "--measure", files["glr"], "--space", files["space"],
                 "--var", files["x"], "--t", "0", *level, "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert json.loads(printed)["error"]["error"] == error
    assert not out.exists()


def test_space_filename_is_not_its_identity(files, tmp_path, capsys):
    # exported variables reference the embedded space name, not the file stem
    renamed = tmp_path / "whatever.json"
    renamed.write_bytes((tmp_path / "coin2.json").read_bytes())
    code = main(["evaluate", "--measure", files["glr"], "--space",
                 str(renamed), "--var", files["x"], "--t", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_validate_space_success(files, capsys):
    outs = [files["dir"] / f"space{i}.json" for i in (1, 2)]
    for out in outs:
        assert main(["validate-space", files["space"], "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "ok: 2 leaves, stages [0, 1]"
    assert outs[0].read_bytes() == outs[1].read_bytes()
    artifact = json.loads(outs[0].read_text())
    assert artifact["ok"] is True
    assert artifact["atoms"] == {"0": 1, "1": 2}


def test_validate_space_failure_names_invariant(files, tmp_path, capsys):
    bad = coin2().to_json()
    bad["leaves"][0]["p"] = 0.4
    bad_path = tmp_path / "bad.json"
    dump_json(bad, bad_path)
    code = main(["validate-space", str(bad_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert "sum to" in payload["error"]["message"]


def test_malformed_json_reports_position(tmp_path, capsys):
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"times": [0,\n  broken')
    code = main(["validate-space", str(mangled)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["line"] == 2
    assert "column" in payload["error"]


def test_usage_errors_exit_two(files, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["evaluate", "--space", files["space"]]) == 2  # missing flags
    capsys.readouterr()


@pytest.mark.parametrize("command, count", [
    (["check-axioms", "--t", "0", "--trials"], "-5"),
    (["check-consistency", "--trials"], "0"),
    (["lift", "--t", "0", "--dividend", "d.json", "--check"], "0")])
def test_a_trial_count_below_one_is_a_usage_error(files, command, count, capsys):
    # no trial would run, so every property would pass on nothing
    assert main([command[0], "--measure", files["glr"], "--space", files["space"],
                 *command[1:], count]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_missing_file_exit_one(files, capsys):
    code = main(["evaluate", "--measure", "nope.json", "--space",
                 files["space"], "--var", files["x"], "--t", "0"])
    assert code == 1
    assert "file not found" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, content, want", [
    ("evaluate", "--measure", {"kind": "nope"},
     {"error": "invalid measure", "message": "unknown measure kind 'nope'"}),
    ("evaluate", "--var", {"values": {"u": 1.0}},
     {"error": "invalid variable", "message": "values missing for leaves ['d']"}),
    ("lift", "--dividend", {"space": "elsewhere", "payments": {}},
     {"error": "invalid dividend stream",
      "message": "stream references space 'elsewhere', got 'coin2'"}),
    # a file that lacks an entry or holds the wrong JSON type names itself too
    ("lift", "--dividend", {"space": "coin2", "values": {"u": 1.0, "d": -1.0}},
     {"error": "invalid dividend stream", "type": "KeyError",
      "message": "'payments'"}),
    ("evaluate", "--measure", {"params": {}},
     {"error": "invalid measure", "type": "KeyError", "message": "'kind'"}),
    ("evaluate", "--var", {"space": "coin2"},
     {"error": "invalid variable", "type": "KeyError", "message": "'values'"}),
    ("evaluate", "--measure", ["glr"],
     {"error": "invalid measure", "type": "TypeError",
      "message": "list indices must be integers or slices, not str"}),
    ("evaluate", "--var", [3.0, -1.0],
     {"error": "invalid variable", "type": "AttributeError",
      "message": "'list' object has no attribute 'get'"}),
    ("evaluate", "--measure",
     {"kind": "reward_risk", "params": {**raroc(0.5).to_json(coin2())["params"],
                                        "infinite_when_risk_nonpositive": "false"}},
     {"error": "invalid measure",
      "message": "infinite_when_risk_nonpositive must be a JSON boolean"}),
], ids=["measure", "variable", "dividend", "dividend-without-payments",
        "measure-without-kind", "variable-without-values", "measure-as-list",
        "variable-as-list", "measure-flag-as-string"])
def test_invalid_input_file_exit_one(files, command, flag, content, want, capsys):
    bad = files["dir"] / "bad.json"
    dump_json(content, bad)
    other = "--var" if command == "evaluate" else "--dividend"
    inputs = {"--measure": files["glr"], "--space": files["space"], "--t": "0",
              other: files["x"], flag: str(bad)}
    code = main([command, *(s for item in inputs.items() for s in item)])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"error": {**want, "path": str(bad)}}


def test_bad_tolerance_rejected(files, capsys):
    code = main(["induce", "--measure", files["glr"], "--space", files["space"],
                 "--var", files["x"], "--t", "0", "--z", "2",
                 "--tol-c", "-1"])
    assert code == 1
    assert "tolerance" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [
    ("induce", "--tol-c"), ("reconstruct", "--tol-c"), ("reconstruct", "--tol-z")])
def test_a_nan_tolerance_is_refused(files, command, flag, capsys):
    # NaN is not <= 0 either: it must not run a search that stops at once
    level = ["--z", "1"] if command == "induce" else []
    code = main([command, "--measure", files["glr"], "--space", files["space"],
                 "--var", files["x"], "--t", "0", *level, flag, "nan"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["error"] == \
        "tolerance misconfiguration"


def test_unread_tolerance_flags_are_usage_errors(files, capsys):
    # check-axioms reads no tolerance, so the flag does not exist there
    assert main(["check-axioms", "--measure", files["glr"], "--space",
                 files["space"], "--t", "0", "--tol-z", "1e-8"]) == 2
    capsys.readouterr()


def test_artifacts_are_byte_identical(files, capsys):
    out1 = files["dir"] / "a1.json"
    out2 = files["dir"] / "a2.json"
    for out in (out1, out2):
        assert main(["check-axioms", "--measure", files["glr"], "--space",
                     files["space"], "--t", "0", "--trials", "40",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_curve_csv_and_artifact(files, capsys):
    out = files["dir"] / "curve.csv"
    code = main(["curve", "--measure", files["glr"], "--space", files["space"],
                 "--var", files["x"], "--t", "0", "--z-list", "0.5,1,2",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "atom_id,z,rho"
    assert len(lines) == 4
    capsys.readouterr()


def test_curve_json_artifact(files, capsys):
    outs = [files["dir"] / f"curve{i}.json" for i in (1, 2)]
    for out in outs:
        assert main(["curve", "--measure", files["glr"], "--space", files["space"],
                     "--var", files["x"], "--t", "0", "--z-list", "0.5,1,2",
                     "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    artifact = json.loads(outs[0].read_text())
    assert set(artifact) == {"config", "stage", "z", "rho", "limit_note",
                             "suspect_jumps"}
    assert artifact["z"] == [0.5, 1.0, 2.0]
    assert len(artifact["rho"]["u"]) == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_curve_prints_its_artifact_without_out(files, fmt, capsys):
    out = files["dir"] / f"curve.{fmt}"
    args = ["curve", "--measure", files["glr"], "--space", files["space"], "--var",
            files["x"], "--t", "0", "--z-list", "0.5,1,2", "--format", fmt]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    if fmt == "json":
        assert json.loads(printed)["z"] == [0.5, 1.0, 2.0]
    else:
        assert printed.splitlines()[0] == "atom_id,z,rho"


def test_curve_without_grid_fails(files, capsys):
    code = main(["curve", "--measure", files["glr"], "--space", files["space"],
                 "--var", files["x"], "--t", "0"])
    assert code == 1
    assert "grid" in capsys.readouterr().out


def test_reconstruct_reports_small_gap(files, capsys):
    code = main(["reconstruct", "--measure", files["glr"], "--space",
                 files["space"], "--var", files["x"], "--t", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2"


def test_reconstruct_compares_infinite_values_without_warning(tmp_path, capsys):
    # gain-loss is +inf on a stage-2 atom with no loss: both routes give +inf there
    space = binomial_tree(3)
    paths = [tmp_path / name for name in ("space.json", "glr.json", "x.json")]
    dump_json(space.to_json(), paths[0])
    dump_json(GainLossRatio().to_json(), paths[1])
    dump_json(XVar(space, [1.0, 2.0, -1.0, 3.0, 4.0, 5.0, -2.0, 1.0]).to_json(),
              paths[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", "--measure", str(paths[1]), "--space",
                     str(paths[0]), "--var", str(paths[2]), "--t", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "inf"
    assert lines[-1].startswith("max gap to direct evaluation: ")
    assert float(lines[-1].split()[-1]) <= 1e-6


def test_dual_agrees_with_bisection(files, capsys):
    out = files["dir"] / "dual.json"
    code = main(["dual", "--space", files["space"], "--var", files["x"],
                 "--t", "0", "--z", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"
    artifact = json.loads(out.read_text())
    assert float(artifact["max_gap"]) <= 1e-6


def test_evaluate_reports_a_value_below_float_range(tmp_path, capsys):
    # exponential utility at a leaf of -1000 is 1 - e^1000: below float range
    space = coin2()
    paths = [tmp_path / name for name in ("space.json", "exp.json", "x.json")]
    dump_json(space.to_json(), paths[0])
    dump_json(ExponentialUtilityMeasure(1.0).to_json(), paths[1])
    dump_json(XVar(space, [1.0, -1000.0]).to_json(), paths[2])
    code = main(["evaluate", "--measure", str(paths[1]), "--space", str(paths[0]),
                 "--var", str(paths[2]), "--t", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["error"] == "evaluation failed"


def test_dual_at_level_zero_fails(files, capsys):
    out = files["dir"] / "dual.json"
    code = main(["dual", "--space", files["space"], "--var", files["x"],
                 "--t", "0", "--z", "0", "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["error"] == "dual solve failed"
    assert not out.exists()


@pytest.mark.parametrize("check", [None, "20"])
def test_lift_values_a_stream(files, check, capsys):
    stream = files["dir"] / "stream.json"
    space = coin2()
    dump_json(DividendProcess(space, {0: 1.0, 1: TVar(space, 1, [2.0, -2.0])})
              .to_json(), stream)
    outs = [files["dir"] / f"lift{i}.json" for i in (1, 2)]
    extra = ["--check", check] if check else []
    for out in outs:
        assert main(["lift", "--measure", files["glr"], "--space", files["space"],
                     "--dividend", str(stream), "--t", "0", "--out", str(out),
                     *extra]) == 0
    # gain-loss ratio of the aggregate 1 + (2, -2) = (3, -1) at stage 0
    assert capsys.readouterr().out.splitlines()[0] == "2"
    assert outs[0].read_bytes() == outs[1].read_bytes()
    artifact = json.loads(outs[0].read_text())
    assert artifact["values"] == {"u": 2.0}
    if check:
        assert artifact["lift_axioms"]["passed"] is True
        assert artifact["lift_axioms"]["meta"]["trials"] == 20
    else:
        assert "lift_axioms" not in artifact


def test_consistency_writes_witness(tmp_path, capsys):
    tree = random_tree(np.random.default_rng(6))
    space_path = tmp_path / "tree.json"
    lpm_path = tmp_path / "lpm.json"
    dump_json(tree.to_json(), space_path)
    dump_json(lpm_ratio(2.0).to_json(), lpm_path)
    wpath = tmp_path / "w.json"
    code = main(["check-consistency", "--measure", str(lpm_path), "--space",
                 str(space_path), "--trials", "60", "--seed", "0",
                 "--witness-out", str(wpath)])
    assert code == 0  # a counterexample is a finding, not a failure
    assert "counterexample" in capsys.readouterr().out
    w = json.loads(wpath.read_text())
    assert set(w["values"]) == set(tree.leaf_ids)


def test_consistency_consistent_measure_writes_nothing(files, tmp_path, capsys):
    wpath = tmp_path / "w.json"
    code = main(["check-consistency", "--measure", files["glr"], "--space",
                 files["space"], "--trials", "20",
                 "--witness-out", str(wpath)])
    assert code == 0
    assert not wpath.exists()
    capsys.readouterr()


def test_consistency_refuses_an_empty_level_grid(files, capsys):
    # "," names no level; "" falls back to the default grid
    code = main(["check-consistency", "--measure", files["glr"], "--space",
                 files["space"], "--trials", "2", "--z-grid", ","])
    assert code == 1
    assert "level grid is empty" in capsys.readouterr().out


def test_paper_demo_passes(capsys):
    assert main(["paper-demo"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "perflat.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "paper-demo" in proc.stdout
