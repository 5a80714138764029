"""Command-line behavior: output formats, exit codes, determinism."""

import ast
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qrobust
from qrobust.cli import parse_complex, run
from qrobust.errors import PreconditionError
from qrobust.model import model_to_json
from qrobust.opa import OpaParams, build_opa_model
from qrobust.uncertainty import uncertainty_to_json

FLAGSHIP = OpaParams(chi=0.1, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0)


@pytest.fixture()
def model_files(tmp_path):
    model, g, unc = build_opa_model(FLAGSHIP)
    stable = tmp_path / "stable.json"
    stable.write_text(model_to_json(model))
    unc_path = tmp_path / "unc.json"
    unc_path.write_text(uncertainty_to_json(unc))
    bad_model, _, _ = build_opa_model(
        OpaParams(chi=1.2, kappa_a=2.0, kappa_b=4.0, abar=1.0, bbar=1.0))
    unstable = tmp_path / "unstable.json"
    unstable.write_text(model_to_json(bad_model))
    return stable, unc_path, unstable


def test_parse_complex():
    assert parse_complex("1.5,-2") == 1.5 - 2j
    assert parse_complex("3") == 3 + 0j
    with pytest.raises(PreconditionError):
        parse_complex("1,2,3")
    with pytest.raises(PreconditionError):
        parse_complex("abc")


def test_certify_stable_json_report(model_files, capsys):
    stable, unc_path, _ = model_files
    code = run(["certify", str(stable), "--uncertainty", str(unc_path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "certified"
    assert abs(doc["hinf"] - 100.0 / 99.0) < 1e-6
    assert doc["P"]["route"]
    assert len(doc["P"]["P"]) == 2


def test_certify_text_format(model_files, capsys):
    stable, unc_path, _ = model_files
    code = run(["certify", str(stable), "--uncertainty", str(unc_path),
                "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: certified" in out
    assert "certificate_route:" in out


def test_certify_unstable_exits_one(model_files, capsys):
    _, _, unstable = model_files
    code = run(["certify", str(unstable)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"] == "not-hurwitz"
    assert doc["hinf"] is None


def test_certify_gamma_override_flips_verdict(model_files, capsys):
    stable, _, _ = model_files
    # gamma/2 just below the flagship gain 100/99
    code = run(["certify", str(stable), "--gamma", "2.0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"] == "gain-violated"


def test_certify_missing_file_exits_two(capsys):
    code = run(["certify", "does_not_exist.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_certify_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_a": }')
    code = run(["certify", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("flag, value", [("--delta1", "nan"), ("--delta1", "inf"),
                                         ("--delta2", "nan"), ("--delta2", "inf")])
def test_certify_rejects_nonfinite_offset(model_files, capsys, flag, value):
    stable, _, _ = model_files
    code = run(["certify", str(stable), "--gamma", "50", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_certify_rejects_offsets_whose_bound_overflows(model_files, capsys):
    # each offset is finite, but their sum is not
    stable, _, _ = model_files
    code = run(["certify", str(stable), "--gamma", "inf",
                "--delta1", "1e308", "--delta2", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: mean-square bound overflows")
    assert captured.out == ""


def test_freqresp_csv(model_files, capsys):
    stable, _, _ = model_files
    code = run(["freqresp", str(stable), "--points", "10"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,re,im,magnitude"
    assert len(lines) == 11
    first = lines[1].split(",")
    # low-frequency magnitude approaches |H(0)| = 100/99
    assert abs(float(first[3]) - 100.0 / 99.0) < 1e-4


def test_freqresp_output_file(model_files, tmp_path):
    stable, _, _ = model_files
    target = tmp_path / "resp.csv"
    code = run(["freqresp", str(stable), "--points", "8",
                "--output", str(target)])
    assert code == 0
    assert target.read_text().startswith("omega,re,im,magnitude\n")


@pytest.mark.parametrize("flag", ["--omega-lo", "--omega-hi"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_freqresp_rejects_bad_grid_bound(model_files, capsys, flag, value):
    stable, _, _ = model_files
    code = run(["freqresp", str(stable), "--points", "8", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_uncertainty_subcommand(model_files, capsys):
    _, unc_path, _ = model_files
    code = run(["uncertainty", str(unc_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["gamma"] - 50.0) < 1e-6
    assert abs(doc["delta1"] - 0.04) < 1e-10
    assert doc["delta2"] == 0.0


def test_moments_satisfied(model_files, tmp_path, capsys):
    stable, _, _ = model_files
    csv_path = tmp_path / "traj.csv"
    code = run(["moments", str(stable), "--coupling", "0.2,0",
                "--csv", str(csv_path), "--t-final", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["satisfied"] is True
    assert doc["ms_value"] <= doc["c_bound"]
    text = csv_path.read_text()
    assert text.startswith("t,ms_value\n")
    assert len(text.strip().splitlines()) > 10


def test_moments_unstable_reports_infinite_value(model_files, tmp_path, capsys):
    _, _, unstable = model_files
    code = run(["moments", str(unstable), "--coupling", "0.024,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["c_bound"] is None
    assert doc["ms_value"] == float("inf")
    assert doc["satisfied"] is False


def test_moments_bad_coupling_exits_two(model_files, capsys):
    stable, _, _ = model_files
    code = run(["moments", str(stable), "--coupling", "x"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [["--t-final", "nan"], ["--t-final", "-1"],
                                   ["--t-final", "inf"], ["--dt", "0"]])
def test_moments_bad_horizon_or_step_writes_nothing(model_files, tmp_path, capsys, flags):
    stable, _, _ = model_files
    csv_path = tmp_path / "traj.csv"
    code = run(["moments", str(stable), "--coupling", "0.2,0", "--csv", str(csv_path)] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""
    assert not csv_path.exists()


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-6", "inf"])
def test_opa_rejects_bad_tolerance(capsys, tol):
    code = run(["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4",
                "--abar", "1,0", "--bbar", "1,0", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: tol must be positive and finite")
    assert captured.out == ""


def test_opa_point_run(capsys):
    code = run(["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4",
                "--abar", "1,0", "--bbar", "1,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["agree"] is True
    assert doc["generic"]["verdict"] == "certified"


def test_opa_negative_verdict_exits_one(capsys):
    code = run(["opa", "--chi", "0.5", "--kappa-a", "2", "--kappa-b", "0.1",
                "--abar", "2,0", "--bbar", "0.5,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["generic"]["verdict"] == "gain-violated"


def test_opa_sweep_csv_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code = run(["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4",
                "--abar", "1,0", "--bbar", "1,0", "--sweep", "15",
                "--seed", "5", "--csv", str(target)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["sweep"]["count"] == 15
    assert doc["sweep"]["all_agree"] is True
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("index,chi,kappa_a")
    assert len(lines) == 16


def test_opa_sweep_stdout(capsys):
    code = run(["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4",
                "--abar", "1,0", "--bbar", "1,0", "--sweep", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "index,chi,kappa_a" in out


def test_fockcheck_small_run(capsys):
    code = run(["fockcheck", "--dim", "20", "--trials", "1", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "identities pass" in out
    assert "fail" not in out.replace("pass/fail", "")


def test_fockcheck_rejects_small_dim(capsys):
    code = run(["fockcheck", "--dim", "10"])
    assert code == 2
    assert "at least 20" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4", "--abar", "1,0",
     "--bbar", "1,0", "--sweep", "2", "--seed", "-1"],
    ["opa", "--chi", "0.1", "--kappa-a", "2", "--kappa-b", "4", "--abar", "1,0",
     "--bbar", "1,0", "--sweep", "-3"],
    ["fockcheck", "--dim", "20", "--trials", "1", "--seed", "-1"],
], ids=["opa-seed", "opa-sweep", "fockcheck-seed"])
def test_negative_seed_or_count_exits_two(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "nonnegative" in captured.err
    assert captured.out == ""


def test_cli_byte_determinism(model_files, capsys):
    stable, unc_path, _ = model_files
    outputs = []
    for _ in range(2):
        assert run(["certify", str(stable), "--uncertainty",
                    str(unc_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize costs about 20 MB of resident memory at every start
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrobust.__file__)))
    code = "import sys, qrobust, qrobust.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py traces the program by rebinding these attributes,
    # so each must exist after a plain import
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")
    with open(path) as f:
        tree = ast.parse(f.read())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    assert targets
    for modname, attr, _ in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
