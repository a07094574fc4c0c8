import json
import math

import numpy as np
import pytest

from dpbound import model_to_json, validate_model
from dpbound.cli import cli_dispatch


@pytest.fixture
def scalar_model_file(tmp_path):
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, 10.0 ** 1.5, "real")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(m)))
    return str(path)


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_bound_rank1(capsys):
    code, doc = run_cli(capsys, "bound", "rank1", "--snr-db", "15",
                        "--inr-db", "40", "--ms", "1")
    assert code == 0
    assert doc["value_bits"] == pytest.approx(1.258126621224833, abs=1e-9)
    assert doc["soundness"] == "Exact"
    assert doc["gap_certificate"]["applies"] is True


def test_bound_general(capsys, scalar_model_file):
    code, doc = run_cli(capsys, "--quiet", "bound", "general",
                        "--model", scalar_model_file)
    assert code == 0
    assert doc["value_bits"] == pytest.approx(1.258126621224833, abs=1e-9)
    assert doc["soundness"] == "Exact"


def test_bound_general_rank_list(capsys, tmp_path):
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 10.0, 10.0)
    path = tmp_path / "mimo.json"
    path.write_text(json.dumps(model_to_json(m)))
    code, doc = run_cli(capsys, "--quiet", "bound", "general", "--model",
                        str(path), "--ranks", "1..2", "--restarts", "3")
    assert code == 0
    assert doc["soundness"] == "HeuristicSup"
    hand = 0.25 * (math.log2(36.0) + math.log2(106.0 ** 2 / 1e4))
    assert doc["raw_value_bits"] == pytest.approx(hand, abs=1e-6)


def test_dof(capsys):
    code, doc = run_cli(capsys, "dof", "--mt", "1", "--mr", "1", "--ms", "1",
                        "--amax-finite", "false", "--inr-scaling", "linear")
    assert code == 0
    assert doc["dof"] == 0.5


def test_baseline_int_free(capsys, scalar_model_file):
    code, doc = run_cli(capsys, "baseline", "int-free",
                        "--model", scalar_model_file)
    assert code == 0
    assert doc["int_free_bits"] == pytest.approx(2.5139038366752597)


def test_baseline_tin(capsys, scalar_model_file):
    code, doc = run_cli(capsys, "baseline", "tin",
                        "--model", scalar_model_file)
    assert code == 0
    assert doc["tin_bits"] == pytest.approx(0.0022772746288586, abs=1e-9)


def test_sweep_writes_files(capsys, tmp_path):
    out = tmp_path / "out"
    code, doc = run_cli(capsys, "--quiet", "sweep", "--snr-db", "15",
                        "--inr-start", "-10", "--inr-stop", "40",
                        "--step", "1", "--out", str(out))
    assert code == 0
    assert doc["points"] == 51
    assert len(doc["files"]) == 6
    assert (out / "bound.data").exists()


def test_sweep_trace_subset(capsys, tmp_path):
    out = tmp_path / "out"
    code, doc = run_cli(capsys, "--quiet", "sweep", "--snr-db", "15",
                        "--inr-start", "0", "--inr-stop", "5", "--step", "1",
                        "--out", str(out), "--traces", "prelog")
    assert code == 0
    assert (out / "prelog.data").exists()
    assert not (out / "bound.data").exists()


def test_usage_error_exit_code(capsys):
    assert cli_dispatch(["bound", "rank1", "--snr-db", "15"]) == 1
    capsys.readouterr()


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m_t": 1, "m_r": 1, "m_s": 1,
                               "H": [[1.0]], "Q_s": [[0.0]],
                               "a_max": 1.0, "P": 1.0, "field": "real"}))
    code = cli_dispatch(["--quiet", "bound", "general", "--model", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_model_file(capsys):
    code = cli_dispatch(["--quiet", "baseline", "tin", "--model", "/nope.json"])
    assert code == 1
    capsys.readouterr()


def test_bad_trace_exit_code(capsys, tmp_path):
    code = cli_dispatch(["--quiet", "sweep", "--snr-db", "15",
                         "--inr-start", "0", "--inr-stop", "1", "--step", "1",
                         "--out", str(tmp_path / "x"), "--traces", "nope"])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("ranks", ["2..1", "1,,2", "1,a", "x..2", ""])
def test_bound_general_rejects_bad_ranks(capsys, tmp_path, ranks):
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 10.0, 10.0)
    path = tmp_path / "mimo.json"
    path.write_text(json.dumps(model_to_json(m)))
    code, doc = run_cli(capsys, "--quiet", "bound", "general", "--model",
                        str(path), "--ranks", ranks)
    assert code == 1
    assert doc is None


def test_seed_environment_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("DPB_SEED", "abc")
    code, doc = run_cli(capsys, "dof", "--mt", "1", "--mr", "1", "--ms", "1",
                        "--amax-finite", "false", "--inr-scaling", "linear")
    assert code == 0
    assert doc["dof"] == 0.5


@pytest.mark.parametrize("ladder", ["0..9", "3..3", "0..999"])
def test_verify_splits_trials_over_ladder(capsys, ladder):
    code, doc = run_cli(capsys, "--quiet", "verify", "--seed-ladder", ladder)
    assert code == 0
    assert doc["passed"] is True
    assert doc["equivalence"]["cases"] == 20
    assert doc["concavity"]["trials"] == 1000
    lo, hi = (int(x) for x in ladder.split(".."))
    assert doc["seed_ladder"] == list(range(lo, hi + 1))


@pytest.mark.parametrize("ladder", ["abc", "1..", "..4", "x..3", "5..1",
                                    "-2..3", "0..1000", "0..10000000000000"])
def test_verify_rejects_bad_ladder(capsys, ladder):
    code = cli_dispatch(["--quiet", "verify", f"--seed-ladder={ladder}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--seed-ladder" in captured.err


@pytest.mark.parametrize("field, value", [
    ("H", [[float("nan"), 0.0], [0.0, 1.0]]),
    ("H", [[float("inf"), 0.0], [0.0, 1.0]]),
    ("Q_s", [[float("inf")]]),
    ("P", float("inf")),
])
def test_non_finite_model_rejected(capsys, tmp_path, field, value):
    doc = {"m_t": 2, "m_r": 2, "m_s": 1, "H": [[1.0, 0.0], [0.0, 1.0]],
           "Q_s": [[1.0]], "a_max": 1.0, "P": 1.0, "field": "real"}
    doc[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = cli_dispatch(["--quiet", "bound", "general", "--model", str(path),
                         "--restarts", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "finite" in err
    assert "converge" not in err and "LinAlgError" not in err
