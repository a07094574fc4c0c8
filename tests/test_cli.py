import json
import math

import numpy as np
import pytest

from dpbound import model_to_json, validate_model
from dpbound.cli import _emit, cli_dispatch

from conftest import BIG_CAP_MODEL


@pytest.fixture
def scalar_model_file(tmp_path):
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, 10.0 ** 1.5, "real")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(m)))
    return str(path)


def _not_strict_json(name):
    raise AssertionError(f"stdout is not strict JSON: it holds {name}")


def run_cli(capsys, *argv):
    """Exit code and stdout, parsed as strict JSON (no NaN or Infinity)."""
    code = cli_dispatch(list(argv))
    out = capsys.readouterr().out
    if not out.strip():
        return code, None
    return code, json.loads(out, parse_constant=_not_strict_json)


def rejects(capsys, *argv) -> str:
    """Assert that the command exits 1 with an error and no stdout; its stderr."""
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


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


@pytest.mark.parametrize("flag, dof", [("true", 1.0), ("FALSE", 0.5)])
def test_dof_amax_finite_any_case(capsys, flag, dof):
    code, doc = run_cli(capsys, "dof", "--mt", "1", "--mr", "1", "--ms", "1",
                        "--amax-finite", flag, "--inr-scaling", "sublinear")
    assert code == 0
    assert doc["dof"] == dof


@pytest.mark.parametrize("flag", ["yes", "1", "", "truee"])
def test_dof_rejects_non_boolean_amax_finite(capsys, flag):
    code = cli_dispatch(["dof", "--mt", "1", "--mr", "1", "--ms", "1",
                         f"--amax-finite={flag}", "--inr-scaling", "linear"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--amax-finite" in captured.err


def test_large_cap_model_accepted(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_CAP_MODEL))
    code, tin = run_cli(capsys, "--quiet", "baseline", "tin",
                        "--model", str(path))
    assert code == 0
    code, doc = run_cli(capsys, "--quiet", "bound", "general",
                        "--model", str(path), "--restarts", "2")
    assert code == 0
    assert tin["tin_bits"] <= doc["value_bits"] + 1e-9


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
                        "--out", str(out), "--traces", "half_if")
    assert code == 0
    assert (out / "half_if.data").exists()
    assert not (out / "bound.data").exists()


def test_sweep_prelog_trace_rejected(capsys, tmp_path):
    # "prelog" was a second name for the half_if trace
    code = cli_dispatch(["--quiet", "sweep", "--snr-db", "15",
                         "--inr-start", "0", "--inr-stop", "1", "--step", "1",
                         "--out", str(tmp_path / "x"), "--traces", "prelog"])
    assert code == 1
    assert not (tmp_path / "x").exists()
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ["--quiet", "bound", "general", "--ranks", "1..1000000000000000"],
    ["bound", "rank1", "--snr-db", "10", "--inr-db", "10",
     "--ms", "1000000000000000"],
    ["dof", "--mt", "1", "--mr", "1", "--ms", "10000000000000",
     "--amax-finite", "false", "--inr-scaling", "linear"],
])
def test_huge_integer_arguments_rejected_without_allocation(
        capsys, tmp_path, argv):
    # each once built a tuple as long as its argument (a MemoryError, exit 2)
    # or looped that many times; now each exits 1 before any of that
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 10.0, 10.0)
    path = tmp_path / "mimo.json"
    path.write_text(json.dumps(model_to_json(m)))
    if "general" in argv:
        argv = argv + ["--model", str(path)]
    err = rejects(capsys, *argv)
    assert "MemoryError" not in err


@pytest.mark.parametrize("flags", [
    ["--amax-finite", "false", "--inr-scaling", "linear"],
    ["--amax-finite", "true", "--inr-scaling", "sublinear"],
])
def test_dof_rejects_dimensions_past_float_range(capsys, flags):
    # 401-digit antenna counts once overflowed a float division (exit 2)
    huge = str(10 ** 400)
    err = rejects(capsys, "dof", "--mt", huge, "--mr", huge, "--ms", "1", *flags)
    assert "m_t" in err and "OverflowError" not in err


def test_bound_rank1_largest_state_dimension(capsys):
    code, doc = run_cli(capsys, "bound", "rank1", "--snr-db", "10",
                        "--inr-db", "10", "--ms", "1000000")
    assert code == 0
    assert 0.0 < doc["value_bits"] <= doc["int_free_bits"]


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
    assert doc["witness"]["ok"] is True
    assert 0.0 <= doc["witness"]["max_gap"] < 1e-9
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


@pytest.mark.parametrize("argv", [
    ["--snr-db", "nan", "--inr-db", "40", "--ms", "1"],
    ["--snr-db", "15", "--inr-db", "nan", "--ms", "1"],
    ["--snr-db", "inf", "--inr-db", "40", "--ms", "1"],
    ["--snr-db", "15", "--inr-db", "40", "--ms", "0"],
    ["--snr-db", "15", "--inr-db", "40", "--ms=-1"],
])
def test_bound_rank1_rejects_bad_input(capsys, argv):
    err = rejects(capsys, "bound", "rank1", *argv)
    assert "empty sequence" not in err


def test_bound_rank1_unbounded_cap(capsys):
    code, doc = run_cli(capsys, "bound", "rank1", "--snr-db", "15",
                        "--inr-db", "inf", "--ms", "2")
    assert code == 0
    assert doc["gap_certificate"] is None
    assert doc["inr_db"] == "inf"
    assert doc["raw_value_bits"] == doc["prelog_bits"] > 0.0


def test_bound_rank1_zero_snr_echoed_as_text(capsys):
    code, doc = run_cli(capsys, "bound", "rank1", "--snr-db=-inf",
                        "--inr-db", "10", "--ms", "1")
    assert code == 0
    assert doc["snr_db"] == "-inf"
    assert doc["value_bits"] == 0.0


# Models whose signal or interference power overflows a float (Q_s = I and
# P = 10 unless given): each printed a number or failed deep in the stack.
OVERFLOW_MODELS = {
    "signal": ([[1e200, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 2.0),
    "cap": ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 1e300),
    "state": ([[1.0, 0.0], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1e200]], 1e100),
}


@pytest.mark.parametrize("command", [["bound", "general"], ["baseline", "tin"],
                                     ["baseline", "int-free"]])
@pytest.mark.parametrize("which", sorted(OVERFLOW_MODELS))
def test_overflowing_power_rejected(capsys, tmp_path, command, which):
    H, Q_s, a_max = OVERFLOW_MODELS[which]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"m_t": 2, "m_r": 2, "m_s": 2, "H": H,
                                "Q_s": Q_s, "a_max": a_max, "P": 10.0,
                                "field": "real"}))
    err = rejects(capsys, "--quiet", *command, "--model", str(path))
    assert "overflows" in err


def test_bound_general_infinite_raw_value_is_strict_json(capsys, tmp_path):
    # a_max^2 underflows: every rank's raw value is +inf
    m = validate_model(2, 2, 3, np.eye(2), np.eye(3), 1e-200, 4.0)
    path = tmp_path / "tiny_cap.json"
    path.write_text(json.dumps(model_to_json(m)))
    code, doc = run_cli(capsys, "--quiet", "bound", "general",
                        "--model", str(path), "--restarts", "1")
    assert code == 0
    assert doc["raw_value_bits"] == "inf"
    assert doc["diagnostics"]["per_rank_raw"] == {"1": "inf", "2": "inf"}


def test_bound_general_underflowing_cap_closed_form(capsys, tmp_path):
    # 1x1 model, a_max^2 underflows: the closed form gives +inf, not a crash
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 1e-170, 10.0)
    path = tmp_path / "tiny_cap.json"
    path.write_text(json.dumps(model_to_json(m)))
    code, doc = run_cli(capsys, "--quiet", "bound", "general",
                        "--model", str(path))
    assert code == 0
    assert doc["raw_value_bits"] == "inf"
    _, base = run_cli(capsys, "baseline", "int-free", "--model", str(path))
    assert doc["value_bits"] == base["int_free_bits"]


def test_emit_refuses_non_finite_before_writing(capsys):
    with pytest.raises(ValueError):
        _emit({"fine": 1.0, "value": math.nan})
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("axis", [
    ["--snr-db", "nan", "--inr-start", "0", "--inr-stop", "1", "--step", "1"],
    ["--snr-db", "15", "--inr-start=-inf", "--inr-stop", "1", "--step", "1"],
    ["--snr-db", "15", "--inr-start", "0", "--inr-stop", "inf", "--step", "1"],
    ["--snr-db", "15", "--inr-start", "0", "--inr-stop", "1", "--step", "nan"],
    ["--snr-db", "15", "--inr-start", "0", "--inr-stop", "1", "--step", "inf"],
])
def test_sweep_rejects_non_finite_axis(capsys, tmp_path, axis):
    err = rejects(capsys, "--quiet", "sweep", *axis, "--out", str(tmp_path / "x"))
    assert "must be finite" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["bound", "rank1", "--snr-db", "4000", "--inr-db", "10", "--ms", "1"],
    ["bound", "rank1", "--snr-db", "10", "--inr-db", "4000", "--ms", "1"],
    ["sweep", "--snr-db", "10", "--inr-start", "0", "--inr-stop", "4000",
     "--step", "1000"],
    ["sweep", "--snr-db", "4000", "--inr-start", "0", "--inr-stop", "1",
     "--step", "1"],
])
def test_overflowing_db_rejected(capsys, tmp_path, argv):
    out = ["--out", str(tmp_path / "x")] if argv[0] == "sweep" else []
    err = rejects(capsys, "--quiet", *argv, *out)
    assert "dB overflows a float" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("stop,step", [("1e300", "1e-300"), ("1e9", "1e-9")])
def test_sweep_rejects_unbuildable_grid(capsys, tmp_path, stop, step):
    err = rejects(capsys, "--quiet", "sweep", "--snr-db", "15",
                  "--inr-start", "0", "--inr-stop", stop, "--step", step,
                  "--out", str(tmp_path / "x"))
    assert "points" in err
    assert not (tmp_path / "x").exists()
