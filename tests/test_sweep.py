import hashlib
import json
import math

import pytest

from dpbound import FieldKind, SweepSpec, emit_data_files, run_sweep
from dpbound.errors import BadSpec
from dpbound.sweep import SweepResult


def default_spec(**kw):
    base = dict(snr_db=15.0, inr_db_start=-10.0, inr_db_stop=40.0,
                inr_db_step=1.0)
    base.update(kw)
    return SweepSpec(**base)


def test_grid_has_51_points():
    assert len(default_spec().grid()) == 51


def test_single_point_grid():
    spec = default_spec(inr_db_start=5.0, inr_db_stop=5.5, inr_db_step=1.0)
    assert spec.grid() == [5.0]
    assert len(run_sweep(spec).rows) == 1


def test_empty_traces_rejected():
    with pytest.raises(BadSpec):
        default_spec(traces=())


def test_unknown_trace_rejected():
    with pytest.raises(BadSpec):
        default_spec(traces=("bound", "mystery"))


def test_bad_grid_rejected():
    with pytest.raises(BadSpec):
        default_spec(inr_db_step=0.0)
    with pytest.raises(BadSpec):
        default_spec(inr_db_start=50.0)


@pytest.mark.parametrize("axis", ["snr_db", "inr_db_start", "inr_db_stop",
                                  "inr_db_step"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_axis_rejected(axis, bad):
    with pytest.raises(BadSpec, match=axis):
        default_spec(**{axis: bad})


def test_reference_constants():
    res = run_sweep(default_spec())
    rows = {r["inr_db"]: r for r in res.rows}
    for r in res.rows:
        assert r["int_free"] == pytest.approx(2.5139038366752597, abs=1e-12)
        assert r["half_if"] == pytest.approx(1.2569519183376299, abs=1e-12)
    assert rows[40.0]["bound"] == pytest.approx(1.258126621224833, abs=1e-9)
    assert rows[40.0]["tin"] == pytest.approx(0.0022772746288586, abs=1e-9)
    assert rows[-10.0]["bound"] == pytest.approx(3.3454897581348817, abs=1e-9)
    # the raw bound crosses the interference-free line at low INR
    assert rows[-10.0]["bound"] > rows[-10.0]["int_free"]
    assert rows[-10.0]["bound_eff"] == pytest.approx(2.5139038366752597)


def test_complex_field_doubles_kappa():
    res = run_sweep(default_spec(field=FieldKind.COMPLEX,
                                 inr_db_stop=-10.0))
    assert res.rows[0]["half_if"] == pytest.approx(2 * 1.2569519183376299)


def test_emitted_files(tmp_path):
    res = run_sweep(default_spec())
    files = emit_data_files(res, tmp_path)
    names = sorted(p.split("/")[-1] for p in files)
    assert names == ["bound.data", "half_if.data", "int_free.data",
                     "sweep.csv", "sweep.json", "tin.data"]
    bound_lines = (tmp_path / "bound.data").read_text().splitlines()
    assert len(bound_lines) == 51
    assert bound_lines[0] == "-10 3.34549"
    assert bound_lines[-1] == "40 1.25813"
    for line in (tmp_path / "int_free.data").read_text().splitlines():
        assert line.endswith(" 2.51390")
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "inr_db,bound,bound_eff,tin,int_free,half_if"
    assert len(csv_lines) == 52


def test_csv_and_data_round_trip_identical(tmp_path):
    res = run_sweep(default_spec())
    emit_data_files(res, tmp_path)
    csv_rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0].split(",")
    col = header.index("bound")
    data_rows = (tmp_path / "bound.data").read_text().splitlines()
    for csv_row, data_row in zip(csv_rows, data_rows):
        assert float(csv_row.split(",")[col]) == float(data_row.split()[1])


def test_byte_identical_reruns(tmp_path):
    spec = default_spec()
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        files = emit_data_files(run_sweep(spec), out)
        blob = b"".join(open(f, "rb").read() for f in sorted(files))
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


def test_json_document(tmp_path):
    res = run_sweep(default_spec(traces=("bound", "half_if")))
    emit_data_files(res, tmp_path)
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["metadata"]["soundness"]["bound"] == "Exact"
    assert doc["metadata"]["snr_db"] == 15.0
    assert doc["metadata"]["traces"] == ["bound", "half_if"]
    assert len(doc["rows"]) == 51
    assert set(doc["rows"][0]) == {"inr_db", "bound", "bound_eff", "half_if"}
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "inr_db,bound,bound_eff,half_if"


def test_empty_result_writes_nothing(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(BadSpec):
        emit_data_files(SweepResult(rows=()), out)
    assert not out.exists()


def test_rows_are_finite():
    res = run_sweep(default_spec())
    for row in res.rows:
        for key, val in row.items():
            if key != "inr_db":
                assert math.isfinite(val)
