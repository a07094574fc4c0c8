import hashlib
import itertools
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dpbound
from dpbound import FieldKind, SweepSpec, emit_data_files, run_sweep
from dpbound.errors import BadSpec
from dpbound.sweep import MAX_SWEEP_POINTS, SweepResult, _fmt

from reference_oracles import model_path_sweep, reference_sweep_json


def default_spec(**kw):
    base = dict(snr_db=15.0, inr_db_start=-10.0, inr_db_stop=40.0,
                inr_db_step=1.0)
    base.update(kw)
    return SweepSpec(**base)


# every sweep computes these traces (and bound_eff beside bound)
TRACES = ("bound", "tin", "int_free", "half_if")
TRACE_SUBSETS = [subset for n in range(1, len(TRACES) + 1)
                 for subset in itertools.combinations(TRACES, n)]


def only(result, traces) -> SweepResult:
    """``result`` with its rows cut to ``traces``, as a caller may build."""
    keys = {"inr_db", *traces} | ({"bound_eff"} if "bound" in traces else set())
    rows = tuple({k: v for k, v in row.items() if k in keys} for row in result.rows)
    return SweepResult(rows=rows, metadata={**result.metadata, "traces": list(traces)})


def test_grid_has_51_points():
    spec = default_spec()
    assert spec.points == len(spec.grid()) == 51


def test_single_point_grid():
    spec = default_spec(inr_db_start=5.0, inr_db_stop=5.5, inr_db_step=1.0)
    assert spec.grid() == [5.0]
    assert len(run_sweep(spec).rows) == 1


def test_bad_grid_rejected():
    with pytest.raises(BadSpec):
        default_spec(inr_db_step=0.0)
    with pytest.raises(BadSpec):
        default_spec(inr_db_start=50.0)


@pytest.mark.parametrize("start,stop,step", [
    (0.0, 1e300, 1e-300),        # the point count is not finite
    (0.0, 1e9, 1e-9),            # 10^18 points
    (-1e308, 1e308, 1.0),        # the span itself overflows
    (0.0, float(MAX_SWEEP_POINTS), 1.0),
])
def test_unbuildable_grid_rejected(start, stop, step):
    with pytest.raises(BadSpec, match="points"):
        default_spec(inr_db_start=start, inr_db_stop=stop, inr_db_step=step)


def test_grid_at_point_cap_accepted():
    spec = default_spec(inr_db_start=0.0, inr_db_stop=MAX_SWEEP_POINTS - 1.0)
    assert spec.points == MAX_SWEEP_POINTS


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
    res = run_sweep(default_spec())
    emit_data_files(res, tmp_path)
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["metadata"]["soundness"]["bound"] == "Exact"
    assert doc["metadata"]["snr_db"] == 15.0
    assert doc["metadata"]["traces"] == list(TRACES)
    assert len(doc["rows"]) == 51
    assert set(doc["rows"][0]) == {"inr_db", "bound_eff", *TRACES}


def test_emitted_columns_follow_the_rows(tmp_path):
    # rows a caller builds may carry any of the traces
    res = only(run_sweep(default_spec()), ("bound", "half_if"))
    names = sorted(p.split("/")[-1] for p in emit_data_files(res, tmp_path))
    assert names == ["bound.data", "half_if.data", "sweep.csv", "sweep.json"]
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


def test_fmt_keeps_sign_of_infinity():
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.inf) == "inf"
    assert _fmt(math.nan) == "nan"
    assert _fmt(2.5139038366752597) == "2.51390"


def assert_rows_match(got, want):
    """Same grid and keys; every value within 1e-12 relative plus 1e-15."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert g["inr_db"] == w["inr_db"]
        for key, y in w.items():
            assert g[key] == y or abs(g[key] - y) <= 1e-12 * abs(y) + 1e-15, \
                (key, g, w)


@pytest.mark.parametrize("field", list(FieldKind))
@pytest.mark.parametrize("snr_db", [0.0, 0.5, 15.0, 30.0])
@pytest.mark.parametrize("step", [1.0, 0.1, 0.37])
def test_closed_form_matches_model_path(tmp_path, field, snr_db, step):
    spec = default_spec(snr_db=snr_db, inr_db_step=step, field=field)
    want = model_path_sweep(spec)
    got = run_sweep(spec)
    assert_rows_match(got.rows, want)

    # the plot files come out byte for byte as the oracle's rows give them
    ours = emit_data_files(got, tmp_path / "closed")
    theirs = emit_data_files(SweepResult(rows=want, metadata=got.metadata),
                             tmp_path / "model")
    for a, b in zip(ours, theirs, strict=True):
        if not a.endswith(".json"):
            assert open(a, "rb").read() == open(b, "rb").read(), a


@pytest.mark.parametrize("field", list(FieldKind))
def test_zero_cap_sweep(field):
    # 10^(-400) underflows: a_max = 0 up to about -3240 dB
    spec = default_spec(inr_db_start=-4000.0, inr_db_step=10.0, field=field)
    rows = run_sweep(spec).rows
    assert_rows_match(rows, model_path_sweep(spec))
    assert rows[0]["bound"] == math.inf
    assert rows[0]["bound_eff"] == rows[0]["int_free"] > 0.0
    assert rows[0]["tin"] == rows[0]["int_free"]


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` at every dpbound binding; the list gets one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dpbound" or name.startswith("dpbound."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_sweep_does_no_per_point_model_work(monkeypatch):
    validate = count_calls(monkeypatch, dpbound.channel.validate_model)
    water = count_calls(monkeypatch, dpbound.baselines.water_filling)
    tin = count_calls(monkeypatch, dpbound.baselines.tin_worst_case)
    rows = run_sweep(default_spec(inr_db_step=0.1)).rows
    assert len(rows) == 501
    assert (len(validate), len(water), len(tin)) == (1, 0, 0)


def assert_json_matches_reference(result, out_dir):
    emit_data_files(result, out_dir)
    got = (out_dir / "sweep.json").read_bytes()
    assert got == reference_sweep_json(result).encode("ascii")


@pytest.mark.parametrize("field", list(FieldKind))
@pytest.mark.parametrize("traces", TRACE_SUBSETS)
def test_sweep_json_bytes_match_reference(tmp_path, field, traces):
    res = only(run_sweep(default_spec(inr_db_step=0.37, field=field)), traces)
    assert_json_matches_reference(res, tmp_path)


@pytest.mark.parametrize("traces", [TRACES, ("bound",), ("tin",)])
def test_zero_cap_sweep_json_bytes_match_reference(tmp_path, traces):
    res = only(run_sweep(default_spec(inr_db_start=-4000.0, inr_db_step=10.0)),
               traces)
    assert_json_matches_reference(res, tmp_path)
    if "bound" in traces:
        assert res.rows[0]["bound"] == math.inf


def test_non_finite_rows_json_bytes_match_reference(tmp_path):
    # rows a caller builds may hold any float, at any position
    rows = ({"inr_db": -1.0, "bound": -math.inf, "tin": 0.5},
            {"inr_db": 0.0, "bound": math.nan, "tin": math.inf},
            {"inr_db": 1.0, "bound": 1.0, "tin": 0.25})
    res = SweepResult(rows=rows, metadata={"snr_db": math.inf, "note": "x"})
    assert_json_matches_reference(res, tmp_path)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(snr_db=st.floats(-400.0, 400.0), start=st.floats(-4000.0, 400.0),
       width=st.floats(0.0, 500.0), points=st.integers(1, 40),
       field=st.sampled_from(list(FieldKind)),
       traces=st.sampled_from(TRACE_SUBSETS))
def test_drawn_sweep_json_bytes_match_reference(tmp_path_factory, snr_db, start,
                                                width, points, field, traces):
    spec = SweepSpec(snr_db=snr_db, inr_db_start=start,
                     inr_db_stop=start + width,
                     inr_db_step=max(width / points, 1e-3), field=field)
    assert_json_matches_reference(only(run_sweep(spec), traces),
                                  tmp_path_factory.mktemp("drawn"))
