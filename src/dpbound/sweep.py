"""INR sweeps over the scalar channel and plot-data emission.

Reproduces the reference comparison: the compound upper bound, the
treat-interference-as-noise rate, the interference-free capacity and the
prelog reference, all at a fixed SNR over a grid of worst-case INR values
in dB.  Output files are plain two-column ASCII (one per trace), plus a
CSV with every trace and a JSON document with full metadata; identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field

from . import __version__
from .baselines import interference_free_capacity, tin_worst_case
from .channel import FieldKind, _json_safe, inr_to_amax, validate_model
from .errors import BadSpec
from .rank1 import Rank1Inputs, prelog_reference, rank_one_bound

TRACE_ORDER = ("bound", "bound_eff", "tin", "int_free", "half_if")
KNOWN_TRACES = ("bound", "tin", "int_free", "half_if")


@dataclass(frozen=True)
class SweepSpec:
    """Axis definition and requested traces for one sweep."""

    snr_db: float
    inr_db_start: float
    inr_db_stop: float
    inr_db_step: float
    field: FieldKind = FieldKind.REAL
    traces: tuple = ("bound", "tin", "int_free", "half_if")

    def __post_init__(self):
        for name in ("snr_db", "inr_db_start", "inr_db_stop", "inr_db_step"):
            if not math.isfinite(getattr(self, name)):
                raise BadSpec(f"{name} must be finite, got {getattr(self, name)}")
        if not self.traces:
            raise BadSpec("at least one trace must be requested")
        unknown = [t for t in self.traces if t not in KNOWN_TRACES]
        if unknown:
            raise BadSpec(f"unknown traces {unknown}; known: {KNOWN_TRACES}")
        if self.inr_db_step <= 0:
            raise BadSpec("inr_db_step must be positive")
        if self.inr_db_start > self.inr_db_stop:
            raise BadSpec("inr_db_start must not exceed inr_db_stop")

    def grid(self) -> list[float]:
        n = int(math.floor((self.inr_db_stop - self.inr_db_start)
                           / self.inr_db_step + 1e-9)) + 1
        return [self.inr_db_start + k * self.inr_db_step for k in range(n)]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple              # one dict per grid point: {"inr_db": x, trace: y}
    metadata: dict = dc_field(default_factory=dict)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested trace on the INR grid.

    The scalar convention ties the axes to the model as SNR = P and
    INR = a_max^2 * v with unit state variance and unit channel gain.
    The ``bound`` trace reports the raw bound (the plotted curve, which
    may exceed the interference-free line at low INR); the effective
    min with the interference-free capacity rides along as ``bound_eff``.
    ``half_if`` is the prelog reference.
    """
    P = 10.0 ** (spec.snr_db / 10.0)
    kappa = spec.field.kappa
    rows = []
    want = set(spec.traces)
    for inr_db in spec.grid():
        a_max = inr_to_amax(inr_db, 1.0)
        model = validate_model(1, 1, 1, [[1.0]], [[1.0]], a_max, P, spec.field)
        row = {"inr_db": inr_db}
        int_free = interference_free_capacity(model)
        inputs = Rank1Inputs(h_norm_sq_P=P, v=(1.0,), a_max=a_max, kappa=kappa)
        if "bound" in want:
            raw = rank_one_bound(inputs)
            row["bound"] = raw
            row["bound_eff"] = min(raw, int_free)
        if "tin" in want:
            row["tin"] = tin_worst_case(model)
        if "int_free" in want:
            row["int_free"] = int_free
        if "half_if" in want:
            row["half_if"] = prelog_reference(inputs)
        rows.append(row)
    metadata = {
        "tool": "dpbound",
        "version": __version__,
        "snr_db": spec.snr_db,
        "field": spec.field.value,
        "channel": {"m_t": 1, "m_r": 1, "m_s": 1, "h": 1.0, "state_variance": 1.0},
        "traces": list(spec.traces),
        "soundness": {"bound": "Exact"},
    }
    return SweepResult(rows=tuple(rows), metadata=metadata)


def _fmt(y: float) -> str:
    if math.isinf(y):
        return "inf"
    return f"{y:#.6g}"


def emit_data_files(result: SweepResult, out_dir) -> list[str]:
    """Write one two-column .data file per trace, plus sweep.csv/sweep.json.

    .data lines are "x y" with x in dB and y in bits at six significant
    digits, LF-terminated.  The CSV repeats the same formatted values so a
    round-trip parse of either yields identical numbers.
    """
    if not result.rows:
        raise BadSpec("empty sweep result; nothing to write")
    os.makedirs(out_dir, exist_ok=True)
    traces = [t for t in TRACE_ORDER if t in result.rows[0]]
    written = []

    for trace in traces:
        if trace == "bound_eff":
            continue  # csv/json column only
        path = os.path.join(out_dir, f"{trace}.data")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for row in result.rows:
                fh.write(f"{row['inr_db']:g} {_fmt(row[trace])}\n")
        written.append(path)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(["inr_db"] + traces) + "\n")
        for row in result.rows:
            cells = [f"{row['inr_db']:g}"] + [_fmt(row[t]) for t in traces]
            fh.write(",".join(cells) + "\n")
    written.append(csv_path)

    json_path = os.path.join(out_dir, "sweep.json")
    doc = _json_safe({"metadata": result.metadata, "rows": result.rows})
    with open(json_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(json_path)
    return written
