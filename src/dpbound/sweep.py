"""INR sweeps over the scalar channel and plot-data emission.

Reproduces the reference comparison: the compound upper bound, the
treat-interference-as-noise rate, the interference-free capacity and the
prelog reference, all at a fixed SNR over a grid of worst-case INR values
in dB.  On the scalar channel (unit gain and state variance) every trace
is a closed form in ``P`` and ``a_max``, so the grid is evaluated point by
point without building a model; the scalar model is validated once, at
the grid's largest INR.  Output files are plain two-column ASCII (one per
trace), plus a CSV with every trace and a JSON document with full
metadata; identical invocations produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field as dc_field

from . import __version__
from .channel import (FieldKind, _json_safe, as_field, db_to_power, inr_to_amax,
                      validate_model)
from .errors import BadSpec
from .rank1 import Rank1Inputs, prelog_reference, rank_one_bound

TRACE_ORDER = ("bound", "bound_eff", "tin", "int_free", "half_if")
# grid-size cap: a 99,999-point `dpbound sweep`
# took about 1.6-2.3 s and peaked at 128 MB RSS on a 2-CPU Xeon VM
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class SweepSpec:
    """Axis definition for one sweep; ``field`` goes through ``as_field``."""

    snr_db: float
    inr_db_start: float
    inr_db_stop: float
    inr_db_step: float
    field: FieldKind = FieldKind.REAL
    points: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("snr_db", "inr_db_start", "inr_db_stop", "inr_db_step"):
            if not math.isfinite(getattr(self, name)):
                raise BadSpec(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "field", as_field(self.field))
        if self.inr_db_step <= 0:
            raise BadSpec("inr_db_step must be positive")
        if self.inr_db_start > self.inr_db_stop:
            raise BadSpec("inr_db_start must not exceed inr_db_stop")
        span = (self.inr_db_stop - self.inr_db_start) / self.inr_db_step + 1e-9
        if not span < MAX_SWEEP_POINTS:
            raise BadSpec(f"the INR grid would have about {span + 1:.3g} points; "
                          f"at most {MAX_SWEEP_POINTS} are allowed")
        object.__setattr__(self, "points", int(math.floor(span)) + 1)

    def grid(self) -> list[float]:
        return [self.inr_db_start + k * self.inr_db_step for k in range(self.points)]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple              # one dict per grid point: {"inr_db": x, trace: y}
    metadata: dict = dc_field(default_factory=dict)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every trace on the INR grid, with SNR = P and INR = a_max^2.

    ``bound`` is the raw ``rank_one_bound`` with one unit state eigenvalue
    (+inf at a zero cap; it may exceed int-free at low INR) and
    ``bound_eff`` its min with int-free, kappa log2(1 + P).  TIN is
    kappa log2(1 + P / (1 + a_max^2)) and ``half_if`` the prelog
    reference.  Validation only rejects an overflowing a_max^2, which grows
    with INR, so one check at the grid's largest INR rejects exactly what
    a check at every point would.
    """
    P = db_to_power(spec.snr_db, "SNR")
    kappa = spec.field.kappa
    grid = spec.grid()
    a_max_top = inr_to_amax(grid[-1])
    validate_model(1, 1, 1, [[1.0]], [[1.0]], a_max_top, P, spec.field)
    int_free = kappa * math.log2(1.0 + P)
    half_if = prelog_reference(Rank1Inputs(h_norm_sq_P=P, v=(1.0,),
                                           a_max=a_max_top, kappa=kappa))
    rows = []
    for inr_db in grid:
        a_max = inr_to_amax(inr_db)
        raw = rank_one_bound(Rank1Inputs(h_norm_sq_P=P, v=(1.0,),
                                         a_max=a_max, kappa=kappa))
        rows.append({"inr_db": inr_db, "bound": raw, "bound_eff": min(raw, int_free),
                     "tin": kappa * math.log2(1.0 + P / (1.0 + a_max * a_max)),
                     "int_free": int_free, "half_if": half_if})
    metadata = {
        "tool": "dpbound",
        "version": __version__,
        "snr_db": spec.snr_db,
        "field": spec.field.value,
        "channel": {"m_t": 1, "m_r": 1, "m_s": 1, "h": 1.0, "state_variance": 1.0},
        "traces": ["bound", "tin", "int_free", "half_if"],
        "soundness": {"bound": "Exact"},
    }
    return SweepResult(rows=tuple(rows), metadata=metadata)


def _fmt(y: float) -> str:
    return f"{y:#.6g}"


_ROW_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False,
                                separators=(",\n      ", ": "))


def _json_row(row: dict) -> str:
    """One sweep.json row as ``json.dumps(..., indent=2)`` lays it out at
    depth 2, encoded by the C encoder (which ``indent`` would switch off)."""
    try:
        body = _ROW_ENCODER.encode(row)
    except ValueError:  # a non-finite value, written as "inf", "-inf" or "nan"
        body = _ROW_ENCODER.encode(_json_safe(row))
    return "{\n      " + body[1:-1] + "\n    }"


def emit_data_files(result: SweepResult, out_dir) -> list[str]:
    """Write one two-column .data file per trace, plus sweep.csv/sweep.json.

    The traces are the ``TRACE_ORDER`` columns the first row holds, so
    rows a caller builds may carry any of them.

    .data lines are "x y" with x in dB and y in bits at six significant
    digits, LF-terminated.  The CSV repeats the same formatted values so a
    round-trip parse of either yields identical numbers.  sweep.json is
    ``json.dumps({"metadata": ..., "rows": ...}, indent=2, sort_keys=True)``
    with non-finite values as strings, written row by row.
    """
    if not result.rows:
        raise BadSpec("empty sweep result; nothing to write")
    os.makedirs(out_dir, exist_ok=True)
    traces = [t for t in TRACE_ORDER if t in result.rows[0]]
    xs = [f"{row['inr_db']:g}" for row in result.rows]
    cols = {t: [_fmt(row[t]) for row in result.rows] for t in traces}
    written = []

    def write(name: str, chunks) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(chunks)
        written.append(path)

    for trace in traces:
        if trace != "bound_eff":  # csv/json column only
            write(f"{trace}.data",
                  ["".join(f"{x} {y}\n" for x, y in zip(xs, cols[trace]))])
    lines = [",".join(["inr_db"] + traces)]
    lines += map(",".join, zip(xs, *(cols[t] for t in traces)))
    write("sweep.csv", ["\n".join(lines) + "\n"])
    head = json.dumps(_json_safe({"metadata": result.metadata, "rows": []}),
                      indent=2, sort_keys=True)
    rows = iter(result.rows)
    write("sweep.json", itertools.chain(
        [head.removesuffix("[]\n}"), "[\n    ", _json_row(next(rows))],
        (",\n    " + _json_row(row) for row in rows),
        ["\n  ]\n}\n"]))
    return written
