"""Record the reference outputs the benchmark checks against.

    python3 bench/record_references.py [workload ...]

Runs every input the bound workloads can send (each pool model) and every
SNR the sweep workload can draw, at the current commit, and stores the
results in ``references.json`` next to this file.  Named workloads are
re-recorded; entries for the others are kept.  References were recorded at
the commit that introduced the benchmark; re-record only in a change that
edits the benchmark alone.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
from workloads import (REFERENCES, SWEEP_SNRS_DB, WORKLOADS, load_references,
                       sweep_digest)


def record_bound(dp, workload) -> dict:
    cfg = dp.SearchConfig(**workload.search)
    raw = []
    for c in range(len(workload.classes)):
        row = []
        for q in range(workload.pool_per_class):
            t0 = time.perf_counter()
            rep = dp.capacity_upper_bound(workload.make_model(dp, c, q), cfg)
            row.append(rep.raw_value_bits)
            print(f"{workload.name} class {workload.classes[c]} #{q}: "
                  f"{rep.raw_value_bits!r} in {time.perf_counter() - t0:.2f} s",
                  file=sys.stderr)
        raw.append(row)
    return {"classes": [list(c) for c in workload.classes], "raw_value_bits": raw}


def record_sweep(dp, workload) -> dict:
    scratch = Path.cwd() / ".bench_out" / "record"
    plan = workload.setup(dp, 0, scratch)
    out = {}
    try:
        for k in range(len(SWEEP_SNRS_DB)):
            code, _ = plan.request(k)
            if code != 0:
                raise SystemExit(f"sweep at {SWEEP_SNRS_DB[k]} dB exited {code}")
            out[str(k)] = sweep_digest(os.path.join(plan.out_dir, "sweep.csv"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def main(names) -> None:
    sys.path.insert(0, str(run.SRC))
    dp = run.fresh_import()
    refs = load_references()
    for name in names or ["mimo_batch", "state_heavy", "scalar_sweep"]:
        workload = WORKLOADS[name]()
        if name == "scalar_sweep":
            refs[name] = record_sweep(dp, workload)
        else:
            refs[name] = record_bound(dp, workload)
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
