"""dpbound benchmark: one workload, one process, one client.

Run from the repository root:

    python3 bench/run.py --workload mimo_batch --seed 1 --seconds 25 --trace 0

A run sends the workload's fixed window of seeded requests in whole
passes, one request at a time, until ``--seconds`` of request time have
passed.  Whole passes give every run the same mix of request shapes.
Every output is checked; a request that raises or fails its check counts
as failed.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median of set-ups spread over the run), throughput, median and tail
latency over every request sent, and peak resident memory.

With ``--trace 1`` the run reports the per-layer metrics instead.  Passes
alternate between untraced and traced (untraced, traced, traced, then
untraced and traced in turn); counts come from the first traced pass and
must repeat exactly in every later one, self times are the median over
traced passes, and the overhead ratio is the mean traced pass time over
the mean untraced pass time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it describes the
run: environment, tail percentile and its sample count, pass times,
failures, layers that no longer exist, and where the spans were written.
Files go to ``.bench_out/`` under the working directory.
"""

from __future__ import annotations

import os

# Pin the BLAS pools before anything imports numpy: one client, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10      # the tail percentile keeps at least this many samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import dpbound from this checkout's ``src``, discarding earlier imports."""
    for name in [n for n in sys.modules if n == "dpbound" or n.startswith("dpbound.")]:
        del sys.modules[name]
    dp = importlib.import_module("dpbound")
    importlib.import_module("dpbound.cli")
    if Path(dp.__file__).resolve().parent != SRC / "dpbound":
        raise ImportError(f"dpbound imported from {dp.__file__}, not {SRC}")
    return dp


def timed_setup(workload, seed: int, scratch: Path) -> float:
    """Import dpbound afresh and set the workload up (generate and validate
    its inputs); returns the time taken."""
    t0 = time.perf_counter()
    workload.setup(fresh_import(), seed, scratch)
    return time.perf_counter() - t0


def run_pass(workload, window: int, tracer=None):
    """Send the window's requests one after another.

    Returns each request's latency and the failures.  Checks run between
    requests but outside the timed section (and untraced).
    """
    latencies, failures = [], []
    for j in range(window):
        item = workload.item(j)
        t0 = time.perf_counter()
        try:
            out = (tracer.request(j, workload.request, item) if tracer
                   else workload.request(item))
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.active = False
        if err is None:
            try:
                err = workload.check(item, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.active = True
        if err is not None:
            failures.append(f"request {j} {item!r}: {err}")
    return latencies, failures


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it.  With 2 * TAIL_BEYOND samples or
    fewer that percentile would lie at or below the median, so the maximum
    is reported instead (percentile 100, no samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def measure(workload, window, seconds, setup):
    """Untraced passes until ``seconds`` of request time.

    ``setup()`` sets the workload up afresh and returns its time.  It runs
    SETUP_REPEATS times before the first pass and once after every pass, so
    the set-up times sample the whole run rather than its first second.
    """
    setup_s = [setup() for _ in range(SETUP_REPEATS)]
    passes, failures = [], []
    while not passes or sum(map(sum, passes)) < seconds:
        lat, fail = run_pass(workload, window)
        passes.append(lat)
        failures += fail
        setup_s.append(setup())
    latencies = [x for p in passes for x in p]
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"window": window, "pass_s": [sum(p) for p in passes], "setups": len(setup_s),
            "latency_tail": {"percentile": pct, "samples": len(latencies),
                             "samples_beyond": beyond}}
    return window * len(passes), failures, metrics, info


def measure_traced(workload, window, seconds, spans_path):
    """Untraced and traced passes over the window; per-layer metrics."""
    tr = tracing.Tracer()
    untraced, traced, self_s, failures = [], [], [], []
    counts, mismatches = None, []
    kinds = iter("UTT")
    while len(traced) < 2 or sum(map(sum, untraced + traced)) < seconds:
        if next(kinds, "U" if len(untraced) < len(traced) else "T") == "U":
            lat, fail = run_pass(workload, window)
            untraced.append(lat)
            failures += fail
            continue
        tr.reset()
        tr.keep_spans = not traced
        tr.install()
        try:
            lat, fail = run_pass(workload, window, tr)
        finally:
            tr.uninstall()
        traced.append(lat)
        failures += fail
        snapshot = (dict(tr.calls), dict(tr.extra))
        if counts is None:
            counts = snapshot
        elif snapshot != counts:
            mismatches.append(len(traced))
        self_s.append({k: v / 1e9 for k, v in tr.self_ns.items()})
    n_spans = tr.write_spans(spans_path)

    calls, extra = counts
    metrics = {}
    for prefix in tracing.TARGETS:
        metrics[f"{prefix}.calls"] = (calls.get(prefix, 0), "count")
        metrics[f"{prefix}.self_s"] = (
            statistics.median(s.get(prefix, 0.0) for s in self_s), "s")
    enumerations = calls.get("adversary.enumerate_partitions", 0)
    partitions = extra.get(tracing.PARTITIONS, 0)
    inner = calls.get("general.inner_inf", 0)
    metrics[tracing.PARTITIONS] = (partitions, "count")
    metrics["adversary.partitions_per_enumeration"] = (
        partitions / enumerations if enumerations else 0.0, "ratio")
    metrics["general.families_per_inner_inf"] = (
        extra.get(tracing.FAMILIES_IN_INNER_INF, 0) / inner if inner else 0.0, "ratio")
    metrics[tracing.BYTES_WRITTEN] = (extra.get(tracing.BYTES_WRITTEN, 0), "bytes")
    metrics["trace.overhead_ratio"] = (
        statistics.mean(map(sum, traced)) / statistics.mean(map(sum, untraced)), "ratio")
    info = {"window": window,
            "untraced_pass_s": [sum(p) for p in untraced],
            "traced_pass_s": [sum(p) for p in traced],
            "absent": tr.absent, "spans": n_spans, "spans_file": str(spans_path),
            "counts_repeat": not mismatches}
    return window * (len(untraced) + len(traced)), failures, metrics, info


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def report(args, workload, seed, out_dir, scratch) -> int:
    # The first set-up may compile bytecode; setup_s leaves it out.
    timed_setup(workload, seed, scratch)
    window = workload.window
    if args.max_requests:
        window = min(window, args.max_requests)
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-{seed}.csv.gz"
        attempted, failures, raw, info = measure_traced(workload, window, args.seconds, spans)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    else:
        attempted, failures, raw, info = measure(
            workload, window, args.seconds, lambda: timed_setup(workload, seed, scratch))
        metrics = {k: {"value": raw[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    info.update(workload=args.workload, seed=seed, env=environment(),
                fail_ratio=len(failures) / attempted, failures=failures[:20])
    print(json.dumps({"run": info}))
    correct = not failures and info.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-requests", type=int, default=0,
                        help="shrink the window to this many requests (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "dpbound" / "__init__.py").is_file():
        print(f"bench: no dpbound sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    seed = args.seed % 2**63
    out_dir = Path.cwd() / ".bench_out"
    scratch = out_dir / f"{args.workload}-{seed}-{os.getpid()}"
    try:
        return report(args, WORKLOADS[args.workload](), seed, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
