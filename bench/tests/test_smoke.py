"""Tiny-size smoke test of the benchmark harness.

Runs every workload for one or two requests, untraced and traced, and checks
that the last stdout line is the result object with every metric that
BENCHMARK.json names, that a traced run's counts repeat exactly in a second
process at the same seed, and that the tracer reports a deleted target as
absent instead of failing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(tmp_path, workload, trace, requests=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.001", "--trace", str(trace),
         "--max-requests", str(requests)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(tmp_path, workload, trace):
    _, result = run_bench(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_traced_counts_repeat_across_processes(tmp_path):
    runs = [run_bench(tmp_path, "mimo_batch", 1, requests=2) for _ in range(2)]
    counts = [{k: v["value"] for k, v in result["metrics"].items()
               if k.endswith(".calls") or k == "adversary.partitions"}
              for _, result in runs]
    assert counts[0] == counts[1]
    assert counts[0]["numpy.linalg.svd.calls"] > 0
    assert all(info["counts_repeat"] for info, _ in runs)


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import dpbound
    import dpbound.cli  # noqa: F401  (imports every traced layer)
    import tracer

    for mod in (dpbound, dpbound.adversary, dpbound.general):
        monkeypatch.delattr(mod, "enumerate_partitions")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.absent == ["adversary.enumerate_partitions"]
    finally:
        tr.uninstall()
