"""The package namespace: every exported name resolves, and the objective
and the witness evaluator are each one object under every name callers and
the benchmark tracer look them up by, and the benchmark accepts every
soundness tag a report can carry."""

from pathlib import Path

import dpbound
import dpbound.adversary
import dpbound.general
import dpbound.oracle


def test_every_exported_name_resolves():
    missing = [name for name in dpbound.__all__ if not hasattr(dpbound, name)]
    assert missing == []
    assert len(set(dpbound.__all__)) == len(dpbound.__all__)


def test_objective_is_one_object():
    assert dpbound.general.objective is dpbound.adversary.objective
    assert dpbound.objective is dpbound.adversary.objective
    assert dpbound.witness_value is dpbound.oracle.witness_value


def test_benchmark_knows_every_soundness_tag(monkeypatch):
    # the benchmark fails any request whose tag it does not list, so a new
    # tag must reach bench/workloads.py before it reaches a report
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    assert {s.value for s in dpbound.Soundness} <= set(workloads.KNOWN_SOUNDNESS)
