"""The package namespace: every exported name resolves, and the witness
evaluator is one object under each name callers and the benchmark tracer
look it up by."""

import dpbound
import dpbound.adversary
import dpbound.general


def test_every_exported_name_resolves():
    missing = [name for name in dpbound.__all__ if not hasattr(dpbound, name)]
    assert missing == []
    assert len(set(dpbound.__all__)) == len(dpbound.__all__)


def test_witness_evaluator_is_one_object():
    assert dpbound.general.objective is dpbound.adversary.objective
    assert dpbound.objective is dpbound.adversary.objective
