import math

import numpy as np
import pytest

from dpbound import (
    AdversaryFamily,
    GroupPartition,
    build_family,
    enumerate_partitions,
    signal_subspace,
    validate_model,
    water_filling,
    whiten_state,
)
from dpbound.adversary import check_partition, required_group_sizes
from dpbound.errors import InfeasibleFamily, PartitionMismatch

from conftest import BIG_CAP_MODEL, rand_model, rand_psd
from reference_oracles import exhaustive_partitions


def _prep(model, Q_x):
    return signal_subspace(model.H, Q_x), whiten_state(model.Q_s)


def test_enumerate_two_singletons():
    parts = exhaustive_partitions(2, 1)
    assert [p.groups for p in parts] == [((0,), (1,)), ((1,), (0,))]
    # the candidates keep only the descending order
    assert [p.groups for p in enumerate_partitions(2, 1)] == [((0,), (1,))]


def test_enumerate_single_group():
    parts = enumerate_partitions(2, 2)
    assert [p.groups for p in parts] == [((0, 1),)]


def test_enumerate_pair_plus_remainder():
    parts = enumerate_partitions(3, 2)
    assert len(parts) == 3
    assert {p.groups[-1] for p in parts} == {(0,), (1,), (2,)}


def test_enumerate_full_groups_round_robin():
    parts = enumerate_partitions(6, 2)
    assert [p.groups for p in parts] == [((0, 3), (1, 4), (2, 5))]
    parts = enumerate_partitions(5, 2)
    assert [p.groups for p in parts] == [
        ((1, 3), (2, 4), (0,)), ((0, 3), (2, 4), (1,)), ((0, 3), (1, 4), (2,)),
        ((0, 2), (1, 4), (3,)), ((0, 2), (1, 3), (4,))]


def test_candidates_are_valid_fillings():
    counts = []
    for m_s in range(1, 17):
        for M0 in range(1, 5):
            parts = enumerate_partitions(m_s, M0)
            assert len(parts) == math.comb(m_s, m_s % M0)
            for part in parts:
                check_partition(part, m_s, M0)
                assert all(list(g) == sorted(g) for g in part.groups)
            counts.append(len(parts))
            if m_s <= 6:
                every = {p.groups for p in exhaustive_partitions(m_s, M0)}
                assert {p.groups for p in parts} <= every
    assert max(counts) == 455


def test_group_sizes():
    assert required_group_sizes(5, 2) == [2, 2, 1]
    assert required_group_sizes(4, 2) == [2, 2]
    assert required_group_sizes(1, 3) == [1]


def test_partition_shape_enforced():
    with pytest.raises(PartitionMismatch):
        GroupPartition(groups=((0,), (0,)))
    m = validate_model(1, 1, 2, [[1.0]], np.eye(2), 1.0, 1.0)
    sub, white = _prep(m, np.array([[1.0]]))
    with pytest.raises(PartitionMismatch):
        build_family(m, sub, GroupPartition(groups=((0, 1),)))


def test_scalar_family_block():
    v, a, P = 2.0, 3.0, 5.0
    m = validate_model(1, 1, 1, [[1.0]], [[v]], a, P)
    sub, white = _prep(m, np.array([[P]]))
    fam = build_family(m, sub, GroupPartition(groups=((0,),)))
    A = fam.members[0]
    block = sub.U @ A @ m.Q_s @ A.conj().T @ sub.U.conj().T
    assert block[0, 0] == pytest.approx(a * a * v, rel=1e-12)


def test_zero_cap_family_is_all_zero():
    m = validate_model(1, 1, 2, [[1.0]], np.diag([4.0, 1.0]), 0.0, 1.0)
    sub, white = _prep(m, np.array([[1.0]]))
    fam = build_family(m, sub, GroupPartition(groups=((0,), (1,))))
    assert all(not np.any(A) for A in fam.members)
    fam.validate(m)


def test_two_group_blocks():
    m = validate_model(1, 1, 2, [[1.0]], np.diag([4.0, 1.0]), 3.0, 1.0)
    sub, white = _prep(m, np.array([[1.0]]))
    fam = build_family(m, sub, GroupPartition(groups=((0,), (1,))))
    blocks = [sub.U @ A @ m.Q_s @ A.conj().T @ sub.U.conj().T
              for A in fam.members]
    assert blocks[0][0, 0] == pytest.approx(36.0, rel=1e-12)
    assert blocks[1][0, 0] == pytest.approx(9.0, rel=1e-12)


def test_family_feasibility_and_alignment(rng):
    for _ in range(30):
        model = rand_model(rng)
        if math.isinf(model.a_max) or model.P == 0:
            continue
        Q_x = rand_psd(rng, model.m_t,
                       complex_field=np.iscomplexobj(model.H))
        Q_x *= model.P / np.trace(Q_x).real
        sub, white = _prep(model, Q_x)
        if sub.M0 == 0:
            continue
        for part in exhaustive_partitions(model.m_s, sub.M0):
            fam = build_family(model, sub, part)
            fam.validate(model)  # cap + orthogonality certificates
            for A, group in zip(fam.members, fam.group_map):
                block = sub.U @ A @ model.Q_s @ A.conj().T @ sub.U.conj().T
                off = block - np.diag(np.diag(block))
                assert np.linalg.norm(off) <= 1e-9 * (1 + np.linalg.norm(block))
                # exact cap attainment on every nonzero singular value
                smax = np.linalg.svd(A, compute_uv=False)[0]
                assert smax == pytest.approx(model.a_max, rel=1e-9)
                want = sorted((model.a_max ** 2 * white.eigvals[k] for k in group),
                              reverse=True)
                got = sorted(np.real(np.diag(block)), reverse=True)[:len(group)]
                assert np.allclose(got, want, rtol=1e-9)


def test_canonical_row_assignment_minimizes_terms():
    # with distinct signal and state spectra, pairing strongest-with-strongest
    # gives the smallest determinant term; swapping the rows never helps
    lam = np.array([10.0, 1.0])
    a2v = np.array([4.0, 1.0])

    def term(pairing):
        num = np.prod(lam + 1.0 + pairing)
        return math.log2(num / np.prod(pairing))

    canonical = term(a2v)
    swapped = term(a2v[::-1])
    assert canonical < swapped

    # the construction realizes the canonical pairing
    m = validate_model(2, 2, 2, np.eye(2), np.diag([4.0, 1.0]), 1.0, 11.0)
    Q_x = np.diag([10.0, 1.0])
    sub, white = _prep(m, Q_x)
    fam = build_family(m, sub, GroupPartition(groups=((0, 1),)))
    A = fam.members[0]
    block = sub.U @ A @ m.Q_s @ A.conj().T @ sub.U.conj().T
    assert np.allclose(np.diag(block), [4.0, 1.0], rtol=1e-9)


def test_limit_family_is_symbolic():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], math.inf, 1.0)
    sub, white = _prep(m, np.array([[1.0]]))
    fam = build_family(m, sub, GroupPartition(groups=((0,),)))
    assert fam.is_limit
    fam.validate(m)  # unit-cap members carry the direction information


def test_orthogonality_tolerance_scales_with_cap():
    m = validate_model(**BIG_CAP_MODEL)
    sub, white = _prep(m, water_filling(m)[1])
    assert -(-m.m_s // sub.M0) == 2
    families = [build_family(m, sub, part)  # validates at a_max ~ 9470
                for part in enumerate_partitions(m.m_s, sub.M0)]
    A = families[0].members[0]
    twice = AdversaryFamily(members=(A, A), group_map=((0, 1), (2,)), M0=sub.M0,
                            a_max=m.a_max)
    with pytest.raises(InfeasibleFamily, match="not Q_s-orthogonal"):
        twice.validate(m)


def test_orthogonality_checked_at_largest_valid_cap():
    # ||I_2||_F cap^2 overflows here, while lambda_max(Q_s) cap^2 does not
    a_max = math.sqrt(0.99 * np.finfo(float).max)
    m = validate_model(1, 1, 2, [[1.0]], np.eye(2), a_max, 1.0)
    A = np.array([[a_max, 0.0]])
    twice = AdversaryFamily(members=(A, A), group_map=((0,), (1,)), M0=1,
                            a_max=a_max)
    with pytest.raises(InfeasibleFamily, match="not Q_s-orthogonal"):
        twice.validate(m)
