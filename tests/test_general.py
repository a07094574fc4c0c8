import json
import math

import numpy as np
import pytest

from dpbound import (
    BoundReport,
    GroupPartition,
    SearchConfig,
    Soundness,
    build_family,
    capacity_upper_bound,
    enumerate_partitions,
    inner_inf,
    interference_free_capacity,
    model_from_json,
    objective,
    outer_sup,
    rank1_inputs_from_model,
    rank_one_bound,
    signal_subspace,
    tin_worst_case,
    validate_model,
    whiten_state,
)
from dpbound.errors import NegativeParameter, PartitionMismatch, RankZeroSignal
from dpbound.channel import _matrix_from_json
from dpbound.general import _best_partition, _spectrum_of
from dpbound.oracle import witness_tolerance, witness_value

from conftest import WITNESS_RANK_MODEL, rand_model, rand_psd
from reference_oracles import (
    BothSingular,
    contiguous_fallback,
    exhaustive_inner_inf,
    exhaustive_partitions,
    matrix_objective,
    numpy_fast_value,
)

P15 = 10.0 ** 1.5
FAST_SEARCH = SearchConfig(restarts=3, max_iters=60)


def scalar_model(a_max, P=P15, v=1.0):
    return validate_model(1, 1, 1, [[1.0]], [[v]], a_max, P)


def aligned_value(model, Q_x):
    _, val = inner_inf(model, Q_x)
    return val


def test_objective_scalar_high_inr():
    m = scalar_model(100.0)
    fam, _ = inner_inf(m, np.array([[P15]]))
    val = witness_value(m, np.array([[P15]]), fam)
    assert val == pytest.approx(1.258126621224833, abs=1e-12)


def test_objective_scalar_mid_inr():
    m = scalar_model(math.sqrt(10.0))
    val = aligned_value(m, np.array([[P15]]))
    assert val == pytest.approx(1.7798580629751344, abs=1e-12)


def test_objective_uneven_branch_hand_case():
    # two-dimensional signal, three state dims, interference power 4 per
    # coordinate: the remainder group uses the half-identity denominator
    m = validate_model(2, 2, 3, np.eye(2), np.eye(3), 2.0, 4.0)
    Q_x = np.diag([2.0, 2.0])
    sub = signal_subspace(m.H, Q_x)
    white = whiten_state(m.Q_s)
    part = GroupPartition(groups=((0, 1), (2,)))
    fam = build_family(m, sub, white, part)
    val = witness_value(m, Q_x, fam)
    g = math.log2(21.0 / 2.25) + 4.0
    expected = 0.5 * (math.log2(49.0 / 16.0) + math.log2(9.0) + g) / 3.0
    assert g == pytest.approx(7.222392421336448, abs=1e-12)
    assert val == pytest.approx(expected, abs=1e-12)
    kernel = objective(sub.spectrum.tolist(), white.eigvals.tolist(), 2.0, 3,
                       part, 0.5)
    assert kernel == pytest.approx(expected, abs=1e-12)


def test_objective_unbounded_cap_scalar():
    m = scalar_model(math.inf)
    val = aligned_value(m, np.array([[P15]]))
    assert val == pytest.approx(1.2569519183376299, abs=1e-12)


def test_objective_rank_zero_signal():
    m = scalar_model(1.0)
    with pytest.raises(RankZeroSignal):
        inner_inf(m, np.array([[0.0]]))


def test_objective_rejects_foreign_family():
    m = validate_model(2, 2, 1, np.eye(2), [[1.0]], 1.0, 4.0)
    sub = signal_subspace(m.H, np.diag([4.0, 0.0]))
    fam = build_family(m, sub, whiten_state(m.Q_s),
                       GroupPartition(groups=((0,),)))
    with pytest.raises(PartitionMismatch):
        witness_value(m, np.diag([0.0, 4.0]), fam)


def _witness_cases(rng):
    """Seeded (model, Q_x, family) triples over every partition shape.

    Real and complex fields (complex Q_s with a real H too), uneven last
    groups, drawn, unbounded and underflowing caps, and partitions drawn
    from every filling of the group shape, not only the candidates.
    """
    for i in range(600):
        m = rand_model(rng, max_ms=5)
        if i % 5 == 3:
            m = validate_model(m.m_t, m.m_r, m.m_s, np.real(m.H), m.Q_s,
                               m.a_max, m.P, "complex")
        cap = {0: math.inf, 1: 1e-170}.get(i % 7, m.a_max)
        m = validate_model(m.m_t, m.m_r, m.m_s, m.H, m.Q_s, cap, m.P, m.field)
        k = int(rng.integers(1, m.m_t + 1))
        F = rng.standard_normal((m.m_t, k))
        if np.iscomplexobj(m.H):
            F = F + 1j * rng.standard_normal((m.m_t, k))
        Q_x = F @ F.conj().T
        sub = signal_subspace(m.H, Q_x)
        if sub.M0 == 0:
            continue
        parts = exhaustive_partitions(m.m_s, sub.M0)
        part = parts[int(rng.integers(len(parts)))]
        yield m, Q_x, build_family(m, sub, whiten_state(m.Q_s), part)


def test_witness_evaluator_matches_matrix_oracle_bitwise():
    rng = np.random.default_rng(20130518)
    seen = {"complex": 0, "uneven": 0, "limit": 0, "inf": 0, "finite": 0}
    for m, Q_x, fam in _witness_cases(rng):
        got = witness_value(m, Q_x, fam)
        want = matrix_objective(m, Q_x, fam)
        assert got == want
        seen["complex"] += np.iscomplexobj(m.Q_s)
        seen["uneven"] += m.m_s % fam.M0 != 0
        seen["limit"] += fam.is_limit
        seen["inf"] += got == math.inf
        seen["finite"] += math.isfinite(got)
    assert sum(seen[k] for k in ("inf", "finite")) >= 500
    assert min(seen.values()) >= 50, seen


def test_witness_evaluator_both_singular_term_is_infinite():
    # interference power 1e10 beside the half-identity: both log-dets of
    # the remainder group fail the relative rank rule.  The one-ratio-per-
    # member oracle raised; the witness evaluator reads it as +inf.  The
    # bound reports the diagonal objective instead, finite here; at P = 1
    # it lies above the interference-free capacity, the effective bound.
    m = validate_model(2, 2, 1, np.eye(2), [[1.0]], 1e5, 1.0)
    Q_x = np.eye(2) / 2.0
    sub = signal_subspace(m.H, Q_x)
    fam = build_family(m, sub, whiten_state(m.Q_s),
                       GroupPartition(groups=((0,),)))
    with pytest.raises(BothSingular):
        matrix_objective(m, Q_x, fam)
    assert witness_value(m, Q_x, fam) == math.inf
    assert math.isfinite(inner_inf(m, Q_x)[1])
    rep = capacity_upper_bound(m, SearchConfig(restarts=1, max_iters=3))
    assert math.isfinite(rep.raw_value_bits)
    assert rep.value_bits == interference_free_capacity(m)


def _kernel_value(m, fam):
    """``objective`` of a built family's partition at its signal spectrum."""
    return objective(fam.subspace.spectrum.tolist(),
                     whiten_state(m.Q_s).eigvals.tolist(), m.a_max, m.m_s,
                     GroupPartition(groups=fam.group_map), m.field.kappa)


def test_witness_value_matches_kernel_within_conditioning():
    # every witness case, and each finite cap again 1e4 times larger: the
    # matrix value stays within 64 eps sum ||B|| / lambda_min(B) of the
    # diagonal objective, except where the relative singular-matrix rule
    # makes it +inf while the diagonal objective is finite (large caps)
    rng = np.random.default_rng(20130518)
    compared = diverged = 0
    for m, Q_x, fam in _witness_cases(rng):
        cases = [(m, fam)]
        if math.isfinite(m.a_max) and m.a_max > 1e-100:
            big = validate_model(m.m_t, m.m_r, m.m_s, m.H, m.Q_s,
                                 m.a_max * 1e4, m.P, m.field)
            cases.append((big, build_family(
                big, fam.subspace, whiten_state(big.Q_s),
                GroupPartition(groups=fam.group_map))))
        for model, family in cases:
            kernel = _kernel_value(model, family)
            matrix = witness_value(model, Q_x, family)
            if math.isinf(kernel):
                assert matrix == math.inf
            elif math.isinf(matrix):
                diverged += 1
            else:
                tol = witness_tolerance(model, Q_x, family)
                assert tol < 1e-4
                assert abs(kernel - matrix) <= tol
                compared += 1
    assert compared >= 800
    assert diverged >= 20


def test_large_cap_bounds_below_interference_free():
    # the matrix value of these witnesses is +inf under the relative
    # singular-matrix rule, which made the bound the interference-free
    # capacity (5.6724 and 2.5850 bits)
    search = SearchConfig(2, 40)
    for args, want in [((2, 2, 1, np.eye(2), [[1.0]], 1e6, 100.0), 5.5043),
                       ((2, 2, 3, np.eye(2), np.eye(3), 1e5, 10.0), 2.1258)]:
        m = validate_model(*args)
        rep = capacity_upper_bound(m, search)
        assert rep.value_bits == pytest.approx(want, abs=1e-4)
        assert rep.value_bits == rep.raw_value_bits
        assert rep.value_bits < interference_free_capacity(m) - 0.1


def test_bound_needs_no_matrix_logdet(monkeypatch):
    import sys

    import dpbound.spectral

    def boom(M):
        raise AssertionError("logdet_psd called on the bound path")

    real = dpbound.spectral.logdet_psd
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dpbound" and getattr(mod, "logdet_psd", None) is real:
            monkeypatch.setattr(mod, "logdet_psd", boom)
    H = [[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.5, 0.2, 1.2]]
    m = validate_model(3, 3, 3, H, np.diag([3.0, 1.0, 0.5]), 5.0, 10.0)
    rep = capacity_upper_bound(m, SearchConfig(restarts=1, max_iters=5))
    assert math.isfinite(rep.raw_value_bits)
    assert rep.diagnostics["inner_method"] == "exact"
    assert set(rep.diagnostics["per_rank_raw"]) == {"1", "2", "3"}


def test_inner_inf_single_partition():
    m = scalar_model(100.0)
    fam, val = inner_inf(m, np.array([[P15]]))
    assert len(fam) == 1
    assert val == pytest.approx(1.258126621224833)


def test_inner_inf_order_invariant_for_scalar_signal():
    m = validate_model(1, 1, 2, [[1.0]], np.diag([4.0, 1.0]), 3.0, 10.0)
    Q = np.array([[10.0]])
    sub = signal_subspace(m.H, Q)
    white = whiten_state(m.Q_s)
    vals = [witness_value(m, Q, build_family(m, sub, white, p))
            for p in exhaustive_partitions(2, 1)]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def test_inner_inf_zero_cap_sentinel():
    m = scalar_model(0.0)
    fam, val = inner_inf(m, np.array([[P15]]))
    assert math.isinf(val)
    rep = capacity_upper_bound(m)
    assert rep.value_bits == pytest.approx(interference_free_capacity(m))


def test_outer_sup_miso_beamforming():
    m = validate_model(2, 1, 1, [[1.0, 0.0]], [[1.0]], 2.0, 10.0)
    rep = outer_sup(m, 1)
    assert rep.soundness is Soundness.EXACT
    assert rep.raw_value_bits == pytest.approx(
        rank_one_bound(rank1_inputs_from_model(m)), abs=1e-12)


def test_outer_sup_scalar_forced():
    m = scalar_model(100.0)
    rep = outer_sup(m, 1)
    assert rep.soundness is Soundness.EXACT
    assert rep.value_bits == pytest.approx(1.258126621224833)


def test_outer_sup_matches_eigenvalue_split_grid():
    # symmetric 2x2 instance; the oracle scans input eigenvalue splits
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 10.0, 10.0)
    rep = outer_sup(m, 2, FAST_SEARCH)
    grid = []
    for p in np.linspace(0.01, 9.99, 999):
        grid.append(aligned_value(m, np.diag([p, 10.0 - p])))
    grid_best = max(grid)
    assert rep.raw_value_bits >= grid_best - 1e-6
    assert rep.raw_value_bits == pytest.approx(grid_best, abs=1e-4)
    assert rep.soundness is Soundness.HEURISTIC_SUP
    hand = 0.25 * (math.log2(36.0) + math.log2(106.0 ** 2 / 1e4))
    assert rep.raw_value_bits == pytest.approx(hand, abs=1e-9)


def test_capacity_scalar_high_inr():
    rep = capacity_upper_bound(scalar_model(100.0))
    assert rep.value_bits == pytest.approx(1.258126621224833, abs=1e-9)
    assert rep.raw_value_bits == rep.value_bits


def test_capacity_scalar_low_inr_capped_by_interference_free():
    rep = capacity_upper_bound(scalar_model(math.sqrt(0.1)))
    assert rep.raw_value_bits == pytest.approx(3.3454897581348817, abs=1e-9)
    assert rep.value_bits == pytest.approx(2.5139038366752597, abs=1e-9)


def test_capacity_zero_cap():
    rep = capacity_upper_bound(scalar_model(0.0))
    assert rep.value_bits == pytest.approx(2.5139038366752597)
    assert math.isinf(rep.raw_value_bits)


def test_capacity_dead_channel():
    m = validate_model(2, 2, 1, np.zeros((2, 2)), [[1.0]], 1.0, 5.0)
    rep = capacity_upper_bound(m, FAST_SEARCH)
    assert rep.value_bits == 0.0


def test_report_invariants(rng):
    for _ in range(10):
        m = rand_model(rng)
        rep = capacity_upper_bound(m, FAST_SEARCH)
        assert rep.value_bits >= 0.0
        assert rep.value_bits <= rep.raw_value_bits + 1e-12
        if m.a_max > 0:
            assert rep.value_bits == pytest.approx(
                min(rep.raw_value_bits, interference_free_capacity(m)), abs=1e-9)
        if min(m.m_t, m.m_r) == 1:
            assert rep.soundness is Soundness.EXACT


def test_dominates_tin(rng):
    for _ in range(15):
        m = rand_model(rng)
        rep = capacity_upper_bound(m, FAST_SEARCH)
        assert tin_worst_case(m) <= rep.value_bits + 1e-9


def test_monotone_in_power_exact_paths():
    grid = np.linspace(0.5, 40.0, 25)
    vals = [capacity_upper_bound(scalar_model(3.0, P=float(p))).value_bits
            for p in grid]
    assert np.all(np.diff(vals) >= -1e-12)
    simo = [capacity_upper_bound(
        validate_model(1, 2, 2, [[1.0], [0.5]], np.diag([2.0, 1.0]), 2.0,
                       float(p))).value_bits for p in grid]
    assert np.all(np.diff(simo) >= -1e-12)


def test_monotone_in_cap():
    caps = np.linspace(0.2, 50.0, 30)
    raws = [capacity_upper_bound(scalar_model(float(a))).raw_value_bits
            for a in caps]
    assert np.all(np.diff(raws) <= 1e-12)
    # general path at a fixed input covariance
    Q = np.diag([3.0, 1.0])
    prev = math.inf
    for a in (0.5, 1.0, 2.0, 5.0, 20.0):
        m = validate_model(2, 2, 2, np.eye(2), np.diag([2.0, 1.0]), a, 4.0)
        val = aligned_value(m, Q)
        assert val <= prev + 1e-12
        prev = val


def test_consistency_with_closed_form(rng):
    for _ in range(10):
        m = rand_model(rng)
        if min(m.m_t, m.m_r) != 1 or m.a_max == 0:
            continue
        rep = capacity_upper_bound(m)
        closed = min(rank_one_bound(rank1_inputs_from_model(m)),
                     interference_free_capacity(m))
        assert rep.value_bits == pytest.approx(closed, abs=1e-9)


def test_trace_saturation_never_hurts(rng):
    for _ in range(15):
        m = rand_model(rng, complex_ok=False)
        if math.isinf(m.a_max) or m.a_max == 0:
            continue
        Q = rand_psd(rng, m.m_t)
        Q_small = 0.5 * m.P * Q / np.trace(Q).real
        Q_full = m.P * Q / np.trace(Q).real
        assert aligned_value(m, Q_full) >= aligned_value(m, Q_small) - 1e-10


def test_limit_approached_from_above():
    caps = [10.0, 100.0, 1000.0, 1e5]
    prelog = 1.2569519183376299
    vals = [capacity_upper_bound(scalar_model(a)).value_bits for a in caps]
    assert all(v > prelog for v in vals)
    assert np.all(np.diff(vals) < 0)
    assert vals[1] - prelog <= 0.0012  # 40 dB INR point


def test_fast_evaluator_matches_matrix_path(rng):
    # an ascent step's value (the SVD spectrum of H F, minimised over the
    # candidates) against inner_inf at F F^T and its witness's matrix value
    for _ in range(20):
        m = rand_model(rng, complex_ok=False)
        if m.a_max == 0 or m.P == 0:
            continue
        k = int(rng.integers(1, min(m.m_t, m.m_r) + 1))
        F = rng.standard_normal((m.m_t, k))
        F *= math.sqrt(m.P) / np.linalg.norm(F)
        lam = _spectrum_of(m.H, F).tolist()
        try:
            fam, slow = inner_inf(m, F @ F.T)
        except RankZeroSignal:
            assert lam == []
            continue
        fast = _best_partition(enumerate_partitions(m.m_s, len(lam)), lam,
                               whiten_state(m.Q_s).eigvals.tolist(), m.a_max,
                               m.m_s, m.field.kappa)[1]
        assert fast == pytest.approx(slow, abs=1e-9)
        assert fast == pytest.approx(witness_value(m, F @ F.T, fam), abs=1e-9)


def test_per_rank_diagnostics_present():
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 2.0, 4.0)
    rep = capacity_upper_bound(m, FAST_SEARCH)
    assert set(rep.diagnostics["per_rank_raw"]) == {"1", "2"}
    assert rep.diagnostics["restarts"] >= 3
    doc = rep.to_json()
    assert doc["soundness"] == "HeuristicSup"


def _descending(rng, n, lo, hi):
    return np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=n)))[::-1]


def test_scalar_kernel_matches_numpy_reference():
    rng = np.random.default_rng(20130516)
    # every filling for m_s <= 7; at m_s = 9, M0 = 1 the two contiguous ones
    cases = [(m_s, M0, exhaustive_partitions(m_s, M0))
             for m_s in range(1, 8) for M0 in range(1, 5)]
    cases.append((9, 1, contiguous_fallback(9, 1)))
    for m_s, M0, parts in cases:
        for trial in range(2):
            lam = _descending(rng, M0, 1e-3, 1e3)
            v = _descending(rng, m_s, 0.05, 20.0)
            caps = [math.inf, 1e-3, 1e3,
                    float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))]
            kappa = 0.5 if trial == 0 else 1.0
            # every partition is checked; the caps rotate through them
            for i, part in enumerate(parts):
                a_max = caps[(i + trial) % len(caps)]
                fast = objective(lam.tolist(), v.tolist(), a_max, m_s,
                                 part, kappa)
                ref = numpy_fast_value(lam, v, a_max, m_s, part, kappa)
                assert fast == pytest.approx(ref, rel=0, abs=1e-12)


def test_inner_method_reports_budget_fallback():
    # m_s = 9 at M0 = 1 is where a partition budget once forced a lossy
    # two-partition fallback; no fallback remains, the method reads exact
    rng = np.random.default_rng(3)
    m = validate_model(2, 2, 9, rng.standard_normal((2, 2)),
                       rand_psd(rng, 9), 2.0, 4.0)
    rep = capacity_upper_bound(
        m, SearchConfig(restarts=1, max_iters=2, ranks=(1,)))
    assert rep.M0 == 1
    assert rep.diagnostics["inner_method"] == "exact"
    assert rep.diagnostics["target_rank"] == 1


def test_inner_method_reports_exhaustive():
    # the exact inner minimum attains the exhaustive one (tests below)
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 2.0, 4.0)
    rep = capacity_upper_bound(m, FAST_SEARCH)
    assert rep.diagnostics["inner_method"] == "exact"
    assert rep.diagnostics["target_rank"] == rep.M0


def test_target_rank_reported_beside_collapsed_rank():
    m = validate_model(3, 3, 2, np.diag([1.0, 1.0, 0.0]), np.eye(2), 2.0, 4.0)
    rep = capacity_upper_bound(m, SearchConfig(restarts=1, max_iters=5,
                                               ranks=(3,)))
    assert rep.diagnostics["target_rank"] == 3
    assert rep.M0 == 2
    assert rep.diagnostics["inner_method"] == "exact"


def test_underflowing_cap_gives_infinite_raw_value():
    # a_max^2 underflows to zero: every full-group log-det ratio is +inf
    m = validate_model(2, 2, 3, np.eye(2), np.eye(3), 1e-200, 4.0)
    rep = capacity_upper_bound(m, SearchConfig(restarts=1, max_iters=3))
    assert rep.raw_value_bits == math.inf
    assert rep.value_bits == pytest.approx(interference_free_capacity(m))


def test_candidate_minimum_matches_exhaustive_oracle():
    rng = np.random.default_rng(20130517)
    for m_s in range(1, 8):
        for M0 in range(1, 5):
            every = exhaustive_partitions(m_s, M0)
            candidates = enumerate_partitions(m_s, M0)
            drawn = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            for a_max in (math.inf, 1e-3, 1e3, drawn):
                lam = _descending(rng, M0, 1e-3, 1e3).tolist()
                v = _descending(rng, m_s, 0.05, 20.0).tolist()
                want = min(objective(lam, v, a_max, m_s, p, 0.5)
                           for p in every)
                got = min(objective(lam, v, a_max, m_s, p, 0.5)
                          for p in candidates)
                assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_inner_inf_matches_exhaustive_matrix_minimum(rng):
    for _ in range(20):
        m = rand_model(rng, max_ms=4)
        Q_x = rand_psd(rng, m.m_t, complex_field=np.iscomplexobj(m.H))
        Q_x *= m.P / np.trace(Q_x).real
        _, val = inner_inf(m, Q_x)
        assert val == pytest.approx(exhaustive_inner_inf(m, Q_x),
                                    rel=0, abs=1e-9)


def test_exact_minimum_below_old_fallback():
    # m_s = 10, M0 = 2 has 113400 fillings; the contiguous pair a partition
    # budget once fell back to misses the round-robin minimiser
    Q_s = np.diag(np.geomspace(20.0, 0.05, 10))
    m = validate_model(2, 2, 10, np.eye(2), Q_s, 3.0, 20.0)
    Q_x = np.diag([15.0, 5.0])
    fam, val = inner_inf(m, Q_x)
    old = exhaustive_inner_inf(m, Q_x, contiguous_fallback(10, 2))
    assert fam.group_map == ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))
    assert val < old - 0.1


def test_empty_rank_tuple_rejected():
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), 2.0, 4.0)
    with pytest.raises(NegativeParameter):
        capacity_upper_bound(m, SearchConfig(ranks=()))


def _witness_rank(model, rep) -> int:
    Q = _matrix_from_json(rep.diagnostics["best_Q_x"], "best_Q_x")
    return signal_subspace(model.H, Q).M0


def test_reported_rank_is_witness_rank():
    m = model_from_json(WITNESS_RANK_MODEL)
    rep = outer_sup(m, 3, SearchConfig(restarts=2, max_iters=40))
    assert rep.M0 == _witness_rank(m, rep) == 2
    assert rep.diagnostics["target_rank"] == 3


def test_reported_rank_is_witness_rank_random(rng):
    checked = 0
    while checked < 12:
        m = rand_model(rng)
        if min(m.m_t, m.m_r) < 2:
            continue
        for t in range(1, min(m.m_t, m.m_r) + 1):
            rep = outer_sup(m, t, SearchConfig(restarts=2, max_iters=20))
            assert rep.M0 == _witness_rank(m, rep)
            checked += 1


def test_report_json_encodes_non_finite_at_any_depth():
    rep = BoundReport(value_bits=1.0, raw_value_bits=math.inf, M0=1,
                      kappa=0.5, soundness=Soundness.HEURISTIC_SUP,
                      diagnostics={"per_rank_raw": {"1": math.inf},
                                   "row": [-math.inf, math.nan, 2.0],
                                   "nested": [[np.float64(math.inf)]]})
    doc = rep.to_json()
    json.dumps(doc, allow_nan=False)
    assert doc["raw_value_bits"] == "inf"
    assert doc["diagnostics"] == {"per_rank_raw": {"1": "inf"},
                                  "row": ["-inf", "nan", 2.0],
                                  "nested": [["inf"]]}
