"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import hashlib
import math

import numpy as np
import pytest

from dpbound import (
    Rank1Inputs,
    SearchConfig,
    SweepSpec,
    capacity_upper_bound,
    cross_check_rank1,
    dof_upper_bound,
    emit_data_files,
    interference_free_capacity,
    logdet_concavity_check,
    prelog_gap_certificate,
    prelog_reference,
    rank_one_bound,
    run_equivalence_suite,
    run_sweep,
    tin_worst_case,
    validate_model,
)
from dpbound.dof import DofScenario, InrScaling
from dpbound.oracle import SEED_LADDER, feasible_concavity_pairs

from conftest import rand_model, rand_psd

P15 = 10.0 ** 1.5


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_reference_constants():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, P15)
    int_free = interference_free_capacity(m)
    prelog = prelog_reference(Rank1Inputs(P15, (1.0,), 100.0, 0.5))
    ok = abs(int_free - 2.5139) <= 5e-4 and abs(prelog - 1.257) <= 5e-4
    report(1, ok, f"int_free={int_free:.6f} (2.5139±5e-4), "
                  f"prelog={prelog:.6f} (1.257±5e-4)")


def test_criterion_2_high_inr_convergence():
    inr_grid = np.arange(-10.0, 41.0, 1.0)
    vals = []
    for inr in inr_grid:
        a = math.sqrt(10.0 ** (inr / 10.0))
        vals.append(rank_one_bound(Rank1Inputs(P15, (1.0,), a, 0.5)))
    monotone = bool(np.all(np.diff(vals) < 0))
    gap = vals[-1] - prelog_reference(Rank1Inputs(P15, (1.0,), 1.0, 0.5))
    ok = monotone and 0.0 < gap <= 0.0012
    report(2, ok, f"monotone={monotone}, gap_at_40dB={gap:.6f} (<=0.0012)")


def test_criterion_3_rank_one_consistency():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        if rng.integers(0, 2):
            m_t, m_r = int(rng.integers(1, 5)), 1
        else:
            m_t, m_r = 1, int(rng.integers(1, 5))
        m_s = int(rng.integers(1, 5))
        complex_field = bool(rng.integers(0, 2))
        H = rng.standard_normal((m_r, m_t))
        if complex_field:
            H = H + 1j * rng.standard_normal((m_r, m_t))
        model = validate_model(
            m_t, m_r, m_s, H, rand_psd(rng, m_s, complex_field=complex_field),
            float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
            float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
            "complex" if complex_field else "real")
        worst = max(worst, cross_check_rank1(model)["delta"])
    ok = worst <= 1e-9
    report(3, ok, f"max |general - closed_form| = {worst:.3g} over 100 "
                  f"MISO/SIMO instances (<=1e-9)")


def test_criterion_4_gap_certificate():
    rng = np.random.default_rng(4)
    count, violations = 0, 0
    while count < 1000:
        hp = float(np.exp(rng.uniform(np.log(0.1), np.log(1e3))))
        a = float(np.exp(rng.uniform(np.log(0.5), np.log(1e3))))
        m_s = int(rng.integers(1, 5))
        kappa = 0.5 if rng.integers(0, 2) else 1.0
        v_min = (1.0 + hp) / a ** 2
        v = tuple(float(v_min * np.exp(rng.uniform(0.0, 3.0)))
                  for _ in range(m_s))
        inp = Rank1Inputs(hp, v, a, kappa)
        cert = prelog_gap_certificate(inp)
        if not cert["applies"]:
            continue
        count += 1
        gap = rank_one_bound(inp) - prelog_reference(inp)
        if not 0.0 <= gap <= cert["gap_bound"]:
            violations += 1
    ok = violations == 0
    report(4, ok, f"{count} certified instances, {violations} violations of "
                  f"0 <= gap <= kappa*m_s/(m_s+1)")


def test_criterion_5_sandwich():
    rng = np.random.default_rng(5)
    search = SearchConfig(restarts=2, max_iters=40)
    worst_slack = -math.inf
    checked = 0
    for _ in range(200):
        m = rand_model(rng, max_dim=3, max_ms=3)
        tin = tin_worst_case(m)
        rep = capacity_upper_bound(m, search)
        int_free = interference_free_capacity(m)
        worst_slack = max(worst_slack, tin - rep.value_bits)
        assert tin <= rep.value_bits + 1e-9
        assert tin <= int_free + 1e-9
        checked += 1
    ok = checked == 200 and worst_slack <= 1e-9
    report(5, ok, f"200 models: max(tin - bound) = {worst_slack:.3g} (<=1e-9)")


def test_criterion_6_oracle_equivalence():
    records = run_equivalence_suite()
    worst = max(r["gap"] for r in records)
    ok = len(records) == 20 and all(r["ok"] for r in records)
    report(6, ok, f"20 fixed cases, max |aligned - brute| = {worst:.3g} (<=1e-4)")


def test_criterion_7_concavity_inequality():
    trials, failures = 0, 0
    for seed in SEED_LADDER:
        for M, Psi in feasible_concavity_pairs(seed, 100):
            trials += 1
            if not logdet_concavity_check(M, Psi):
                failures += 1
    ok = trials == 1000 and failures == 0
    report(7, ok, f"{trials} feasible pairs, {failures} inequality failures")


def test_criterion_8_dof_table_and_slope():
    table = {
        (1, 1, 1, False, InrScaling.LINEAR): 0.5,
        (2, 2, 3, True, InrScaling.LINEAR): 1.0,
        (2, 2, 4, True, InrScaling.SUPERLINEAR): 2.0 / 3.0,
        (3, 3, 1, True, InrScaling.SUBLINEAR): 3.0,
    }
    table_ok = all(
        dof_upper_bound(DofScenario(*k[:3], amax_finite=k[3], inr_scaling=k[4]))
        == pytest.approx(expected)
        for k, expected in table.items())

    P = 1e6
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], math.sqrt(P), P)
    ratio = capacity_upper_bound(m).value_bits / (0.5 * math.log2(1.0 + P))
    slope_ok = abs(ratio - 0.5) <= 0.05
    report(8, table_ok and slope_ok,
           f"table={'ok' if table_ok else 'bad'}, slope ratio at P=1e6: "
           f"{ratio:.4f} (0.5±0.05)")


def test_criterion_9_reproducible_sweep(tmp_path):
    spec = SweepSpec(snr_db=15.0, inr_db_start=-10.0, inr_db_stop=40.0,
                     inr_db_step=1.0)
    digests = []
    for sub in ("run1", "run2"):
        files = emit_data_files(run_sweep(spec), tmp_path / sub)
        blob = b"".join(open(f, "rb").read() for f in sorted(files))
        digests.append(hashlib.sha256(blob).hexdigest())
    ok = digests[0] == digests[1]
    report(9, ok, f"sha256 {digests[0][:16]}... == {digests[1][:16]}...")
