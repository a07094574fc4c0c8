import math

import numpy as np
import pytest

from dpbound import (
    AdversaryFamily,
    GroupPartition,
    brute_force_inner_inf,
    build_family,
    cross_check_rank1,
    inner_inf,
    logdet_concavity_check,
    run_equivalence_suite,
    signal_subspace,
    validate_model,
)
from dpbound import oracle
from dpbound.errors import InfeasiblePsi, NotRankOne, RankZeroSignal, TooLarge
from dpbound.oracle import (
    SEED_LADDER,
    _least_on_grid,
    concavity_trials,
    concavity_verdicts,
    feasible_concavity_pairs,
    fixed_equivalence_suite,
    witness_value,
)

from conftest import rand_psd
from reference_oracles import (
    dense_brute_force_inner_inf,
    scalar_concavity_check,
    scalar_concavity_pairs,
)

P15 = 10.0 ** 1.5


def test_brute_force_scalar_boundary_minimum():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, P15)
    val = brute_force_inner_inf(m, np.array([[P15]]), 10_000)
    # the objective decreases in interference power, so the cap is optimal
    assert val == pytest.approx(1.258126621224833, abs=1e-4)


def test_brute_force_zero_cap_sentinel():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 0.0, P15)
    assert math.isinf(brute_force_inner_inf(m, np.array([[P15]]), 100))


def test_brute_force_matches_aligned_two_state_dims():
    m = validate_model(1, 1, 2, [[1.0]], np.diag([4.0, 1.0]), 3.0, P15)
    Q = np.array([[P15]])
    _, aligned = inner_inf(m, Q)
    brute = brute_force_inner_inf(m, Q, 4096)
    assert aligned == pytest.approx(brute, abs=1e-4)


def test_rank_zero_signal_raises_one_exception():
    m = validate_model(2, 2, 1, np.eye(2), [[1.0]], 1.0, 1.0)
    Q = np.zeros((2, 2))
    sub = signal_subspace(m.H, Q)
    assert sub.M0 == 0
    with pytest.raises(RankZeroSignal):
        inner_inf(m, Q)
    with pytest.raises(RankZeroSignal):
        build_family(m, sub, GroupPartition(groups=((0,),)))
    with pytest.raises(RankZeroSignal):
        brute_force_inner_inf(m, Q, 100)
    fam = AdversaryFamily(members=(), group_map=(), M0=0, a_max=1.0, subspace=sub)
    with pytest.raises(RankZeroSignal):
        witness_value(m, Q, fam)


def test_brute_force_guard():
    m = validate_model(2, 2, 3, np.eye(2), np.eye(3), 1.0, 1.0)
    with pytest.raises(TooLarge):
        brute_force_inner_inf(m, np.eye(2) / 2, 100)
    m_inf = validate_model(1, 1, 1, [[1.0]], [[1.0]], math.inf, 1.0)
    with pytest.raises(TooLarge):
        brute_force_inner_inf(m_inf, np.array([[1.0]]), 100)


def test_concavity_scalar_example():
    assert logdet_concavity_check([[3.0]], [[1.0]])
    # log2(4) + log2(2) = 3 <= 2 log2(3) = 3.1699


def test_concavity_zero_perturbation_equality():
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert logdet_concavity_check(M, np.zeros((2, 2)))


def test_concavity_randomized_trials():
    for seed in SEED_LADDER:
        for M, Psi in feasible_concavity_pairs(seed, 100):
            assert logdet_concavity_check(M, Psi)


def test_concavity_infeasible_rejected():
    with pytest.raises(InfeasiblePsi):
        logdet_concavity_check([[1.0]], [[2.0]])
    M = np.stack([np.eye(2), np.eye(2)])
    Psi = np.stack([np.zeros((2, 2)), np.diag([0.5, -2.0])])
    with pytest.raises(InfeasiblePsi):
        concavity_verdicts(M, Psi)


@pytest.mark.parametrize("seed", SEED_LADDER)
def test_pairs_match_scalar_stream(seed):
    batched = list(feasible_concavity_pairs(seed, 100))
    reference = list(scalar_concavity_pairs(seed, 100))
    assert len(batched) == len(reference)
    for (M, Psi), (M_ref, Psi_ref) in zip(batched, reference):
        np.testing.assert_allclose(M, M_ref, rtol=1e-12)
        np.testing.assert_allclose(Psi, Psi_ref, rtol=1e-12)


def test_ladder_trials_match_scalar_stream_and_verdicts():
    reference = [pair for seed in SEED_LADDER
                 for pair in scalar_concavity_pairs(seed, 100)]
    seen = []
    for order, M, Psi in concavity_trials(SEED_LADDER, 100):
        for i, M_i, Psi_i, ok in zip(order, M, Psi, concavity_verdicts(M, Psi)):
            M_ref, Psi_ref = reference[i]
            np.testing.assert_allclose(M_i, M_ref, rtol=1e-12)
            np.testing.assert_allclose(Psi_i, Psi_ref, rtol=1e-12)
            assert ok == scalar_concavity_check(M_ref, Psi_ref)
            seen.append(int(i))
    assert sorted(seen) == list(range(len(reference)))


def test_verdicts_match_scalar_check_on_edge_cases(monkeypatch):
    rng = np.random.default_rng(3)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M_c = G @ G.conj().T + np.eye(3)
    E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Psi_c = 0.1 * (E + E.conj().T)
    pairs = [
        (np.eye(3), np.diag([1.0, 0.0, 0.0])),        # M - Psi singular
        (np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))),  # M itself singular
        (rand_psd(rng, 3) + np.eye(3), np.zeros((3, 3))),
        (M_c, Psi_c),                                  # complex Hermitian
    ]
    M = np.stack([m for m, _ in pairs]).astype(complex)
    Psi = np.stack([p for _, p in pairs]).astype(complex)
    assert oracle.CONCAVITY_TOL == 1e-9
    for tol in (1e-9, -0.5):
        monkeypatch.setattr(oracle, "CONCAVITY_TOL", tol)
        got = concavity_verdicts(M, Psi)
        want = [scalar_concavity_check(m, p, tol) for m, p in zip(M, Psi)]
        assert list(got) == want
        assert [logdet_concavity_check(m, p) for m, p in zip(M, Psi)] == want
    assert not all(want)  # a negative tolerance makes the equality cases fail


# the M0 = 1 and M0 = 2 grids with m_s = 2, which run in blocks
GRID_CASES = {f"case{i}": c for i, c in enumerate(fixed_equivalence_suite())
              if c["model"].m_s == 2}


@pytest.mark.parametrize("case", GRID_CASES.values(), ids=GRID_CASES.keys())
def test_blockwise_grid_matches_dense(case):
    blocked = brute_force_inner_inf(case["model"], case["Q_x"], case["resolution"])
    dense = dense_brute_force_inner_inf(case["model"], case["Q_x"],
                                        case["resolution"])
    assert abs(blocked - dense) <= 1e-12


def test_cross_check_scalar_operating_point():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, P15)
    rec = cross_check_rank1(m)
    assert rec["delta"] <= 1e-9
    assert rec["closed_form"] == pytest.approx(1.258126621224833)


def test_cross_check_simo():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 1))
    m = validate_model(1, 3, 2, h, rand_psd(rng, 2), 2.5, 8.0)
    assert cross_check_rank1(m)["delta"] <= 1e-9


def test_cross_check_miso():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((1, 4))
    m = validate_model(4, 1, 3, h, rand_psd(rng, 3), 5.0, 20.0)
    assert cross_check_rank1(m)["delta"] <= 1e-9


def test_cross_check_rejects_mimo():
    m = validate_model(2, 2, 1, np.eye(2), [[1.0]], 1.0, 1.0)
    with pytest.raises(NotRankOne):
        cross_check_rank1(m)


def test_equivalence_suite_all_within_slack():
    records = run_equivalence_suite()
    assert len(records) == 20
    assert all(r["ok"] for r in records)
    # aligned minimum is never below the grid minimum (grid contains it)
    for r in records:
        assert r["aligned"] >= r["brute_force"] - 1e-9


@pytest.mark.parametrize("n_ang", [7, 24, 42])
def test_least_on_grid_matches_every_angle(n_ang):
    rng = np.random.default_rng(n_ang)
    c1, c2 = rng.standard_normal((2, 5000)) * 10.0 ** rng.uniform(-3, 3, (2, 5000))
    c1[:50] = c2[:50] = 0.0                                # every angle ties
    c0 = np.hypot(c1, c2) + 10.0 ** rng.uniform(-3, 3, 5000)
    two_phi = 2.0 * np.linspace(0.0, math.pi, n_ang, endpoint=False)[:, None]
    every = np.min(c0 + c1 * np.cos(two_phi) + c2 * np.sin(two_phi), axis=0)
    got = _least_on_grid(c0, c1, c2, n_ang)
    assert np.all(np.abs(got - every) <= 1e-12 * (c0 + np.hypot(c1, c2)))


def _grid_models(M0: int, count: int, seed: int):
    """Seeded m_s = 2 models and input covariances of signal rank ``M0``.

    Caps run log-uniformly over [1e-3, 1e8] (both ends included); the
    field alternates, so both values of kappa occur.  For M0 = 2 every
    fifth model has equal signal eigenvalues (lambda0 = lambda1, where
    every phi ties); every third model has equal state eigenvalues
    (v0 = v1), and some have both.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        complex_field = bool(i % 2)
        cap = (1e-3, 1e8)[i] if i < 2 else 10.0 ** rng.uniform(-3.0, 8.0)
        Q_s = (float(np.exp(rng.uniform(-1.5, 1.5))) * np.eye(2) if i % 3 == 0
               else rand_psd(rng, 2, complex_field=complex_field))
        m_r = 2 if M0 == 2 else int(rng.integers(1, 3))
        H = rng.standard_normal((m_r, 2))
        if complex_field:
            H = H + 1j * rng.standard_normal((m_r, 2))
        d = np.exp(rng.uniform(-2.0, 3.0, size=2))
        if M0 == 2 and i % 5 == 0:
            H, d = np.eye(2), np.full(2, d[0])
        if M0 == 1 and m_r == 2:
            d[1] = 0.0                                         # rank-one input
        Q_x = np.diag(d)
        model = validate_model(2, m_r, 2, H, Q_s, cap, float(d.sum()),
                               "complex" if complex_field else "real")
        assert signal_subspace(model.H, Q_x).M0 == M0
        yield model, Q_x


@pytest.mark.parametrize("M0, resolutions", [(1, (256, 1000, 4096)),
                                             (2, (20_736, 50_625, 200_000))])
def test_reduced_grid_matches_dense(M0, resolutions):
    # M0 = 1 keeps the dense grid's term order, so it must match exactly;
    # M0 = 2 evaluates each determinant in another form, to rounding.  At
    # the largest caps the dense grid's entrywise determinant can cancel
    # below zero and give NaN; there the reduced grid must stay finite.
    for i, (model, Q_x) in enumerate(_grid_models(M0, 100, seed=1500 + M0)):
        R = resolutions[i % len(resolutions)]
        got = brute_force_inner_inf(model, Q_x, R)
        with np.errstate(invalid="ignore"):
            want = dense_brute_force_inner_inf(model, Q_x, R)
        if M0 == 1:
            assert got == want, (i, got, want)
        elif math.isnan(want):
            assert model.a_max >= 1e7 and math.isfinite(got), (i, got)
        else:
            assert abs(got - want) <= 1e-12 * abs(want), (i, got, want)


def test_rank_one_member_grid_matches_dense():
    # M0 = 2, m_s = 1.  The dense entrywise determinants lose about
    # eps a_max^2 v of relative precision, so caps stop at 100 here; larger
    # caps are checked against inner_inf below.
    rng = np.random.default_rng(1601)
    cases = [(c["model"], c["Q_x"], c["resolution"]) for c in fixed_equivalence_suite()
             if (c["model"].m_s, c["model"].m_r) == (1, 2)]
    for i in range(100):
        complex_field = bool(i % 2)
        H = rng.standard_normal((2, 2))
        if complex_field:
            H = H + 1j * rng.standard_normal((2, 2))
        d = np.exp(rng.uniform(-2.0, 3.0, size=2))
        if i % 5 == 0:
            H, d = np.eye(2), np.full(2, d[0])
        cap = 10.0 ** rng.uniform(-3.0, 2.0)
        model = validate_model(2, 2, 1, H, [[float(np.exp(rng.uniform(-1.5, 1.5)))]],
                               cap, float(d.sum()), "complex" if complex_field else "real")
        cases.append((model, np.diag(d), (1000, 4096, 40_000)[i % 3]))
    for model, Q_x, R in cases:
        got = brute_force_inner_inf(model, Q_x, R)
        want = dense_brute_force_inner_inf(model, Q_x, R)
        assert abs(got - want) <= 1e-12 * abs(want), (model.a_max, got, want)


# H = I, Q_s = diag(4, 1), Q_x = diag(7, 3): at a_max = 1e9 the entrywise
# determinant (1 + l0 + T11)(1 + l1 + T22) - T12^2 cancels below zero.
LARGE_CAP_MS2 = (2, 2, 2, np.eye(2), np.diag([4.0, 1.0])), np.diag([7.0, 3.0])
# H = I, Q_s = [[3]], Q_x = 4 I: the rank-one (t c^2 + 1/2)(t s^2 + 1/2)
# - (t c s)^2 puts the grid 2.4e-4 bits low at a_max = 1e6 and NaN by 1e8.
LARGE_CAP_MS1 = (2, 2, 1, np.eye(2), [[3.0]]), np.diag([4.0, 4.0])


@pytest.mark.parametrize("dims_state, Q_x, resolution", [
    (*LARGE_CAP_MS2, 200_000), (*LARGE_CAP_MS1, 40_000)], ids=["ms2", "ms1"])
@pytest.mark.parametrize("a_max", [1e6, 1e9, 1e20])
def test_grid_stays_finite_at_large_caps(dims_state, Q_x, resolution, a_max):
    model = validate_model(*dims_state, a_max, 10.0)
    brute = brute_force_inner_inf(model, Q_x, resolution)
    assert abs(brute - inner_inf(model, Q_x)[1]) <= 1e-4


@pytest.mark.parametrize("dims_state, Q_x, a_max", [
    (*LARGE_CAP_MS2, 1e80),
    # m_s = 1: a b + t (b cos^2 + a sin^2) overflows with t = a_max^2 v
    ((2, 2, 1, np.eye(2), [[1.0]]), np.diag([1e6, 1e6]), 1e152),
], ids=["ms2", "ms1"])
def test_overflowing_grid_determinant_raises(dims_state, Q_x, a_max):
    model = validate_model(*dims_state, a_max, 10.0)
    with pytest.raises(TooLarge, match="overflows"):
        brute_force_inner_inf(model, Q_x, 200_000)
