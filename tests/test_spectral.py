import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpbound import signal_subspace, water_filling, whiten_state
from dpbound.errors import NotPSD, NotSquare, QsRankDeficient
from dpbound.spectral import logdet_psd, psd_factor, signal_spectrum

from conftest import rand_model, rand_psd
from reference_oracles import logdet_ratio, single_logdet_psd


def _rank(M) -> int:
    """The numerical rank of PSD ``M``, by ``signal_subspace``'s rule (H = I)."""
    M = np.asarray(M)
    return signal_subspace(np.eye(M.shape[0]), M).M0


def test_numerical_rank_basics():
    assert _rank(np.eye(3)) == 3
    assert _rank(np.diag([1.0, 1e-15])) == 1
    w = np.array([1.0, 2.0, 2.0])
    assert _rank(np.outer(w, w)) == 1
    assert _rank(np.zeros((2, 2))) == 0


def test_numerical_rank_scale_equivariant(rng):
    for _ in range(20):
        M = rand_psd(rng, int(rng.integers(1, 5)), lo=1e-3, hi=1e3)
        c = float(np.exp(rng.uniform(-20, 20)))
        assert _rank(M) == _rank(c * M)


def test_signal_subspace_axis_aligned():
    sub = signal_subspace(np.eye(2), np.diag([3.0, 0.0]))
    assert sub.M0 == 1
    assert np.abs(sub.U[0]) == pytest.approx([1.0, 0.0], abs=1e-12)
    assert sub.spectrum[0] == pytest.approx(3.0)


def test_signal_subspace_miso():
    h = np.array([[0.6, 0.8]])  # 1x2 receive row
    sub = signal_subspace(h, 2.0 * np.eye(2))
    assert sub.M0 == 1
    assert abs(abs(sub.U[0, 0]) - 1.0) < 1e-12


def test_signal_subspace_full_rank():
    sub = signal_subspace(np.eye(2), 5.0 * np.eye(2))
    assert sub.M0 == 2
    assert np.allclose(sub.U @ sub.U.conj().T, np.eye(2), atol=1e-10)


def test_subspace_invariants(rng):
    for _ in range(25):
        n_r, n_t = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        H = rng.standard_normal((n_r, n_t))
        k = int(rng.integers(0, n_t + 1))
        F = rng.standard_normal((n_t, k)) if k else np.zeros((n_t, 1))
        Qx = F @ F.T
        sub = signal_subspace(H, Qx)
        G = H @ Qx @ H.T
        if sub.M0:
            assert np.allclose(sub.U @ sub.U.conj().T, np.eye(sub.M0), atol=1e-10)
            Pr = sub.U.conj().T @ sub.U
            # projector idempotence and span containment
            assert np.linalg.norm(Pr @ Pr - Pr) <= 1e-10
            assert np.linalg.norm(G - Pr @ G @ Pr) <= 1e-8 * (1 + np.linalg.norm(G))


def test_signal_subspace_is_the_factor_rule(rng):
    # signal_subspace(H, F F^dagger) factors the covariance again; away
    # from the cut it finds the rank and spectrum of the rule on F itself
    compared = 0
    for _ in range(200):
        n_r, n_t = (int(n) for n in rng.integers(1, 5, size=2))
        k = int(rng.integers(1, n_t + 1))
        H = rng.standard_normal((n_r, n_t))
        F = rng.standard_normal((n_t, k))
        if rng.integers(2):
            H = H + 1j * rng.standard_normal((n_r, n_t))
            F = F + 1j * rng.standard_normal((n_t, k))
        want = signal_spectrum(H @ F)
        if want[-1] < 1e-3 * want[0]:
            continue
        sub = signal_subspace(H, F @ F.conj().T)
        assert sub.M0 == want.size == min(n_r, k)
        assert sub.spectrum == pytest.approx(want, rel=1e-12, abs=0)
        compared += 1
    assert compared >= 100


@pytest.mark.parametrize("complex_field", [False, True])
def test_signal_spectrum_stack_matches_single_products(complex_field):
    # one stacked svd keeps, for each product, exactly the spectrum the
    # single call keeps, zero and rank-deficient products included
    rng = np.random.default_rng(31 + complex_field)
    for n_r, n_t, k in [(2, 2, 1), (2, 4, 2), (4, 2, 3), (3, 3, 3), (1, 3, 2)]:
        HF = rng.standard_normal((40, n_r, n_t)) @ rng.standard_normal((40, n_t, k))
        if complex_field:
            HF = HF + 1j * rng.standard_normal(HF.shape)
        HF[0] = 0.0
        HF[1] = HF[1][:, :1] @ np.ones((1, k))          # rank one
        got = signal_spectrum(HF)
        assert len(got) == len(HF)
        for lam, M in zip(got, HF):
            assert lam.tobytes() == signal_spectrum(M).tobytes()
        assert got[0].size == 0 and got[1].size == 1
    assert [lam.size for lam in signal_spectrum(np.ones((2, 3, 2, 2)))] == [1] * 6


def test_psd_factor_passes_water_filling_covariances(rng):
    for _ in range(100):
        m = rand_model(rng, max_dim=4)
        Q_wf = water_filling(m)[1]
        F = psd_factor(Q_wf)
        assert np.allclose(F @ F.conj().T, Q_wf, atol=1e-9 * (1 + np.abs(Q_wf).max()))


def test_negative_rounding_eigenvalue_is_clipped():
    Q = np.diag([2.0, -1e-18])
    sub = signal_subspace(np.eye(2), Q)
    assert sub.M0 == 1
    assert sub.spectrum == pytest.approx([2.0], rel=1e-15)
    assert np.isfinite(sub.U).all()


def test_whiten_diagonal():
    w = whiten_state(np.diag([4.0, 1.0]))
    assert np.allclose(w.eigvals, [4.0, 1.0])


def test_whiten_hand_case():
    w = whiten_state(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w.eigvals, [3.0, 1.0], atol=1e-12)
    Q = w.eigvecs @ np.diag(w.eigvals) @ w.eigvecs.conj().T
    assert np.allclose(Q, [[2.0, 1.0], [1.0, 2.0]], atol=1e-10)
    # eigenvectors are (1,1)/sqrt2 and (1,-1)/sqrt2 up to sign
    assert abs(abs(w.eigvecs[0, 0]) - 1 / math.sqrt(2)) < 1e-12


def test_whiten_degenerate_spectrum():
    c = 2.5
    w = whiten_state(c * np.eye(3))
    assert np.allclose(w.eigvals, c)
    Q = w.eigvecs @ np.diag(w.eigvals) @ w.eigvecs.conj().T
    assert np.allclose(Q, c * np.eye(3), atol=1e-10)


def test_whiten_rejects_rank_deficient():
    with pytest.raises(QsRankDeficient):
        whiten_state(np.diag([1.0, 0.0]))


def test_whiten_rejects_indefinite():
    # the rule validate_model applies: an eigenvalue below -EPS_PSD * top
    with pytest.raises(NotPSD):
        whiten_state(np.diag([1.0, -1.0]))


def test_logdet_ratio_values():
    assert logdet_ratio(np.diag([8.0]), np.diag([2.0])) == pytest.approx(2.0)
    assert logdet_ratio(np.eye(2), np.eye(2)) == pytest.approx(0.0)
    assert logdet_ratio(np.diag([10032.62]), np.diag([10000.0])) == \
        pytest.approx(0.004698412272361452, abs=1e-12)


def test_logdet_ratio_singular_cases():
    assert math.isinf(logdet_ratio(np.eye(2), np.zeros((2, 2))))


def test_logdet_chain(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        A, B, C = (rand_psd(rng, n) for _ in range(3))
        lhs = logdet_ratio(A, B) + logdet_ratio(B, C)
        assert lhs == pytest.approx(logdet_ratio(A, C), abs=1e-9)


@settings(max_examples=100, derandomize=True)
@given(st.floats(0.1, 1e6), st.floats(0.1, 1e6))
def test_logdet_ratio_matches_scalar_logs(a, b):
    assert logdet_ratio([[a]], [[b]]) == pytest.approx(math.log2(a / b), abs=1e-9)


def test_logdet_psd_empty_and_singular():
    assert logdet_psd(np.zeros((0, 0))) == 0.0
    assert logdet_psd(np.diag([1.0, 0.0])) == -math.inf
    assert logdet_psd(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]
    assert logdet_psd(np.array([np.eye(2), np.diag([1.0, 1e-12])])).tolist() == \
        [0.0, -math.inf]
    for shape in [(2, 3), (3,), (), (4, 2, 3)]:
        with pytest.raises(NotSquare):
            logdet_psd(np.zeros(shape))


def _psd_stack(rng, n, k, complex_field):
    """``k`` random PSD matrices of size n, about 40% of them rank deficient."""
    A = rng.standard_normal((k, n, n))
    if complex_field:
        A = A + 1j * rng.standard_normal((k, n, n))
    deficient = rng.uniform(size=k) < 0.4
    rank = rng.integers(0, n, size=k)
    kept = ~(deficient[:, None] & (np.arange(n)[None, :] >= rank[:, None]))
    A = A * kept[:, None, :]
    scale = np.exp(rng.uniform(-20, 20, size=k))[:, None, None]
    return scale * (A @ np.swapaxes(A, -1, -2).conj())


@pytest.mark.parametrize("complex_field", [False, True])
def test_logdet_psd_stack_matches_single_matrices(complex_field):
    # the stacked rule must give each matrix exactly the value the one-call
    # oracle gives it, singular matrices included
    rng = np.random.default_rng(7 + complex_field)
    seen_singular = 0
    for n in range(1, 5):
        M = _psd_stack(rng, n, 400, complex_field)
        got = logdet_psd(M)
        want = [single_logdet_psd(m) for m in M]
        assert got.tolist() == want
        assert all(type(logdet_psd(m)) is float and logdet_psd(m) == w
                   for m, w in zip(M[:20], want))
        seen_singular += want.count(-math.inf)
    assert seen_singular > 100
