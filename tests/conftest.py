import numpy as np
import pytest

from dpbound import validate_model


# A valid model whose cap is large enough that the rounding error of the
# cross terms A_i Q_s A_j^dagger exceeds a tolerance that ignores the cap.
BIG_CAP_MODEL = {
    "m_t": 4, "m_r": 2, "m_s": 3,
    "H": [[2.0152518061838767, 1.0378024284634166, 0.5227916833432323,
           0.45725905895534386],
          [1.7709371728004815, 0.5356296362853685, 0.0775770872272132,
           -1.2301601607845671]],
    "Q_s": [[1.1426960418422822, 0.3182149573737294, 1.0287670629715449],
            [0.3182149573737294, 0.720839821072104, -0.5070950412612851],
            [1.0287670629715449, -0.5070950412612851, 2.6463108867155847]],
    "a_max": 9469.890447986876, "P": 2429.6062407610334, "field": "real",
}


def rand_psd(rng, n, lo=0.25, hi=4.0, complex_field=False):
    """Random full-rank PSD matrix with eigenvalues log-uniform in [lo, hi]."""
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    A = rng.standard_normal((n, n))
    if complex_field:
        A = A + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    return (Q * w) @ Q.conj().T


def rand_model(rng, max_dim=3, max_ms=3, complex_ok=True):
    """Random validated model with moderate conditioning."""
    m_t = int(rng.integers(1, max_dim + 1))
    m_r = int(rng.integers(1, max_dim + 1))
    m_s = int(rng.integers(1, max_ms + 1))
    complex_field = complex_ok and bool(rng.integers(0, 2))
    H = rng.standard_normal((m_r, m_t))
    if complex_field:
        H = H + 1j * rng.standard_normal((m_r, m_t))
    Q_s = rand_psd(rng, m_s, complex_field=complex_field)
    a_max = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
    P = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
    return validate_model(m_t, m_r, m_s, H, Q_s, a_max, P,
                          "complex" if complex_field else "real")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
