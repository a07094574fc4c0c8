import math

import numpy as np
import pytest

from dpbound import (
    interference_free_capacity,
    signal_subspace,
    tin_worst_case,
    validate_model,
    water_filling,
)

from conftest import BIG_CAP_MODEL, rand_model, rand_psd
from reference_oracles import matrix_tin_worst_case

P15 = 10.0 ** 1.5


def test_scalar_interference_free():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, P15)
    assert interference_free_capacity(m) == pytest.approx(2.5139038366752597,
                                                          abs=1e-12)


def test_dead_channel():
    m = validate_model(2, 2, 1, np.zeros((2, 2)), [[1.0]], 1.0, 5.0)
    assert interference_free_capacity(m) == 0.0
    assert tin_worst_case(m) == 0.0


def test_water_filling_hand_case():
    m = validate_model(2, 2, 1, np.diag([2.0, 1.0]), [[1.0]], 1.0, 3.0)
    cap, Q = water_filling(m)
    assert cap == pytest.approx(2.0874628412503395, abs=1e-12)
    assert np.allclose(np.diag(Q), [1.875, 1.125], atol=1e-10)
    assert np.trace(Q) == pytest.approx(3.0)


def test_water_filling_beats_grid():
    # 1-D oracle over the power split for H = diag(2, 1), P = 3
    m = validate_model(2, 2, 1, np.diag([2.0, 1.0]), [[1.0]], 1.0, 3.0)
    cap, _ = water_filling(m)
    grid = np.linspace(0.0, 3.0, 1001)
    rates = 0.5 * (np.log2(1 + 4 * grid) + np.log2(1 + (3 - grid)))
    assert cap >= float(rates.max()) - 1e-12
    assert cap == pytest.approx(float(rates.max()), abs=1e-5)


def test_tin_scalar_values():
    strong = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, P15)
    assert tin_worst_case(strong) == pytest.approx(
        0.5 * math.log2(1 + P15 / 10001.0), abs=1e-9)
    weak = validate_model(1, 1, 1, [[1.0]], [[1.0]], math.sqrt(0.1), P15)
    assert tin_worst_case(weak) == pytest.approx(
        0.5 * math.log2(1 + P15 / 1.1), abs=1e-9)


def test_tin_zero_cap_equals_interference_free():
    m = validate_model(2, 2, 2, [[1.0, 0.2], [0.0, 0.8]],
                       np.diag([2.0, 1.0]), 0.0, 4.0)
    assert tin_worst_case(m) == pytest.approx(interference_free_capacity(m),
                                              abs=1e-12)


def test_tin_unbounded_cap_full_coverage():
    m = validate_model(2, 2, 2, np.eye(2), np.eye(2), math.inf, 10.0)
    assert tin_worst_case(m) == 0.0


def test_tin_unbounded_cap_partial_coverage():
    # one state dimension cannot cover a two-dimensional signal subspace
    m = validate_model(2, 2, 1, np.eye(2), [[1.0]], math.inf, 10.0)
    analytic = tin_worst_case(m)
    assert analytic > 0.0
    big = validate_model(2, 2, 1, np.eye(2), [[1.0]], 1e7, 10.0)
    assert tin_worst_case(big) == pytest.approx(analytic, abs=1e-4)


def test_tin_never_exceeds_interference_free(rng):
    for _ in range(40):
        m = rand_model(rng)
        assert tin_worst_case(m) <= interference_free_capacity(m) + 1e-9


def _state_dim(shape, M0, rng):
    """An m_s of the given shape relative to M0, or None if M0 admits none."""
    if shape == "below":
        return int(rng.integers(1, M0)) if M0 > 1 else None
    if shape == "equal":
        return M0
    if shape == "divides":
        return M0 * int(rng.integers(2, 4))
    return M0 * int(rng.integers(1, 3)) + int(rng.integers(1, M0)) if M0 > 1 else None


def test_tin_closed_form_matches_matrix_oracle():
    # 60 state shapes x 5 caps, every field/shape pair among them; the
    # matrix oracle's Cholesky of I + N loses accuracy as the cap grows
    rng = np.random.default_rng(6)
    shapes = ("below", "equal", "divides", "remainder")
    n = 0
    while n < 60:
        field = ("real", "complex")[n % 2]
        shape = shapes[(n // 2) % len(shapes)]
        m_t, m_r = (int(d) for d in rng.integers(1, 4, size=2))
        H = rng.standard_normal((m_r, m_t))
        if field == "complex":
            H = H + 1j * rng.standard_normal((m_r, m_t))
        P = float(np.exp(rng.uniform(np.log(0.1), np.log(1e3))))
        probe = validate_model(m_t, m_r, 1, H, [[1.0]], 0.0, P, field)
        M0 = signal_subspace(probe.H, water_filling(probe)[1]).M0
        m_s = _state_dim(shape, M0, rng)
        if m_s is None:
            continue
        Q_s = rand_psd(rng, m_s, complex_field=field == "complex")
        caps = (0.0, 1e-3, float(np.exp(rng.uniform(np.log(1e-3), np.log(1e4)))),
                1e4, math.inf)
        for a_max in caps:
            m = validate_model(m_t, m_r, m_s, H, Q_s, a_max, P, field)
            tol = 1e-10 if a_max <= 100.0 or math.isinf(a_max) else 1e-7
            assert tin_worst_case(m) == pytest.approx(matrix_tin_worst_case(m),
                                                      abs=tol)
        n += 1
    m = validate_model(**BIG_CAP_MODEL)
    assert tin_worst_case(m) == pytest.approx(matrix_tin_worst_case(m), abs=1e-7)


def test_interference_free_concave_nondecreasing_in_power():
    H = np.array([[1.0, 0.3], [0.1, 0.7]])
    grid = np.linspace(0.5, 20.0, 40)
    caps = [interference_free_capacity(
        validate_model(2, 2, 1, H, [[1.0]], 1.0, float(p))) for p in grid]
    diffs = np.diff(caps)
    assert np.all(diffs >= -1e-9)
    assert np.all(np.diff(diffs) <= 1e-9)  # concavity via second differences
