import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpbound import (
    FieldKind,
    SearchConfig,
    capacity_upper_bound,
    inner_inf,
    inr_to_amax,
    model_from_json,
    model_to_json,
    tin_worst_case,
    validate_model,
    whiten_state,
)
from dpbound.channel import _hermitize
from dpbound.errors import (
    DimensionMismatch,
    FieldMismatch,
    NegativeParameter,
    NonFinite,
    NotPSD,
    QsRankDeficient,
)

from conftest import rand_model

P15 = 10.0 ** 1.5  # 15 dB


def test_accepts_scalar_operating_point():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 100.0, P15, "real")
    assert m.m_t == m.m_r == m.m_s == 1
    assert m.field is FieldKind.REAL
    assert m.field.kappa == 0.5


def test_zero_state_covariance_rejected():
    with pytest.raises(QsRankDeficient):
        validate_model(1, 1, 2, [[1.0]], np.zeros((2, 2)), 1.0, 1.0)


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        validate_model(2, 2, 1, np.zeros((2, 3)), [[1.0]], 1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        validate_model(1, 1, 2, [[1.0]], [[1.0]], 1.0, 1.0)


def test_parameter_signs():
    with pytest.raises(NegativeParameter):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], -0.5, 1.0)
    with pytest.raises(NegativeParameter):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], 1.0, -1.0)
    with pytest.raises(NegativeParameter):
        validate_model(0, 1, 1, np.zeros((1, 0)), [[1.0]], 1.0, 1.0)
    # an unbounded cap is a legal, explicit value
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], math.inf, 1.0)
    assert math.isinf(m.a_max)


@pytest.mark.parametrize("dim", [math.inf, math.nan, 2.5, "1"])
def test_non_integer_dimension_rejected(dim):
    # an infinite dimension once raised OverflowError from int()
    with pytest.raises(NegativeParameter, match="m_t"):
        validate_model(dim, 1, 1, [[1.0]], [[1.0]], 1.0, 1.0)


@pytest.mark.parametrize("field", [3, None, "quaternion"])
def test_unknown_field_rejected(field):
    # a non-string field was once stored as given, and failed on first use
    with pytest.raises(FieldMismatch, match="field"):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], 1.0, 1.0, field)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(bad):
    with pytest.raises(NonFinite):
        validate_model(2, 2, 1, [[1.0, bad], [0.0, 1.0]], [[1.0]], 1.0, 1.0)
    with pytest.raises(NonFinite):
        validate_model(1, 1, 1, [[complex(1.0, bad)]], [[1.0]], 1.0, 1.0,
                       "complex")
    with pytest.raises(NonFinite):
        validate_model(1, 1, 2, [[1.0]], [[1.0, 0.0], [0.0, bad]], 1.0, 1.0)
    with pytest.raises(NonFinite):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], 1.0, math.inf)
    with pytest.raises(NegativeParameter):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], 1.0, math.nan)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_overflowing_powers_rejected(field):
    I2 = np.eye(2)
    with pytest.raises(NonFinite, match="signal power"):
        validate_model(2, 2, 2, np.diag([1e200, 1.0]), I2, 2.0, 10.0, field)
    with pytest.raises(NonFinite, match="signal power"):
        validate_model(2, 2, 2, np.diag([1e154, 1.0]), I2, 2.0, 1e300, field)
    with pytest.raises(NonFinite, match="interference power"):
        validate_model(2, 2, 2, I2, I2, 1e300, 10.0, field)
    with pytest.raises(NonFinite, match="interference power"):
        validate_model(2, 2, 2, I2, 1e200 * I2, 1e100, 10.0, field)


def test_huge_integer_power_rejected():
    # an int past the float range is NonFinite, not a raw OverflowError
    with pytest.raises(NonFinite, match="P overflows a float"):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], 1.0, 10**400)


def test_huge_integer_cap_rejected():
    with pytest.raises(NonFinite, match="a_max overflows a float"):
        validate_model(1, 1, 1, [[1.0]], [[1.0]], 10**400, 1.0)


def test_unbounded_and_underflowing_caps_legal():
    I2 = np.eye(2)
    assert math.isinf(validate_model(2, 2, 2, I2, 1e200 * I2, math.inf, 10.0).a_max)
    assert validate_model(2, 2, 2, I2, I2, 1e-200, 10.0).a_max == 1e-200
    # large but finite powers stay legal
    validate_model(2, 2, 2, np.diag([1e150, 1.0]), I2, 1e100, 10.0)


def test_qs_symmetrized_before_checks():
    q = np.array([[2.0, 1.0 + 1e-12], [1.0 - 1e-12, 2.0]])
    m = validate_model(1, 1, 2, [[1.0]], q, 1.0, 1.0)
    assert np.allclose(m.Q_s, m.Q_s.T)


def test_qs_near_float_limit_accepted_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = validate_model(1, 1, 1, [[1.0]], [[1.7e308]], 0.0, 1.0)
    assert m.white.eigvals[0] == 1.7e308


@pytest.mark.parametrize("complex_field", [False, True])
def test_hermitize_halves_first_bit_for_bit(complex_field):
    # normal entries over most of the float range, so that no half is subnormal
    rng = np.random.default_rng(2024)
    shape = (50, 4, 4)
    M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    if complex_field:
        M = M + 1j * rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    old = (M + np.swapaxes(M, -1, -2).conj()) / 2.0
    assert _hermitize(M).tobytes() == old.tobytes()


def test_indefinite_qs_rejected():
    with pytest.raises((NotPSD, QsRankDeficient)):
        validate_model(1, 1, 2, [[1.0]], np.diag([1.0, -1.0]), 1.0, 1.0)


def test_complex_entries_in_real_model_rejected():
    with pytest.raises(FieldMismatch):
        validate_model(1, 1, 1, [[1.0 + 1j]], [[1.0]], 1.0, 1.0, "real")


def test_validation_idempotent():
    m = validate_model(2, 2, 2, np.eye(2), [[2.0, 1.0], [1.0, 2.0]], 3.0, 5.0)
    m2 = validate_model(m.m_t, m.m_r, m.m_s, m.H, m.Q_s, m.a_max, m.P, m.field)
    assert np.array_equal(m.H, m2.H)
    assert np.array_equal(m.Q_s, m2.Q_s)
    assert (m.a_max, m.P, m.field) == (m2.a_max, m2.P, m2.field)


def test_model_carries_its_whitened_state(rng):
    for _ in range(20):
        m = rand_model(rng, max_ms=5)
        w = whiten_state(m.Q_s)
        assert m.white.eigvals.tobytes() == w.eigvals.tobytes()
        assert m.white.eigvecs.tobytes() == w.eigvecs.tobytes()


# A 3x3 Q_s whose least eigenvalue, about 1e-9 of the largest, sits at the
# rank cut: validation and the whitening the bound reads must decide it
# alike, so the model is either rejected or bounded.
NEAR_CUT_QS = [
    [0.4488502019704227, -0.446890150628564, -0.45101232925902884],
    [-0.446890150628564, 0.6531319186906097, 1.0076231805232865],
    [-0.45101232925902884, 1.0076231805232865, 1.9518501347110198]]


def test_near_cut_state_is_decided_at_validation():
    try:
        m = validate_model(2, 2, 3, np.eye(2), NEAR_CUT_QS, 1.0, 1.0)
    except QsRankDeficient:
        return
    assert math.isfinite(capacity_upper_bound(m, SearchConfig(1, 3)).value_bits)


def test_accepted_near_cut_states_are_never_rejected_later():
    # seeded Q_s with the least eigenvalue within 1e-6 of the rank cut:
    # every one that validation accepts runs through the layers that
    # read the state spectrum
    rng = np.random.default_rng(0)
    accepted = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = np.exp(rng.uniform(-1.0, 1.0, size=n))
        w[np.argmin(w)] = 1e-9 * w.max() * (1.0 + rng.uniform(-1.0, 1.0) * 1e-6)
        try:
            m = validate_model(2, 2, n, np.eye(2), (Q * w) @ Q.T, 1.0, 1.0)
        except QsRankDeficient:
            continue
        accepted += 1
        tin_worst_case(m)
        inner_inf(m, np.eye(2))
    assert 300 <= accepted <= 700      # the draws straddle the cut


def test_model_is_immutable():
    m = validate_model(1, 1, 1, [[1.0]], [[1.0]], 1.0, 1.0)
    with pytest.raises(ValueError):
        m.H[0, 0] = 2.0


def test_inr_to_amax_values():
    assert inr_to_amax(40.0) == pytest.approx(100.0, rel=1e-12)
    assert inr_to_amax(0.0) == pytest.approx(1.0, rel=1e-12)
    assert inr_to_amax(10.0) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    # an overflowing power is rejected; infinite dB is an unbounded cap
    assert inr_to_amax(3080.0) == pytest.approx(1e154, rel=1e-12)
    with pytest.raises(NonFinite, match="INR of 3090.0 dB overflows a float"):
        inr_to_amax(3090.0)
    assert inr_to_amax(math.inf) == math.inf
    assert inr_to_amax(-4000.0) == inr_to_amax(-math.inf) == 0.0


@settings(max_examples=200, derandomize=True)
@given(inr=st.floats(-60.0, 60.0))
def test_inr_round_trip(inr):
    a = inr_to_amax(inr)
    assert a * a == pytest.approx(10.0 ** (inr / 10.0), rel=1e-12)


def test_json_round_trip(tmp_path):
    m = validate_model(2, 2, 2, [[1.0, 0.5], [0.0, 2.0]],
                       [[2.0, 1.0], [1.0, 2.0]], math.inf, 4.0)
    doc = model_to_json(m)
    assert doc["a_max"] == "inf"
    m2 = model_from_json(json.loads(json.dumps(doc)))
    assert np.allclose(m.H, m2.H)
    assert np.allclose(m.Q_s, m2.Q_s)
    assert math.isinf(m2.a_max)


def test_json_complex_round_trip():
    H = np.array([[1.0 + 2.0j], [0.5 - 1.0j]])
    m = validate_model(1, 2, 1, H, [[1.0]], 2.0, 1.0, "complex")
    m2 = model_from_json(model_to_json(m))
    assert np.allclose(m.H, m2.H)
    assert m2.field is FieldKind.COMPLEX


def test_json_missing_key():
    with pytest.raises(DimensionMismatch):
        model_from_json({"m_t": 1})
