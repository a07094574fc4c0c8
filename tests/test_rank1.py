import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpbound import (
    Rank1Inputs,
    capacity_upper_bound,
    cross_check_rank1,
    interference_free_capacity,
    prelog_gap_certificate,
    prelog_reference,
    rank1_inputs_from_model,
    rank_one_bound,
    validate_model,
)
from dpbound.errors import NegativeParameter, NonFinite, NotRankOne

P15 = 10.0 ** 1.5


def closed_form(hp, ts, kappa):
    # independent arithmetic oracle for the bound
    total = math.log2(1 + hp) + sum(math.log2((hp + 1 + t) / t) for t in ts)
    return kappa * total / (len(ts) + 1)


def test_bound_at_high_inr():
    inp = Rank1Inputs(P15, (1.0,), 100.0, 0.5)
    assert rank_one_bound(inp) == pytest.approx(1.258126621224833, abs=1e-12)
    assert rank_one_bound(inp) == pytest.approx(closed_form(P15, [1e4], 0.5))


def test_bound_unbounded_cap_is_prelog():
    inp = Rank1Inputs(P15, (1.0,), math.inf, 0.5)
    assert rank_one_bound(inp) == pytest.approx(1.2569519183376299, abs=1e-12)
    assert rank_one_bound(inp) == prelog_reference(inp)


def test_bound_two_state_dims():
    inp = Rank1Inputs(P15, (10.0 / 4.0, 100.0 / 4.0), 2.0, 0.5)
    # a^2 v = {10, 100}
    assert rank_one_bound(inp) == pytest.approx(1.25446013611768, abs=1e-10)
    assert rank_one_bound(inp) == pytest.approx(closed_form(P15, [10.0, 100.0], 0.5))


def test_zero_cap_gives_infinite_bound():
    # the limit as the cap falls to zero, as for a cap whose square underflows
    assert rank_one_bound(Rank1Inputs(1.0, (1.0,), 0.0, 0.5)) == math.inf
    assert rank_one_bound(Rank1Inputs(P15, (4.0, 1.0), 0.0, 1.0)) == math.inf


def test_underflowing_cap_gives_infinite_bound():
    # a_max = 1e-170 passes validation, but a_max^2 underflows to zero
    assert rank_one_bound(Rank1Inputs(P15, (1.0,), 1e-170, 0.5)) == math.inf
    assert rank_one_bound(Rank1Inputs(P15, (4.0, 1.0), 1e-170, 1.0)) == math.inf
    # a denormal interference power is still finite, and so the bound
    assert rank_one_bound(Rank1Inputs(P15, (1.0,), 1e-160, 0.5)) > 100.0


def test_underflowing_cap_model_paths_are_infinite():
    # MISO (2x1) and scalar models reach the closed form through the general
    # entry points too; the effective bound is the interference-free rate
    for H in ([[1.0, 0.5]], [[1.0]]):
        m = validate_model(len(H[0]), 1, 1, H, [[1.0]], 1e-170, 10.0)
        rep = capacity_upper_bound(m)
        assert rep.raw_value_bits == math.inf
        assert rep.value_bits == interference_free_capacity(m)
    m = validate_model(2, 1, 1, [[1.0, 0.5]], [[1.0]], 1e-170, 10.0)
    assert cross_check_rank1(m) == {"general": math.inf,
                                    "closed_form": math.inf, "delta": 0.0}


@pytest.mark.parametrize("hp", [math.nan, math.inf, -math.inf])
def test_non_finite_signal_power_rejected(hp):
    with pytest.raises(NonFinite):
        Rank1Inputs(hp, (1.0,), 1.0, 0.5)


@pytest.mark.parametrize("v, a_max", [
    ((1.0,), math.nan),
    ((), 1.0),
    ((1.0, 0.0), 1.0),
    ((1.0, -2.0), 1.0),
    ((math.nan,), 1.0),
])
def test_invalid_cap_or_state_rejected(v, a_max):
    with pytest.raises(NegativeParameter):
        Rank1Inputs(1.0, v, a_max, 0.5)


def test_prelog_values():
    assert prelog_reference(Rank1Inputs(P15, (1.0,), 1.0, 0.5)) == \
        pytest.approx(1.2569519183376299, abs=1e-12)
    assert prelog_reference(Rank1Inputs(0.0, (1.0,), 1.0, 0.5)) == 0.0
    assert prelog_reference(Rank1Inputs(P15, (1.0, 1.0, 1.0), 1.0, 0.5)) == \
        pytest.approx(math.log2(1 + P15) / 8, abs=1e-12)


def test_gap_certificate_applies():
    inp = Rank1Inputs(P15, (1.0,), 100.0, 0.5)
    cert = prelog_gap_certificate(inp)
    assert cert["applies"]
    assert cert["gap_bound"] == pytest.approx(0.25)
    gap = rank_one_bound(inp) - prelog_reference(inp)
    assert 0.0 <= gap <= cert["gap_bound"]
    assert gap == pytest.approx(0.0011747028872031, abs=1e-9)


def test_gap_certificate_below_threshold():
    # v < (1 + hP) / a^2 gives no guarantee
    inp = Rank1Inputs(P15, (0.001,), 100.0, 0.5)
    assert not prelog_gap_certificate(inp)["applies"]


def test_gap_bound_formula():
    inp = Rank1Inputs(1.0, (1.0, 1.0), 1.0, 0.5)
    assert prelog_gap_certificate(inp)["gap_bound"] == pytest.approx(1.0 / 3.0)


def test_gap_certificate_underflowing_cap_does_not_apply():
    cert = prelog_gap_certificate(Rank1Inputs(P15, (1.0, 2.0), 1e-170, 0.5))
    assert cert == {"applies": False, "gap_bound": pytest.approx(1.0 / 3.0)}
    cert = prelog_gap_certificate(Rank1Inputs(P15, (1.0, 2.0), 0.0, 0.5))
    assert cert == {"applies": False, "gap_bound": pytest.approx(1.0 / 3.0)}


def test_gap_certificate_applies_at_unbounded_cap():
    # the bound is the prelog value there: a gap of exactly 0
    inp = Rank1Inputs(1.0, (1.0, 2.0), math.inf, 0.5)
    assert prelog_gap_certificate(inp) == {"applies": True,
                                           "gap_bound": pytest.approx(1.0 / 3.0)}
    assert rank_one_bound(inp) == prelog_reference(inp)


@settings(max_examples=300, derandomize=True)
@given(hp=st.floats(0.0, 1e4), a=st.floats(0.01, 1e3),
       m_s=st.integers(1, 6), margin=st.floats(1.0, 100.0),
       kappa=st.sampled_from([0.5, 1.0]))
def test_certified_gap_property(hp, a, m_s, margin, kappa):
    v_min = (1.0 + hp) / a ** 2
    inp = Rank1Inputs(hp, tuple(v_min * margin for _ in range(m_s)), a, kappa)
    cert = prelog_gap_certificate(inp)
    assert cert["applies"]
    gap = rank_one_bound(inp) - prelog_reference(inp)
    assert -1e-12 <= gap <= cert["gap_bound"] + 1e-12
    # each sum term is at most one bit when the threshold holds
    for v in inp.v:
        t = a * a * v
        assert math.log2((hp + 1 + t) / t) <= 1.0 + 1e-12


def test_monotonicities():
    base = Rank1Inputs(10.0, (2.0, 1.0), 3.0, 0.5)
    up_a = Rank1Inputs(10.0, (2.0, 1.0), 4.0, 0.5)
    up_v = Rank1Inputs(10.0, (2.5, 1.0), 3.0, 0.5)
    up_p = Rank1Inputs(12.0, (2.0, 1.0), 3.0, 0.5)
    b = rank_one_bound(base)
    assert rank_one_bound(up_a) < b
    assert rank_one_bound(up_v) < b
    assert rank_one_bound(up_p) > b


def test_inputs_from_model_miso_simo():
    miso = validate_model(3, 1, 2, [[0.6, 0.8, 0.0]], np.diag([2.0, 1.0]), 2.0, 10.0)
    inp = rank1_inputs_from_model(miso)
    assert inp.h_norm_sq_P == pytest.approx(10.0)
    assert inp.v == (2.0, 1.0)
    simo = validate_model(1, 2, 1, [[1.0], [1.0]], [[1.0]], 2.0, 10.0)
    assert rank1_inputs_from_model(simo).h_norm_sq_P == pytest.approx(20.0)
    mimo = validate_model(2, 2, 1, np.eye(2), [[1.0]], 2.0, 10.0)
    with pytest.raises(NotRankOne):
        rank1_inputs_from_model(mimo)
