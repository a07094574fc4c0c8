"""Invalid input is rejected where it enters, with a ``DirtyPaperError``.

One row per input that once escaped as a raw Python error or was
accepted with a wrong answer.
"""

import math

import numpy as np
import pytest

from dpbound import (DofScenario, FieldKind, Rank1Inputs, SearchConfig, SweepSpec,
                     brute_force_inner_inf, capacity_upper_bound, dof_fixed_rank,
                     dof_upper_bound, inner_inf, outer_sup, run_sweep, signal_subspace,
                     validate_model, whiten_state, witness_value)
from dpbound.channel import EPS_PSD
from dpbound.errors import (BadSpec, DimensionMismatch, FieldMismatch,
                            NegativeParameter, NonFinite, NotPSD, QsRankDeficient)
from dpbound.oracle import witness_tolerance

MIMO = validate_model(2, 2, 2, np.eye(2), np.eye(2), 2.0, 4.0)
SCALAR = validate_model(1, 1, 1, [[1.0]], [[1.0]], 2.0, 4.0)
FAMILY = inner_inf(MIMO, np.eye(2))[0]
NAN_QX = [[1.0, 0.0], [0.0, math.nan]]
INDEFINITE_QX = [[4.0, 0.0], [0.0, -4.0]]
COMPLEX_QX = [[1.0, 0.5j], [-0.5j, 1.0]]   # Hermitian PSD, but complex
# each Q_x entry point, as a function of Q_x
QX_ENTRY_POINTS = {
    "inner-inf": lambda Q_x: inner_inf(MIMO, Q_x),
    "witness": lambda Q_x: witness_value(MIMO, Q_x, FAMILY),
    "witness-tolerance": lambda Q_x: witness_tolerance(MIMO, Q_x, FAMILY),
}


def sweep(**kw):
    return run_sweep(SweepSpec(snr_db=10.0, inr_db_start=0.0, inr_db_stop=2.0,
                               inr_db_step=1.0, **kw))


BOUNDARY = {
    # signal ranks: positive integers, never bools, checked where built
    "ranks-float": (lambda: SearchConfig(ranks=(1.5,)), NegativeParameter),
    "ranks-str": (lambda: SearchConfig(ranks="12"), NegativeParameter),
    "ranks-int": (lambda: SearchConfig(ranks=2), NegativeParameter),
    "ranks-bool": (lambda: SearchConfig(ranks=(True,)), NegativeParameter),
    "ranks-zero": (lambda: SearchConfig(ranks=(2, 0)), NegativeParameter),
    "ranks-empty": (lambda: SearchConfig(ranks=()), NegativeParameter),
    "ranks-range-from-zero": (lambda: SearchConfig(ranks=range(0, 3)),
                              NegativeParameter),
    "ranks-repeated": (lambda: SearchConfig(ranks=(2, 1, 2)), NegativeParameter),
    "outer-sup-float-rank": (lambda: outer_sup(MIMO, 2.0), NegativeParameter),
    "outer-sup-bool-rank": (lambda: outer_sup(MIMO, True), NegativeParameter),
    # search settings: integers, never bools
    "restarts-bool": (lambda: SearchConfig(restarts=True), NegativeParameter),
    "max-iters-bool": (lambda: SearchConfig(max_iters=False), NegativeParameter),
    # one Q_x rule: an m_t x m_t matrix with finite entries
    "inner-inf-qx-shape": (lambda: inner_inf(MIMO, np.eye(3)), DimensionMismatch),
    "inner-inf-qx-vector": (lambda: inner_inf(MIMO, [1.0, 1.0]), DimensionMismatch),
    "inner-inf-qx-nan": (lambda: inner_inf(MIMO, NAN_QX), NonFinite),
    "grid-qx-shape": (lambda: brute_force_inner_inf(SCALAR, np.eye(2), 8),
                      DimensionMismatch),
    "grid-qx-nan": (lambda: brute_force_inner_inf(SCALAR, [[math.nan]], 8), NonFinite),
    "witness-qx-shape": (lambda: witness_value(MIMO, np.eye(3), FAMILY),
                         DimensionMismatch),
    "witness-qx-nan": (lambda: witness_value(MIMO, NAN_QX, FAMILY), NonFinite),
    "witness-tolerance-qx-inf": (lambda: witness_tolerance(
        MIMO, [[math.inf, 0.0], [0.0, 1.0]], FAMILY), NonFinite),
    # ... that is PSD (no rank required) and, on a real model, real
    **{f"{name}-qx-{label}": ((lambda f=f, Q_x=Q_x: f(Q_x)), error)
       for name, f in QX_ENTRY_POINTS.items()
       for label, Q_x, error in (("indefinite", INDEFINITE_QX, NotPSD),
                                 ("negative", -np.eye(2), NotPSD),
                                 ("complex-on-real", COMPLEX_QX, FieldMismatch))},
    "grid-qx-negative": (lambda: brute_force_inner_inf(SCALAR, [[-4.0]], 8), NotPSD),
    "grid-qx-complex-on-real": (lambda: brute_force_inner_inf(MIMO, COMPLEX_QX, 8),
                                FieldMismatch),
    # ... whose entries are numbers (BadSpec, as in a model file) that fit
    # in a float, for H, Q_s and Q_x alike
    **{f"{name}-{label}": ((lambda f=f, M=M: f(M)), error)
       for name, f in (("model-h", lambda M: validate_model(1, 1, 1, M, [[1.0]], 1, 1)),
                       ("model-qs", lambda M: validate_model(1, 1, 1, [[1.0]], M, 1, 1)),
                       ("inner-inf-qx", lambda M: inner_inf(SCALAR, M)))
       for label, M, error in (("int-past-float", [[10 ** 400]], NonFinite),
                               ("string", [["a"]], BadSpec),
                               ("numeric-string", [["1.5"]], BadSpec),
                               ("none", [[None]], BadSpec))},
    "model-h-ragged": (lambda: validate_model(2, 2, 1, [[1.0], [1.0, 2.0]], [[1.0]],
                                              1.0, 1.0), DimensionMismatch),
    # the public signal_subspace reads Q_x through the same PSD floor
    "signal-subspace-qx-indefinite": (lambda: signal_subspace(np.eye(2), INDEFINITE_QX),
                                      NotPSD),
    # the same matrix rule for Q_s, through the public whiten_state
    "whiten-nan": (lambda: whiten_state([[math.nan]]), NonFinite),
    "whiten-row": (lambda: whiten_state([[1.0, 0.0]]), DimensionMismatch),
    "whiten-vector": (lambda: whiten_state([1.0, 2.0]), DimensionMismatch),
    "whiten-empty": (lambda: whiten_state(np.zeros((0, 0))), QsRankDeficient),
    # search settings: None or a SearchConfig, never a dict read as defaults
    "bound-search-dict": (lambda: capacity_upper_bound(MIMO, {"restarts": 2}),
                          NegativeParameter),
    "bound-search-empty-dict": (lambda: capacity_upper_bound(MIMO, {}),
                                NegativeParameter),
    "bound-search-zero": (lambda: capacity_upper_bound(MIMO, 0), NegativeParameter),
    "outer-sup-search-dict": (lambda: outer_sup(MIMO, 1, {"restarts": 2}),
                              NegativeParameter),
    "outer-sup-search-empty-dict": (lambda: outer_sup(MIMO, 1, {}), NegativeParameter),
    # one field rule
    "sweep-unknown-field": (lambda: sweep(field="bogus"), FieldMismatch),
    # DOF scenarios: integer dimensions, a bool flag, a known scaling
    "dof-string-flag": (lambda: DofScenario(2, 2, 1, "false", "sublinear"), BadSpec),
    "dof-fractional-dim": (lambda: DofScenario(2.5, 2, 1, True, "linear"),
                           NegativeParameter),
    "dof-nan-dim": (lambda: DofScenario(2, 2, math.nan, True, "linear"),
                    NegativeParameter),
    "dof-unknown-scaling": (lambda: DofScenario(2, 2, 1, True, "bogus"), BadSpec),
    "dof-rank-fractional": (lambda: dof_fixed_rank(2.5, 3), NegativeParameter),
    "dof-rank-nan": (lambda: dof_fixed_rank(math.nan, 3), NegativeParameter),
    "dof-rank-inf-ms": (lambda: dof_fixed_rank(1, math.inf), NegativeParameter),
    "dof-rank-str": (lambda: dof_fixed_rank("2", 3), NegativeParameter),
    # grid oracle resolution
    "grid-zero": (lambda: brute_force_inner_inf(SCALAR, [[4.0]], 0), NegativeParameter),
    "grid-negative": (lambda: brute_force_inner_inf(SCALAR, [[4.0]], -5),
                      NegativeParameter),
    "grid-nan": (lambda: brute_force_inner_inf(SCALAR, [[4.0]], math.nan),
                 NegativeParameter),
    # rank-one closed form
    "rank1-infinite-v": (lambda: Rank1Inputs(10.0, (math.inf,), 1.0, 0.5), NonFinite),
    "rank1-negative-kappa": (lambda: Rank1Inputs(10.0, (1.0,), 1.0, -0.5),
                             NegativeParameter),
    "rank1-interference-overflow": (lambda: Rank1Inputs(10.0, (1e300,), 1e10, 0.5),
                                    NonFinite),
    "rank1-cap-square-overflow": (lambda: Rank1Inputs(10.0, (1.0,), 1e200, 0.5),
                                  NonFinite),
    "rank1-int-cap-past-float": (lambda: Rank1Inputs(10.0, (1.0,), 10 ** 400, 0.5),
                                 NonFinite),
    "rank1-v-array": (lambda: Rank1Inputs(10.0, np.array([1.0, 2.0]), 1.0, 0.5),
                      NegativeParameter),
    "rank1-v-list": (lambda: Rank1Inputs(10.0, [1.0], 1.0, 0.5), NegativeParameter),
}


@pytest.mark.parametrize("call,error", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_invalid_input_rejected_at_the_boundary(call, error):
    with pytest.raises(error):
        call()


def test_valid_spellings_accepted():
    # a field name is the field, and a string flag is never read as truthy
    assert sweep(field="real").rows == sweep(field=FieldKind.REAL).rows
    assert sweep(field="COMPLEX").metadata["field"] == "complex"
    assert dof_upper_bound(DofScenario(2, 2, 1, False, "sublinear")) == 1.5
    scenario = DofScenario(2.0, 2, 1, True, "linear")
    assert type(scenario.m_t) is int
    # a huge range is checked at its ends, not walked; numpy integers are ranks
    assert SearchConfig(ranks=range(1, 10 ** 18)).ranks == range(1, 10 ** 18)
    assert SearchConfig(ranks=(np.int64(1), 2)).ranks == (1, 2)
    # the PSD floor is relative: a rank-one F F^T whose rounding leaves a
    # least eigenvalue below -EPS_PSD in absolute terms is accepted
    F = 2.0 ** 15 * np.array([[1.0], [1.0 / 3.0]])
    Q_x = F @ F.T
    assert np.linalg.eigvalsh(Q_x)[0] < -EPS_PSD
    fam, value = inner_inf(MIMO, Q_x)
    assert witness_value(MIMO, Q_x, fam) == value
    assert dof_fixed_rank(2.0, 3) == dof_fixed_rank(2, 3) == 1.0
