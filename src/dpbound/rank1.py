"""Closed-form capacity upper bound for rank-one received signals.

Covers MISO and SIMO links (and the scalar channel): the message-bearing
signal occupies a single receive dimension of power ``|h|^2 P`` after
transmit or receive beamforming, and each state eigendirection is aimed
into that dimension at the full amplification cap.  The closed form and its
gap certificate are total on a_max in [0, inf].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, _to_float
from .errors import NegativeParameter, NonFinite, NotRankOne


@dataclass(frozen=True)
class Rank1Inputs:
    """Everything the closed form depends on.

    The bound depends on the channel vector and power only through the
    received signal power ``h_norm_sq_P = |h|^2 P``.  A finite cap whose
    interference power ``a_max^2 max(v)`` overflows raises ``NonFinite``,
    the rule ``validate_model`` applies.
    """

    h_norm_sq_P: float
    v: tuple                 # positive, finite eigenvalues of the state covariance
    a_max: float             # may be math.inf
    kappa: float             # positive and finite

    def __post_init__(self):
        if not math.isfinite(self.h_norm_sq_P):
            raise NonFinite(f"received signal power is {self.h_norm_sq_P}")
        if self.h_norm_sq_P < 0.0:
            raise NegativeParameter("received signal power must be nonnegative")
        if not self.a_max >= 0.0:
            raise NegativeParameter(f"a_max must be in [0, inf], got {self.a_max}")
        if not isinstance(self.v, tuple):
            raise NegativeParameter(
                f"state eigenvalues must be a tuple, got {type(self.v).__name__}")
        if not self.v or not all(x > 0.0 for x in self.v):
            raise NegativeParameter(
                "state eigenvalues must be positive, and at least one is required")
        if math.inf in self.v:
            raise NonFinite("state eigenvalues must be finite")
        cap = float(_to_float(self.a_max, "a_max"))
        if not math.isinf(cap) and math.isinf(cap * cap * max(self.v)):
            raise NonFinite("interference power a_max^2 max(v) overflows")
        if not 0.0 < self.kappa < math.inf:
            raise NegativeParameter(f"kappa must be positive and finite, got {self.kappa}")


def rank_one_bound(inputs: Rank1Inputs) -> float:
    """Exact rank-one upper bound in bits.

    kappa * [sum_i log2((|h|^2 P + 1 + a^2 v_i) / (a^2 v_i))
             + log2(1 + |h|^2 P)] / (m_s + 1)

    With an unbounded cap each sum term vanishes, leaving the pure prelog
    value.  A zero cap, or one whose interference power a^2 v_i underflows
    to zero, makes a term, and the bound, +inf: the limit as the cap falls
    to zero.
    """
    hp = inputs.h_norm_sq_P
    m_s = len(inputs.v)
    total = math.log2(1.0 + hp)
    if not math.isinf(inputs.a_max):
        a2 = inputs.a_max * inputs.a_max
        for vi in inputs.v:
            t = a2 * vi
            if t == 0.0:
                return math.inf
            total += math.log2((hp + 1.0 + t) / t)
    return inputs.kappa * total / (m_s + 1)


def prelog_reference(inputs: Rank1Inputs) -> float:
    """kappa / (m_s + 1) * log2(1 + |h|^2 P): the pure prelog-loss value."""
    m_s = len(inputs.v)
    return inputs.kappa / (m_s + 1) * math.log2(1.0 + inputs.h_norm_sq_P)


def prelog_gap_certificate(inputs: Rank1Inputs) -> dict:
    """Certify the gap between the exact bound and its prelog reference.

    When every state eigenvalue satisfies
    ``v_i >= (1 + |h|^2 P) / a_max^2`` each sum term of the bound is at
    most one bit, so the gap lies in [0, kappa * m_s / (m_s + 1)].
    Returns ``{"applies": bool, "gap_bound": float}``; the guarantee is
    only made when ``applies`` is true, never for a zero cap or one whose
    square underflows.  An unbounded cap meets the threshold: the bound is
    then the prelog value, a gap of exactly 0.
    """
    m_s = len(inputs.v)
    gap_bound = inputs.kappa * m_s / (m_s + 1)
    a2 = inputs.a_max * inputs.a_max
    applies = a2 > 0.0 and min(inputs.v) >= (1.0 + inputs.h_norm_sq_P) / a2
    return {"applies": applies, "gap_bound": gap_bound}


def rank1_inputs_from_model(model: ChannelModel) -> Rank1Inputs:
    """Reduce a MISO/SIMO model to the closed form's inputs.

    Transmit beamforming (MISO) and receive combining (SIMO) both deliver
    received signal power ``|h|^2 P`` with ``|h|^2 = ||H||_F^2``.
    """
    if model.m_t != 1 and model.m_r != 1:
        raise NotRankOne("closed form applies only when m_t = 1 or m_r = 1")
    h_norm_sq = float(np.linalg.norm(model.H) ** 2)
    v = tuple(float(x) for x in model.white.eigvals)
    return Rank1Inputs(h_norm_sq_P=h_norm_sq * model.P, v=v,
                       a_max=model.a_max, kappa=model.field.kappa)
