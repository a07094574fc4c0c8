"""Degrees-of-freedom (high-SNR prelog) calculator.

The system keeps full DOF min(m_t, m_r) exactly when the amplification cap
is finite and the interference power grows sublinearly with SNR; otherwise
the prelog is capped by a dimension-counting bound.  The INR growth regime
is a declared scenario attribute, not something inferred from data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeParameter, TooLarge

# Largest dimension a scenario accepts: the rank search takes at most about
# 1,500 steps for m_s up to here, but about 120,000 (0.7 s) at m_s = 1e20,
# and an m_t or m_r past the float range overflows the float results.
MAX_DOF_DIM = 10 ** 12


class InrScaling(enum.Enum):
    SUBLINEAR = "sublinear"
    LINEAR = "linear"
    SUPERLINEAR = "superlinear"


@dataclass(frozen=True)
class DofScenario:
    m_t: int
    m_r: int
    m_s: int
    amax_finite: bool
    inr_scaling: InrScaling

    def __post_init__(self):
        if min(self.m_t, self.m_r, self.m_s) < 1:
            raise NegativeParameter("dimensions must be at least 1")
        for name in ("m_t", "m_r", "m_s"):
            if getattr(self, name) > MAX_DOF_DIM:
                raise TooLarge(f"{name} = {getattr(self, name)} exceeds {MAX_DOF_DIM}")


def dof_fixed_rank(m0: int, m_s: int) -> float:
    """DOF cap when the received signal occupies exactly m0 dimensions:

    [m0 * (ceil(m_s / m0) + 1) - m_s] / (ceil(m_s / m0) + 1)
    """
    if m0 < 1 or m_s < 1:
        raise NegativeParameter("m0 and m_s must be at least 1")
    n = -(-m_s // m0)
    return (m0 * (n + 1) - m_s) / (n + 1)


def dof_upper_bound(scenario: DofScenario) -> float:
    """Full DOF when the cap is finite and INR grows sublinearly; else the
    dimension-counting cap maximized over admissible signal ranks.

    The fixed-rank cap is not monotone in the rank (for example at
    m_s = m_star = 7, rank 6 gives 11/3 > 7/2), and the transmitter may use
    any rank up to min(m_t, m_r), so the sound bound takes the max; in the
    common regimes it coincides with the value at rank min(m_t, m_r).
    """
    m_star = min(scenario.m_t, scenario.m_r)
    scaling = InrScaling(scenario.inr_scaling)    # a member or its value
    if scenario.amax_finite and scaling is InrScaling.SUBLINEAR:
        return float(m_star)
    # Within a block of equal n = ceil(m_s / m0) the cap m0 - m_s / (n + 1)
    # rises with m0, so only m_star and each lower block's largest rank can
    # attain the max.  Ranks past block n lie below m_s / n with n + 1 or
    # more groups, so their caps are below 2 m_s / (n (n + 2)); blocks are
    # visited by increasing n until that bound cannot beat the best cap.
    m_s = scenario.m_s
    m0, best = m_star, dof_fixed_rank(m_star, m_s)
    while True:
        n = -(-m_s // m0)
        m0 = -(-m_s // n) - 1        # the largest rank below m_s / n
        if m0 < 1 or Fraction(2 * m_s, n * (n + 2)) <= best:
            return best
        best = max(best, dof_fixed_rank(m0, m_s))
