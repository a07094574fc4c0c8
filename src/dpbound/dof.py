"""Degrees-of-freedom (high-SNR prelog) calculator.

The system keeps full DOF min(m_t, m_r) exactly when the amplification cap
is finite and the interference power grows sublinearly with SNR; otherwise
the prelog is capped by a dimension-counting bound.  The INR growth regime
is a declared scenario attribute, not something inferred from data.

The fixed-rank cap is the exact prelog of the bound's objective
(``adversary.objective``).  DOF values are in units of kappa log2 P, so
the bound in bits grows by kappa times the DOF per doubling of P (kappa
= 1/2 real, 1 complex).  Take rank m0, every signal eigenvalue lambda = P
and a linear INR, a_max^2 v = P on every state coordinate.  With
n = ceil(m_s / m0) groups, rho = m_s - m0 (n - 1) coordinates in the last
group, and the objective is 1 / (n + 1) times a sum of log2 terms:

- the signal term, log2(1 + lambda) per row: slope 1 for each of the m0
  rows;
- a full-group slot, log2(lambda + 1 + t) - log2 t: slope 0;
- the remainder group (rho < m0), log2(lambda + 1 + t) - log2(t + 1/2)
  per covered row (slope 0) and log2(1 + lambda) per uncovered row:
  slope 1 for each of the m0 - rho uncovered rows.

So the slope is m0 / (n + 1) when m0 divides m_s and (2 m0 - rho) / (n + 1)
otherwise; both equal ``dof_fixed_rank(m0, m_s)``.  At a fixed cap t stays
bounded, so every full-group slot adds one per row and the slope is m0.
``tests/test_dof.py`` checks both slopes for every m_s <= 64 and m0 <= 16,
between P = 2^200 and 2^400, to 1e-9.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .channel import positive_dim
from .errors import BadSpec, TooLarge

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
    """Dimensions (``channel.positive_dim``, at most ``MAX_DOF_DIM``), a bool
    ``amax_finite`` and an ``InrScaling`` or its value, else ``BadSpec``."""

    m_t: int
    m_r: int
    m_s: int
    amax_finite: bool
    inr_scaling: InrScaling

    def __post_init__(self):
        for name in ("m_t", "m_r", "m_s"):
            dim = positive_dim(name, getattr(self, name))
            if dim > MAX_DOF_DIM:
                raise TooLarge(f"{name} = {dim} exceeds {MAX_DOF_DIM}")
            object.__setattr__(self, name, dim)
        if not isinstance(self.amax_finite, bool):
            raise BadSpec(f"amax_finite must be a bool, got {self.amax_finite!r}")
        try:
            object.__setattr__(self, "inr_scaling", InrScaling(self.inr_scaling))
        except ValueError:
            raise BadSpec(f"unknown inr_scaling {self.inr_scaling!r}") from None


def dof_fixed_rank(m0: int, m_s: int) -> float:
    """DOF cap when the received signal occupies exactly m0 dimensions:

    [m0 * (ceil(m_s / m0) + 1) - m_s] / (ceil(m_s / m0) + 1)

    Both dimensions go through ``channel.positive_dim``.
    """
    m0, m_s = positive_dim("m0", m0), positive_dim("m_s", m_s)
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
    if scenario.amax_finite and scenario.inr_scaling is InrScaling.SUBLINEAR:
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
