"""Worst-case adversary families aligned with the signal subspace.

The family construction places whitened eigendirections of the state
covariance into the message-bearing subspace at the full amplification
cap, split into ceil(m_s / M0) groups that are mutually orthogonal under
Q_s.  Within a group the k-th largest state eigenvalue lands on the k-th
largest signal eigenvalue, so the aligned objective is a sum of slot
costs, one per state coordinate k placed on signal row r, with
t = a_max^2 v_k:

* a slot of a full group (M0 members) costs log2(lam_r + 1 + t) - log2 t;
* a slot of the remainder group (rho = m_s mod M0 members, present only
  when M0 does not divide m_s) costs log2(lam_r + 1 + t) - log2(t + 1/2);

plus terms that depend only on the spectrum and the group shape.  Both
slot costs have a negative mixed partial in (lam, t), so for two slots of
the same kind, putting the larger t on the larger lam is never worse than
the crossed pairing.  By this exchange, some minimising partition gives
the full-group slots their coordinates in descending order, row by row,
and the remainder slots theirs in descending order too.  Only the choice
of the remainder coordinates is free, which leaves C(m_s, rho)
candidates (``enumerate_partitions``), and the aligned inner minimum
over them is exact.

:func:`objective` sums those slot costs in scalar floats: it is the
bound's only objective, which the search ranks candidates by and reports
for the winner.  The matrix evaluation of a built family lives in
``oracle.witness_value``, which checks this diagonal form.
"""

from __future__ import annotations

import functools
import itertools
import math
from math import log2
from dataclasses import dataclass

import numpy as np

from .channel import AdversaryFamily, ChannelModel, _freeze
from .errors import InfeasibleDimensions, PartitionMismatch
from .spectral import SignalSubspace, WhitenedState


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint groups of whitened state coordinates (0-based indices).

    All groups except possibly the last have exactly M0 members; the last
    carries the remainder.
    """

    groups: tuple

    def __post_init__(self):
        flat = [k for g in self.groups for k in g]
        if len(flat) != len(set(flat)):
            raise PartitionMismatch("groups overlap")

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def required_group_sizes(m_s: int, M0: int) -> list[int]:
    """Group sizes [M0, ..., M0, remainder] covering m_s coordinates."""
    n = -(-m_s // M0)
    sizes = [M0] * (n - 1)
    sizes.append(m_s - M0 * (n - 1))
    return sizes


def check_partition(part: GroupPartition, m_s: int, M0: int) -> None:
    """Raise PartitionMismatch unless the partition has the required shape."""
    sizes = [len(g) for g in part.groups]
    if sizes != required_group_sizes(m_s, M0):
        raise PartitionMismatch(
            f"group sizes {sizes} do not match the required shape for "
            f"m_s={m_s}, M0={M0}")
    flat = sorted(k for g in part.groups for k in g)
    if flat != list(range(m_s)):
        raise PartitionMismatch("groups must cover coordinates 0..m_s-1 exactly")


@functools.cache
def enumerate_partitions(m_s: int, M0: int) -> tuple[GroupPartition, ...]:
    """The partitions of the required group shape that can attain the minimum.

    One candidate per choice of the rho = m_s mod M0 remainder coordinates,
    C(m_s, rho) in all and exactly one when M0 divides m_s.  The other
    coordinates, in descending order, go round-robin to the
    n_full = m_s // M0 full groups: full group g holds the g-th, the
    (n_full + g)-th, the (2 n_full + g)-th, ... of them, so row r of every
    full group takes the r-th block of n_full coordinates.  Groups are
    order-sensitive (the last one is the remainder group) and stored as
    ascending tuples, which ``build_family`` assigns to rows in order.
    The result is memoised per (m_s, M0), so the search can ask for it at
    every evaluation.
    """
    if m_s < 1 or M0 < 1:
        raise PartitionMismatch("m_s and M0 must be at least 1")
    n_full, rho = divmod(m_s, M0)
    out = []
    for rem in itertools.combinations(range(m_s), rho):
        rest = [k for k in range(m_s) if k not in rem]
        groups = tuple(tuple(rest[g::n_full]) for g in range(n_full))
        out.append(GroupPartition(groups=groups + ((rem,) if rho else ())))
    return tuple(out)


def build_family(model: ChannelModel, sub: SignalSubspace, white: WhitenedState,
                 part: GroupPartition) -> AdversaryFamily:
    """Construct the aligned family for one partition.

    Member i is ``U^dagger D_i S_i diag(v^{-1/2}) E^dagger`` where S_i picks
    the group's whitened coordinates, and D_i carries per-coordinate gains
    ``a_max * sqrt(v_k)``.  Consequences (checked by tests, not assumed):
    ``U A_i Q_s A_i^dagger U^dagger`` is exactly diag(a_max^2 v_k,
    zero-padded) and every nonzero singular value of A_i equals a_max.

    For ``a_max = inf`` the returned family is symbolic: members are built
    at unit cap and ``is_limit`` is set, so consumers treat every
    interference block as an unboundedly amplified direction.
    """
    M0 = sub.M0
    if M0 < 1:
        raise InfeasibleDimensions("signal subspace is empty")
    check_partition(part, model.m_s, M0)

    is_limit = math.isinf(model.a_max)
    cap = 1.0 if is_limit else model.a_max

    v = np.asarray(white.eigvals)
    E = np.asarray(white.eigvecs)
    U = np.asarray(sub.U)
    whiten = E / np.sqrt(v)        # columns scaled: diag(v^{-1/2}) applied on the right
    members = []
    for group in part.groups:
        coords = sorted(group)     # ascending index = descending eigenvalue
        B = np.zeros((M0, model.m_s), dtype=U.dtype)
        for row, k in enumerate(coords):
            B[row, k] = cap * math.sqrt(float(v[k]))
        A = U.conj().T @ B @ whiten.conj().T
        members.append(_freeze(A))

    fam = AdversaryFamily(members=tuple(members),
                          group_map=tuple(tuple(sorted(g)) for g in part.groups),
                          M0=M0, a_max=model.a_max, is_limit=is_limit,
                          subspace=sub)
    fam.validate(model)
    return fam


def objective(lam, v, a_max: float, m_s: int, part: GroupPartition,
              kappa: float) -> float:
    """The bound objective of the aligned family for ``part``, in bits.

    The slot costs above, summed in diagonal form: ``lam`` is the
    descending signal spectrum, ``v`` the descending state spectrum, both
    sequences of Python floats, and group coordinate k puts interference
    a_max^2 v_k on signal row r (rows assigned in order within each
    group).  The family ``build_family`` builds for ``part`` has exactly
    these diagonal blocks, so this is its matrix objective (as
    ``oracle.witness_value`` checks) with fewer roundings.  Terms are
    accumulated left to right in scalar floats: the inputs hold a handful
    of entries, where array dispatch would cost more than the arithmetic.
    A zero interference power in a full group (a zero cap, or one whose
    square underflows) makes the value +inf.

    The order of the float additions is part of the result.  The outer
    ascent compares values that can differ only in their last bits, so
    summing the same slot costs in another order changes the steps it
    takes: one slot-by-slot reordering changed the reported raw bound on
    77 of the 336 benchmark pool models, by up to 9e-12 bits.  A
    replacement kernel (a dynamic program over slots, say) must keep this
    order or have its bounds re-checked against the recorded references.
    """
    M0 = len(lam)
    groups = part.groups
    N = len(groups)
    divisible = (m_s % M0 == 0)
    total = 0.0
    for x in lam:
        total += log2(1.0 + x)
    if math.isinf(a_max):
        if not divisible:
            r = len(groups[-1])
            tail = 0.0
            for x in lam[r:]:
                tail += log2(1.0 + x)
            total += tail + (M0 - r) + 2.0 * M0
        return kappa * total / (N + 1)
    a2 = a_max * a_max
    n_full = N if divisible else N - 1
    try:
        for gi in range(n_full):
            term = 0.0
            for x, k in zip(lam, groups[gi]):
                t = a2 * v[k]
                term += log2(x + 1.0 + t) - log2(t)
            total += term
    except ValueError:
        return math.inf
    if not divisible:
        group = groups[-1]
        r = len(group)
        numer = denom = rest = 0.0
        for x, k in zip(lam, group):
            t = a2 * v[k]
            numer += log2(x + 1.0 + t)
            denom += log2(t + 0.5)
        for x in lam[r:]:
            rest += log2(x + 1.0)
        total += numer + rest - denom + (M0 - r) + 2.0 * M0
    return kappa * total / (N + 1)
