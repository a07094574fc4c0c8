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

:func:`objective` is the witness evaluator: the bound's matrix value on a
built family, which the search reports because the family is feasible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (AdversaryFamily, ChannelModel, InputCovariance, _freeze,
                      _hermitize)
from .errors import InfeasibleDimensions, PartitionMismatch, RankZeroSignal
from .spectral import SignalSubspace, WhitenedState, logdet_psd


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


def enumerate_partitions(m_s: int, M0: int) -> list[GroupPartition]:
    """The partitions of the required group shape that can attain the minimum.

    One candidate per choice of the rho = m_s mod M0 remainder coordinates,
    C(m_s, rho) in all and exactly one when M0 divides m_s.  The other
    coordinates, in descending order, go round-robin to the
    n_full = m_s // M0 full groups: full group g holds the g-th, the
    (n_full + g)-th, the (2 n_full + g)-th, ... of them, so row r of every
    full group takes the r-th block of n_full coordinates.  Groups are
    order-sensitive (the last one is the remainder group) and stored as
    ascending tuples, which ``build_family`` assigns to rows in order.
    """
    if m_s < 1 or M0 < 1:
        raise PartitionMismatch("m_s and M0 must be at least 1")
    n_full, rho = divmod(m_s, M0)
    out = []
    for rem in itertools.combinations(range(m_s), rho):
        rest = [k for k in range(m_s) if k not in rem]
        groups = tuple(tuple(rest[g::n_full]) for g in range(n_full))
        out.append(GroupPartition(groups=groups + ((rem,) if rho else ())))
    return out


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


def objective(model: ChannelModel, Q_x, fam: AdversaryFamily) -> float:
    """Evaluate the bound objective for one covariance and family, in bits.

    kappa * [sum over the first N-1 interference groups of
    log2 det(S + I + T_i) - log2 det(T_i) + log2 det(I + S) + g] / (N + 1)

    with S the signal block and T_i the interference blocks, all in the
    signal-subspace basis.  The final group's term g divides through by
    det(T_N) when the group count divides the state dimension evenly and
    by det(T_N + I/2) plus a 2*M0 offset otherwise.  The members' log-dets
    take one stacked call (I + S stays apart: it is real beside complex
    T_i when a real H meets a complex Q_s).  A group term that the
    singular-matrix rule leaves non-finite, as from a cap whose square
    underflows, makes the value +inf.  Limit families (unbounded cap) are
    evaluated analytically: full-rank interference blocks contribute
    exactly zero.
    """
    if isinstance(Q_x, InputCovariance):
        Q_x = Q_x.Q_x
    Q_x = np.asarray(Q_x)
    H = np.asarray(model.H)
    G = _hermitize(H @ Q_x @ H.conj().T)

    sub = fam.subspace
    if sub is None or sub.M0 != fam.M0:
        raise PartitionMismatch("family was not built for this signal subspace")
    M0 = fam.M0
    if M0 < 1:
        raise RankZeroSignal("H Q_x H^dagger is numerically zero")
    U = np.asarray(sub.U)
    resid = G - U.conj().T @ (U @ G @ U.conj().T) @ U
    if float(np.linalg.norm(resid)) > 1e-8 * (1.0 + float(np.linalg.norm(G))):
        raise PartitionMismatch("family subspace does not span H Q_x H^dagger")

    S = _hermitize(U @ G @ U.conj().T)
    eye = np.eye(M0)
    N = len(fam)
    uneven = model.m_s % M0 != 0
    kappa = model.field.kappa

    total = logdet_psd(eye + S)
    if fam.is_limit:
        # every full-rank limit block cancels exactly
        if uneven:
            r = len(fam.group_map[-1])
            total += logdet_psd((eye + S)[r:, r:]) + (M0 - r) + 2.0 * M0
        return kappa * total / (N + 1)

    Qs = np.asarray(model.Q_s)
    T = np.array([_hermitize(U @ (A @ Qs @ A.conj().T) @ U.conj().T)
                  for A in fam.members])
    denoms = T.copy()
    if uneven:
        denoms[-1] += 0.5 * eye
    logdets = logdet_psd(np.concatenate([S + eye + T, denoms])).tolist()
    for i in range(N):
        term = logdets[i] - logdets[N + i]
        if uneven and i == N - 1:
            term += 2.0 * M0
        if not math.isfinite(term):
            return math.inf
        total += term
    return kappa * total / (N + 1)
