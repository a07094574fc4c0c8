"""Worst-case adversary families aligned with the signal subspace.

The family construction places whitened eigendirections of the state
covariance into the message-bearing subspace at the full amplification
cap, split into ceil(m_s / M0) groups that are mutually orthogonal under
Q_s.  Within a group the k-th largest state eigenvalue lands on the k-th
largest signal eigenvalue; that pairing (and, for partial groups, aiming
at the strongest signal directions first) minimizes every log-det term of
the bound among row assignments, so the canonical family is the tightest
member of the aligned class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import AdversaryFamily, ChannelModel, _freeze
from .errors import InfeasibleDimensions, PartitionMismatch
from .spectral import SignalSubspace, WhitenedState

# Exhaustive partition enumeration up to this many assignments (8! covers
# every m_s <= 8 at M0 = 1, the worst case).
DEFAULT_PARTITION_BUDGET = 40320


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


def partition_count(m_s: int, M0: int) -> int:
    """Number of ordered fillings of the required group shape (a multinomial)."""
    count = math.factorial(m_s)
    for s in required_group_sizes(m_s, M0):
        count //= math.factorial(s)
    return count


def enumerate_partitions(m_s: int, M0: int,
                         budget: int = DEFAULT_PARTITION_BUDGET) -> list[GroupPartition]:
    """All ordered fillings of the required group shape, up to ``budget``.

    Groups are order-sensitive (the last group is treated specially by the
    bound) but unordered internally.  When the exhaustive count exceeds the
    budget, returns a deterministic two-element subset: contiguous blocks
    of the descending-sorted spectrum, and the same blocks taken over the
    reversed order.
    """
    if m_s < 1 or M0 < 1:
        raise PartitionMismatch("m_s and M0 must be at least 1")
    sizes = required_group_sizes(m_s, M0)
    if partition_count(m_s, M0) > budget:
        forward = _contiguous(range(m_s), sizes)
        backward = _contiguous(reversed(range(m_s)), sizes)
        parts = [forward]
        if backward.groups != forward.groups:
            parts.append(backward)
        return parts

    out = []

    def fill(remaining: tuple, acc: list) -> None:
        idx = len(acc)
        if idx == len(sizes):
            out.append(GroupPartition(groups=tuple(acc)))
            return
        for combo in itertools.combinations(remaining, sizes[idx]):
            rest = tuple(k for k in remaining if k not in combo)
            fill(rest, acc + [tuple(sorted(combo))])

    fill(tuple(range(m_s)), [])
    return out


def _contiguous(order, sizes: list[int]) -> GroupPartition:
    order = list(order)
    groups, pos = [], 0
    for s in sizes:
        groups.append(tuple(sorted(order[pos:pos + s])))
        pos += s
    return GroupPartition(groups=tuple(groups))


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
