"""Numerically careful spectral primitives.

Rank detection, signal-subspace extraction, state whitening and base-2
log-determinant ratios.  Everything here is a pure function over small
dense matrices (dimensions of order ten), so eigendecompositions are the
factorization of choice; raw determinants are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RANK_TOL, InputCovariance, _freeze, _hermitize
from .errors import BothSingular, NotSquare, QsRankDeficient


@dataclass(frozen=True)
class SignalSubspace:
    """Orthonormal basis of the column space of H Q_x H^dagger.

    ``U`` has shape (M0, m_r) with orthonormal rows: the rows are the
    eigenvectors carrying the positive part of the received-signal
    spectrum, sorted by descending eigenvalue.
    """

    M0: int
    U: np.ndarray
    spectrum: np.ndarray  # the M0 positive eigenvalues, descending


@dataclass(frozen=True)
class WhitenedState:
    """Eigendecomposition of the state covariance, eigenvalues descending."""

    eigvecs: np.ndarray   # columns are eigenvectors (m_s x m_s unitary)
    eigvals: np.ndarray   # positive, descending


def signal_subspace(H, Q_x) -> SignalSubspace:
    """Extract the message-bearing subspace of the receive space.

    ``Q_x`` may be an :class:`InputCovariance` or a raw matrix.  ``M0``
    counts the eigenvalues of H Q_x H^dagger above ``RANK_TOL`` times the
    largest (0 for a numerically zero matrix).
    """
    if isinstance(Q_x, InputCovariance):
        Q_x = Q_x.Q_x
    H = np.asarray(H)
    G = _hermitize(H @ np.asarray(Q_x) @ H.conj().T)
    w, V = np.linalg.eigh(G)
    w = w[::-1]
    V = V[:, ::-1]
    top = float(w[0])
    M0 = 0 if top <= 0.0 else int(np.count_nonzero(w > RANK_TOL * top))
    U = V[:, :M0].conj().T
    return SignalSubspace(M0=M0, U=_freeze(U), spectrum=_freeze(w[:M0].copy()))


def whiten_state(Q_s) -> WhitenedState:
    """Eigendecompose a full-rank PSD state covariance."""
    Q = _hermitize(np.asarray(Q_s))
    w, E = np.linalg.eigh(Q)
    w = w[::-1]
    E = E[:, ::-1]
    if float(w[0]) <= 0.0 or float(w[-1]) <= RANK_TOL * float(w[0]):
        raise QsRankDeficient("state covariance is rank deficient")
    return WhitenedState(eigvecs=_freeze(E), eigvals=_freeze(w.copy()))


def _logdet2(M) -> tuple[float, bool]:
    """(log2 det M, singular flag) for a PSD matrix, via eigenvalues."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return 0.0, False
    w = np.linalg.eigvalsh(_hermitize(M))
    top = float(w[-1])
    if top <= 0.0:
        return -math.inf, True
    keep = w > RANK_TOL * top
    if not bool(keep.all()):
        return -math.inf, True
    return float(np.sum(np.log2(w))), False


def logdet_psd(M) -> float:
    """log2 det(M) for a PSD matrix; -inf when numerically singular."""
    return _logdet2(M)[0]


def logdet_ratio(numer, denom) -> float:
    """log2 det(numer) - log2 det(denom) for PSD matrices.

    Singularity is decided relative to each matrix's own top eigenvalue.
    A singular denominator with a nonsingular numerator yields +inf; the
    0/0 case raises :class:`BothSingular` rather than guessing.
    """
    ld_n, sing_n = _logdet2(numer)
    ld_d, sing_d = _logdet2(denom)
    if sing_n and sing_d:
        raise BothSingular("both matrices in the log-det ratio are singular")
    if sing_d:
        return math.inf
    if sing_n:
        return -math.inf
    return ld_n - ld_d
