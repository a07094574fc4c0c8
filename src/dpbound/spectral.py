"""Numerically careful spectral primitives.

Rank detection, signal-subspace extraction, state whitening and base-2
log-determinants.  Everything here is a pure function over small dense
matrices (dimensions of order ten), so eigendecompositions are the
factorization of choice; raw determinants are never formed.  The one
rule for when a log-det is -inf is :func:`logdet_eigvals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RANK_TOL, InputCovariance, _freeze, _hermitize
from .errors import NotSquare, QsRankDeficient


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


def logdet_eigvals(w) -> np.ndarray:
    """log2 det per row of ascending eigenvalues (the last axis of ``w``).

    The one singular-matrix rule: a row's log-det is -inf unless every
    eigenvalue exceeds ``RANK_TOL`` times the row's largest.
    """
    w = np.asarray(w)
    nonsingular = np.all(w > RANK_TOL * w[..., -1:], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logdets = np.sum(np.log2(w), axis=-1)
    return np.where(nonsingular, logdets, -math.inf)


def logdet_psd(M):
    """log2 det over the last two axes of a PSD matrix or stack of them.

    Numerically singular matrices give -inf (see :func:`logdet_eigvals`).
    A single matrix gives a float, and 0x0 gives 0.0; a stack of shape
    (..., n, n) gives an array of shape (...).  Raises :class:`NotSquare`
    when the last two axes are missing or unequal.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise NotSquare(f"expected a square matrix, got shape {M.shape}")
    logdets = logdet_eigvals(np.linalg.eigvalsh(_hermitize(M)))
    return float(logdets) if M.ndim == 2 else logdets
