"""Numerically careful spectral primitives.

Rank detection, signal-subspace extraction and base-2 log-determinants,
pure functions over small dense matrices (dimensions of order ten); raw
determinants are never formed.  The one rule for the signal rank is
:func:`signal_spectrum`, and the one rule for when a log-det is -inf is
:func:`logdet_eigvals`.  ``whiten_state``, the one Q_s rule, lives in
``channel`` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (RANK_TOL, WhitenedState, _freeze, _hermitize, is_psd,
                      whiten_state)
from .errors import NotPSD, NotSquare


@dataclass(frozen=True)
class SignalSubspace:
    """Orthonormal basis of the column space of H Q_x H^dagger.

    ``U`` has shape (M0, m_r) with orthonormal rows: the left singular
    vectors of H F carrying the signal spectrum, in the same order.
    """

    U: np.ndarray
    spectrum: np.ndarray  # the M0 kept signal eigenvalues, descending

    @property
    def M0(self) -> int:
        """The signal rank, the length of ``spectrum``."""
        return self.spectrum.size


def signal_spectrum(HF):
    """The signal spectrum of Q_x = F F^dagger from the product H F.

    The one signal-rank rule: the squared singular values of H F, kept
    when above ``RANK_TOL`` times the largest (none for a numerically zero
    H F), descending.  Its length is the signal rank M0.  A stack of
    products, of shape (..., m, k), takes one stacked ``svd`` and gives a
    list of spectra, one per product in C order.
    """
    lam = np.linalg.svd(HF, compute_uv=False)
    lam = lam * lam
    # descending, so the kept values are a prefix; a zero row keeps none
    kept = (lam > RANK_TOL * lam[..., :1]).sum(axis=-1)
    if lam.ndim == 1:
        return lam[:kept]
    rows = lam.reshape(-1, lam.shape[-1])
    return [row[:n] for row, n in zip(rows, kept.ravel().tolist())]


def factor_subspace(H, F) -> SignalSubspace:
    """The message-bearing subspace of Q_x = F F^dagger.

    The spectrum is :func:`signal_spectrum`, so a search that scores F
    and the witness built here read the same numbers; the basis is the
    matching left singular vectors of the same product H F.
    """
    HF = np.asarray(H) @ np.asarray(F)
    lam = signal_spectrum(HF)
    U = np.linalg.svd(HF, full_matrices=False)[0][:, :lam.size].conj().T
    return SignalSubspace(U=_freeze(U), spectrum=_freeze(lam))


def psd_factor(Q) -> np.ndarray:
    """A factor F with F F^dagger = Q for PSD ``Q``: its eigenvectors
    scaled by the root eigenvalues, ascending.

    Raises ``NotPSD`` when the eigenvalues fail :func:`channel.is_psd`, so
    an indefinite ``Q`` is never read as its PSD part; negative
    eigenvalues within that floor are rounding, clipped to zero.
    """
    w, V = np.linalg.eigh(_hermitize(np.asarray(Q)))
    if not is_psd(w):
        raise NotPSD(f"covariance has eigenvalue {w[0]:g} below the PSD tolerance")
    return V * np.sqrt(np.clip(w, 0.0, None))


def signal_subspace(H, Q_x) -> SignalSubspace:
    """Extract the message-bearing subspace of the receive space.

    ``Q_x`` is factored by :func:`psd_factor` and the factor passed to
    :func:`factor_subspace`, so ``M0`` follows the rule of
    :func:`signal_spectrum`; a ``Q_x`` below the PSD floor raises
    ``NotPSD``.
    """
    return factor_subspace(H, psd_factor(Q_x))


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
