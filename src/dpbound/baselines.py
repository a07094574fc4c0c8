"""Reference rates bracketing the compound bound.

* Interference-free capacity: water-filling over the channel's singular
  values, an upper reference no bound may exceed usefully.
* Worst-case treat-interference-as-noise: the rate a receiver that lumps
  interference into noise is guaranteed, against the aligned saturated
  adversary, with the transmit covariance fixed at the interference-free
  optimum.  A valid achievable rate, deliberately not re-optimized.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelModel, _hermitize
from .spectral import signal_subspace


def water_filling(model: ChannelModel) -> tuple[float, np.ndarray]:
    """Interference-free capacity (bits) and the optimizing covariance.

    Maximizes kappa * log2 det(I + H Q H^dagger) subject to tr(Q) <= P by
    water-filling over the squared singular values of H.
    """
    H = np.asarray(model.H)
    P = model.P
    if P == 0.0 or not np.any(H):
        return 0.0, np.zeros((model.m_t, model.m_t), dtype=H.dtype)
    _, s, Vh = np.linalg.svd(H, full_matrices=False)
    gains = s ** 2
    gains = gains[gains > 0]
    k = len(gains)
    powers = np.zeros(k)
    for active in range(k, 0, -1):
        mu = (P + np.sum(1.0 / gains[:active])) / active
        p = mu - 1.0 / gains[:active]
        if p[-1] >= 0.0:
            powers[:active] = p
            break
    cap = model.field.kappa * float(np.sum(np.log2(1.0 + gains[:k] * powers)))
    V = Vh.conj().T[:, :k]
    Q = _hermitize(V @ np.diag(powers) @ V.conj().T)
    return cap, Q


def interference_free_capacity(model: ChannelModel) -> float:
    """Water-filling capacity with no interference, in bits."""
    return water_filling(model)[0]


def tin_worst_case(model: ChannelModel) -> float:
    """Guaranteed rate when interference is treated as noise, in bits.

    Uses the interference-free optimizer for the input covariance and takes
    the minimum Gaussian rate over the aligned, cap-saturated adversary
    family (contiguous grouping of the descending state spectrum), in
    closed form:

        kappa * sum_r log2(1 + lam_r / (1 + t_r)),   t_r = a_max^2 v_r,

    over the signal rows r < M0, with t_r = 0 on rows past m_s.  It is
    exact because every member is diagonal in the signal basis: with
    G = U^dagger diag(lam) U and U A_i Q_s A_i^dagger U^dagger =
    diag(a_max^2 v_k, zero-padded) (``build_family``), the rate of member i
    is kappa * log2 det(I + (I + N_i)^{-1} G) = kappa * sum_r log2(1 +
    lam_r / (1 + t_r)) with t_r from group i's r-th coordinate.  The first
    group holds the largest eigenvalues and covers at least as many rows as
    any other, so its t_r dominate row by row and it is the minimising
    member.  A zero cap gives the interference-free rate of the water-filling
    covariance; an unbounded cap zeroes every covered row, leaving the
    capacity of the untouched signal directions (zero when the state can
    cover the whole signal subspace).
    """
    _, Q_wf = water_filling(model)
    sub = signal_subspace(model.H, Q_wf)
    v = model.white.eigvals[:sub.M0]
    t = np.zeros(sub.M0)
    t[:len(v)] = (model.a_max * model.a_max) * v
    return model.field.kappa * float(np.sum(np.log2(1.0 + sub.spectrum / (1.0 + t))))
