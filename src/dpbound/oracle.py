"""Independent brute-force verification of the bound machinery.

Four checks live here: a dense-grid minimization over feasible adversary
families (no alignment assumption) for small instances, the witness
evaluator, which takes the matrix log-dets of a built family and checks
the diagonal ``adversary.objective`` the search reports, a numeric check
of the log-det concavity inequality the bound's derivation leans on, and
a cross-check of the general evaluator against the rank-one closed form.
Grids are deterministic so failures replay bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import AdversaryFamily, ChannelModel, _hermitize, validate_model
from .errors import (InfeasiblePsi, NotRankOne, PartitionMismatch, RankZeroSignal,
                     TooLarge)
from .general import inner_inf
from .rank1 import rank1_inputs_from_model, rank_one_bound
from .spectral import logdet_eigvals, logdet_psd, signal_subspace, whiten_state

SEED_LADDER = tuple(range(10))


def _grid_objective_scalar(lam, t_arrays, m_s, M0, kappa):
    """Vectorized objective over grids of diagonal interference powers.

    ``t_arrays`` holds one broadcastable array of interference powers per
    group term for the M0 = 1 case.
    """
    N = len(t_arrays)
    divisible = (m_s % M0 == 0)
    s = lam[0]
    total = np.log2(1.0 + s)
    for i, t in enumerate(t_arrays):
        with np.errstate(divide="ignore"):
            if i == N - 1 and not divisible:
                total = total + np.log2(s + 1.0 + t) - np.log2(t + 0.5) + 2.0 * M0
            else:
                total = total + np.log2(s + 1.0 + t) - np.log2(t)
    return kappa * total / (N + 1)


def brute_force_inner_inf(model: ChannelModel, Q_x, grid_resolution: int) -> float:
    """Grid minimum of the objective over feasible families, in bits.

    Families are parameterized without any alignment assumption: each
    member is ``U^dagger C_i E^dagger`` scaled back from the whitened state
    basis, where ``C_i`` ranges over gains in [0, a_max] and rotation
    angles on [0, pi), with state-orthogonality between members enforced
    by construction.  Guarded to m_r * m_s <= 4, at most two groups and a
    signal rank of at most two.
    """
    sub = signal_subspace(model.H, Q_x)
    M0 = sub.M0
    m_s = model.m_s
    if M0 == 0:
        raise TooLarge("zero-rank signal has no objective to minimize")
    n_groups = -(-m_s // M0)
    if model.m_r * m_s > 4 or n_groups > 2 or M0 > 2:
        raise TooLarge(
            f"instance (m_r={model.m_r}, m_s={m_s}, M0={M0}) exceeds the guard")
    if math.isinf(model.a_max):
        raise TooLarge("grid search needs a finite cap")

    kappa = model.field.kappa
    lam = np.asarray(sub.spectrum)
    v = np.asarray(whiten_state(model.Q_s).eigvals)
    R = int(grid_resolution)
    if model.a_max == 0.0:
        return math.inf

    if M0 == 1 and m_s == 1:
        t = np.linspace(0.0, model.a_max, R) ** 2 * v[0]
        vals = _grid_objective_scalar(lam, [t], m_s, M0, kappa)
        return float(np.min(vals))

    if M0 == 1 and m_s == 2:
        # two rank-one members, orthogonal under diag(v) by construction
        n_ang = max(int(math.sqrt(R)) * 2, 32)
        theta = np.linspace(0.0, math.pi, n_ang, endpoint=False)
        n_gain = max(int(math.sqrt(R)), 16)
        g = np.linspace(0.0, model.a_max, n_gain)
        c2 = np.cos(theta) ** 2
        s2 = np.sin(theta) ** 2
        w = v[0] * c2 + v[1] * s2
        q = v[0] ** 2 * c2 + v[1] ** 2 * s2
        u = np.where(q > 0, v[0] * v[1] * w / np.where(q > 0, q, 1.0), 0.0)
        g1 = g[:, None, None] ** 2
        g2 = g[None, :, None] ** 2
        t1 = g1 * w[None, None, :]
        t2 = g2 * u[None, None, :]
        return _blockwise_min(n_gain, n_gain * n_ang, lambda rows: (
            _grid_objective_scalar(lam, [t1[rows], t2], m_s, M0, kappa)))

    # M0 == 2: a single member (two groups never fit in m_r * m_s <= 4)
    if m_s == 1:
        n_gain = max(int(math.sqrt(R)), 64)
        n_ang = n_gain
        phi = np.linspace(0.0, math.pi, n_ang, endpoint=False)
        t = np.linspace(0.0, model.a_max, n_gain)[:, None] ** 2 * v[0]
        c2 = np.cos(phi) ** 2
        s2 = np.sin(phi) ** 2
        # T = t * [c; s][c; s]^T; uneven branch since m_s < M0
        det_num = ((lam[0] + 1.0 + t * c2) * (lam[1] + 1.0 + t * s2)
                   - (t * np.cos(phi) * np.sin(phi)) ** 2)
        det_den = (t * c2 + 0.5) * (t * s2 + 0.5) - (t * np.cos(phi) * np.sin(phi)) ** 2
        total = (np.log2((1.0 + lam[0]) * (1.0 + lam[1]))
                 + np.log2(det_num) - np.log2(det_den) + 4.0)
        return float(np.min(kappa * total / 2.0))

    # M0 == 2, m_s == 2: one full-rank member C = R(phi) diag(g) R(theta)^T,
    # so T = R(phi) [diag(g) R(theta)^T diag(v) R(theta) diag(g)] R(phi)^T.
    n_gain = max(int(round(R ** 0.25)), 12)
    n_ang = 2 * n_gain
    phi = np.linspace(0.0, math.pi, n_ang, endpoint=False)
    theta = np.linspace(0.0, math.pi, n_ang, endpoint=False)
    gax = np.linspace(0.0, model.a_max, n_gain)
    g1_axis = gax[:, None, None, None]
    g2 = gax[None, :, None, None]
    ct, st = np.cos(theta), np.sin(theta)
    ct = ct[None, None, :, None]
    st = st[None, None, :, None]
    cp, sp = np.cos(phi), np.sin(phi)
    cp = cp[None, None, None, :]
    sp = sp[None, None, None, :]
    M11 = v[0] * ct ** 2 + v[1] * st ** 2
    M22 = v[0] * st ** 2 + v[1] * ct ** 2
    M12 = (v[0] - v[1]) * ct * st
    log_signal = math.log2((1.0 + lam[0]) * (1.0 + lam[1]))

    def gain_block(rows):
        g1 = g1_axis[rows]
        K11 = g1 ** 2 * M11
        K22 = g2 ** 2 * M22
        K12 = g1 * g2 * M12
        T11 = cp ** 2 * K11 + sp ** 2 * K22 - 2.0 * cp * sp * K12
        T22 = sp ** 2 * K11 + cp ** 2 * K22 + 2.0 * cp * sp * K12
        T12 = cp * sp * (K11 - K22) + (cp ** 2 - sp ** 2) * K12
        det_t = (g1 * g2) ** 2 * v[0] * v[1]
        det_n = (1.0 + lam[0] + T11) * (1.0 + lam[1] + T22) - T12 ** 2
        with np.errstate(divide="ignore"):
            total = log_signal + np.log2(det_n) - np.log2(det_t)
        return kappa * total / 2.0

    return _blockwise_min(n_gain, n_gain * n_ang ** 2, gain_block)


# Grid points evaluated at once: each float64 temporary of a block stays
# within 512 KB, which keeps it in cache; a whole grid is up to 6 MB.
_BLOCK_POINTS = 1 << 16


def _blockwise_min(n_rows: int, row_points: int, block) -> float:
    """Minimum of a grid evaluated in blocks of consecutive first-axis rows.

    ``block(rows)`` returns the grid values for the slice ``rows``; each
    row holds ``row_points`` points.  The minimum of the blocks' minima
    is the grid minimum exactly, NaN included.
    """
    step = max(1, _BLOCK_POINTS // row_points)
    return float(np.min([np.min(block(slice(i, i + step)))
                         for i in range(0, n_rows, step)]))


def concavity_trials(seeds, per_seed: int):
    """Draw seeded (M, Psi) trials and yield them grouped by dimension.

    Each seed's generator draws its ``per_seed`` trials one after another,
    each as a dimension, a factor of M, a perturbation and a scale in that
    order, so a seed gives the same pairs in any ladder.  M is positive
    definite, and Psi is a random symmetric matrix scaled just inside the
    feasibility boundary (via the whitened spectrum of Psi against M), so
    the pairs exercise the inequality near its tight edge.

    Yields ``(order, M, Psi)`` per dimension: ``M`` and ``Psi`` are
    stacks of shape (k, n, n) and ``order`` gives each pair's position in
    the seed-by-seed trial sequence.
    """
    draws = {}  # dimension -> (positions, B factors, C factors, scales)
    position = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(per_seed):
            n = int(rng.integers(1, 5))     # dimensions 1..4
            positions, Bs, Cs, scales = draws.setdefault(n, ([], [], [], []))
            positions.append(position)
            Bs.append(rng.standard_normal((n, n)))
            Cs.append(rng.standard_normal((n, n)))
            scales.append(rng.uniform())
            position += 1
    for n, (positions, Bs, Cs, scales) in sorted(draws.items()):
        B = np.array(Bs)
        C = np.array(Cs)
        M = B @ _transpose(B) + 0.1 * np.eye(n)
        Psi = (C + _transpose(C)) / 2.0
        L = np.linalg.cholesky(M)
        W = _transpose(np.linalg.solve(L, _transpose(np.linalg.solve(L, Psi))))
        w = np.linalg.eigvalsh(_hermitize(W))
        t_max = 1.0 / np.maximum(np.max(np.abs(w), axis=-1), 1e-12)
        scale = 0.95 * t_max * np.array(scales)
        yield np.array(positions), M, Psi * scale[:, None, None]


def feasible_concavity_pairs(seed: int, count: int):
    """Yield seed's ``count`` (M, Psi) pairs of :func:`concavity_trials` in order."""
    pairs = [None] * count
    for order, M, Psi in concavity_trials((seed,), count):
        for i, M_i, Psi_i in zip(order, M, Psi):
            pairs[i] = (M_i, Psi_i)
    yield from pairs


def concavity_verdicts(M, Psi, tol: float = 1e-9) -> np.ndarray:
    """Check log2 det(M+Psi) + log2 det(M-Psi) <= 2 log2 det(M) + tol per pair.

    ``M`` and ``Psi`` are stacks of shape (k, n, n), real or complex; both
    are Hermitized first.  Returns k booleans.  A pair whose left side is
    -inf (M + Psi or M - Psi singular) holds trivially.  Raises
    :class:`InfeasiblePsi` when any M +/- Psi is not PSD (the premise
    fails, which says nothing about the inequality).
    """
    M = np.asarray(M)
    M = _hermitize(M if np.iscomplexobj(M) else M.astype(float))
    Psi = _hermitize(np.asarray(Psi, dtype=M.dtype))
    scale = np.maximum(np.linalg.norm(M, axis=(-2, -1)), 1e-300)
    w_plus = np.linalg.eigvalsh(M + Psi)
    w_minus = np.linalg.eigvalsh(M - Psi)
    for sign, w in (("+", w_plus), ("-", w_minus)):
        if np.any(w[:, 0] < -1e-10 * scale):
            raise InfeasiblePsi(f"M {sign} Psi is not PSD")
    lhs = logdet_eigvals(w_plus) + logdet_eigvals(w_minus)
    rhs = 2.0 * logdet_eigvals(np.linalg.eigvalsh(M))
    return (lhs == -math.inf) | (lhs <= rhs + tol)


def logdet_concavity_check(M, Psi, tol: float = 1e-9) -> bool:
    """Verify log2 det(M+Psi) + log2 det(M-Psi) <= 2 log2 det(M) + tol.

    One pair through :func:`concavity_verdicts`.  Raises
    :class:`InfeasiblePsi` when M +/- Psi is not PSD.
    """
    return bool(concavity_verdicts(np.asarray(M)[None], np.asarray(Psi)[None],
                                   tol)[0])


def _transpose(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack, -1, -2)


def _witness_blocks(model: ChannelModel, Q_x,
                    fam: AdversaryFamily) -> tuple[np.ndarray, np.ndarray]:
    """I + S and a stack of S + I + T_i, then T_i (T_N + I/2 for an uneven
    last group), in the family's signal basis; the stack is empty for a
    limit family."""
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
    if fam.is_limit:
        return eye + S, np.empty((0, M0, M0))
    Qs = np.asarray(model.Q_s)
    T = np.array([_hermitize(U @ (A @ Qs @ A.conj().T) @ U.conj().T)
                  for A in fam.members])
    denoms = T.copy()
    if model.m_s % M0 != 0:
        denoms[-1] += 0.5 * eye
    return eye + S, np.concatenate([S + eye + T, denoms])


def witness_value(model: ChannelModel, Q_x, fam: AdversaryFamily) -> float:
    """The bound objective of a built family from its matrix log-dets, in bits.

    kappa * [sum over the first N-1 interference groups of
    log2 det(S + I + T_i) - log2 det(T_i) + log2 det(I + S) + g] / (N + 1)

    with S the signal block and T_i the interference blocks, all in the
    signal-subspace basis.  The final group's term g divides through by
    det(T_N) when the group count divides the state dimension evenly and
    by det(T_N + I/2) plus a 2*M0 offset otherwise.  The members' log-dets
    take one stacked call (I + S stays apart: it is real beside complex
    T_i when a real H meets a complex Q_s).  A group term that the
    singular-matrix rule leaves non-finite makes the value +inf, as for a
    large cap, where ``adversary.objective`` stays finite.  Limit
    families (unbounded cap) have every full-rank block cancel exactly.
    """
    signal, blocks = _witness_blocks(model, Q_x, fam)
    M0 = fam.M0
    N = len(fam)
    uneven = model.m_s % M0 != 0
    kappa = model.field.kappa

    total = logdet_psd(signal)
    if fam.is_limit:
        # every full-rank limit block cancels exactly
        if uneven:
            r = len(fam.group_map[-1])
            total += logdet_psd(signal[r:, r:]) + (M0 - r) + 2.0 * M0
        return kappa * total / (N + 1)

    logdets = logdet_psd(blocks).tolist()
    for i in range(N):
        term = logdets[i] - logdets[N + i]
        if uneven and i == N - 1:
            term += 2.0 * M0
        if not math.isfinite(term):
            return math.inf
        total += term
    return kappa * total / (N + 1)


def witness_tolerance(model: ChannelModel, Q_x, fam: AdversaryFamily) -> float:
    """How far, in bits, ``witness_value`` may stray from the diagonal form.

    ``eigvalsh`` finds each eigenvalue of a block B to about eps ||B||, so
    log2 det B moves by about eps ||B|| / lambda_min(B) per eigenvalue.
    The tolerance is 64 eps sum_B ||B|| / lambda_min(B) over I + S and
    every member block, and +inf when a block's least eigenvalue is not
    positive.
    """
    signal, blocks = _witness_blocks(model, Q_x, fam)
    w = np.linalg.eigvalsh(np.concatenate([signal[None], blocks]))
    if np.any(w[:, 0] <= 0.0):
        return math.inf
    return 64.0 * float(np.finfo(float).eps) * float(np.sum(w[:, -1] / w[:, 0]))


def cross_check_rank1(model: ChannelModel) -> dict:
    """Compare the general evaluator against the rank-one closed form.

    Builds the beamforming covariance, runs the aligned inner
    minimization on it, and reports both values plus
    their absolute difference (zero when both are +inf, as for a cap whose
    square underflows).
    """
    if model.m_t != 1 and model.m_r != 1:
        raise NotRankOne("cross-check needs m_t = 1 or m_r = 1")
    H = np.asarray(model.H)
    if model.m_t == 1:
        Q_x = np.array([[model.P]], dtype=float)
    else:
        h = H.conj().T  # m_t x 1
        norm_sq = float(np.linalg.norm(h) ** 2)
        if norm_sq == 0.0:
            raise NotRankOne("zero channel has no beamforming direction")
        Q_x = _hermitize(model.P * (h @ h.conj().T) / norm_sq)
    _, general = inner_inf(model, Q_x)
    closed = rank_one_bound(rank1_inputs_from_model(model))
    return {"general": general, "closed_form": closed,
            "delta": 0.0 if general == closed else abs(general - closed)}


def fixed_equivalence_suite() -> list[dict]:
    """The frozen 20-case suite comparing aligned and brute-force minima.

    Each entry carries a validated model, an input covariance and the grid
    resolution for the brute-force pass.  Cases cover scalar channels over
    a wide cap/power range plus two-dimensional receive subspaces with one
    and two state dimensions.
    """
    cases = []

    def scalar(P, a, v, res=10_000):
        m = validate_model(1, 1, 1, [[1.0]], [[v]], a, P, "real")
        cases.append({"model": m, "Q_x": np.array([[P]]), "resolution": res})

    for P, a, v in [(31.6227766016838, 100.0, 1.0),
                    (31.6227766016838, 1.0, 1.0),
                    (31.6227766016838, 0.316227766, 1.0),
                    (10.0, 3.0, 4.0),
                    (1.0, 10.0, 0.5),
                    (100.0, 0.5, 2.0),
                    (0.5, 2.0, 1.0),
                    (5.0, 5.0, 5.0)]:
        scalar(P, a, v)

    def miso2(P, a, v, h, res=4096):
        m = validate_model(2, 1, 1, [list(h)], [[v]], a, P, "real")
        hvec = np.array(h, dtype=float)
        ns = float(hvec @ hvec)
        Q = P * np.outer(hvec, hvec) / ns
        cases.append({"model": m, "Q_x": Q, "resolution": res})

    miso2(10.0, 2.0, 1.0, (1.0, 0.0))
    miso2(20.0, 4.0, 2.0, (0.6, 0.8))

    def simo_ms2(P, a, v1, v2, res=4096):
        m = validate_model(1, 2, 2, [[1.0], [0.0]],
                           [[v1, 0.0], [0.0, v2]], a, P, "real")
        cases.append({"model": m, "Q_x": np.array([[P]]), "resolution": res})

    simo_ms2(10.0, 2.0, 4.0, 1.0)
    simo_ms2(31.6227766016838, 10.0, 2.0, 0.5)
    simo_ms2(5.0, 1.0, 1.0, 1.0)

    def scalar_ms2(P, a, v1, v2, res=4096):
        m = validate_model(1, 1, 2, [[1.0]],
                           [[v1, 0.0], [0.0, v2]], a, P, "real")
        cases.append({"model": m, "Q_x": np.array([[P]]), "resolution": res})

    scalar_ms2(10.0, 3.0, 4.0, 1.0)
    scalar_ms2(31.6227766016838, 100.0, 1.0, 1.0)

    def mimo22(P, a, v1, v2, d1, d2, res=200_000):
        m = validate_model(2, 2, 2, [[1.0, 0.0], [0.0, 1.0]],
                           [[v1, 0.0], [0.0, v2]], a, P, "real")
        cases.append({"model": m, "Q_x": np.diag([d1, d2]).astype(float),
                      "resolution": res})

    mimo22(10.0, 10.0, 1.0, 1.0, 5.0, 5.0)
    mimo22(10.0, 3.0, 4.0, 1.0, 7.0, 3.0)
    mimo22(4.0, 1.0, 2.0, 0.5, 2.0, 2.0)

    def rx2_ms1(P, a, v, d1, d2, res=40_000):
        m = validate_model(2, 2, 1, [[1.0, 0.0], [0.0, 1.0]], [[v]], a, P, "real")
        cases.append({"model": m, "Q_x": np.diag([d1, d2]).astype(float),
                      "resolution": res})

    rx2_ms1(10.0, 2.0, 1.0, 6.0, 4.0)
    rx2_ms1(8.0, 5.0, 3.0, 4.0, 4.0)

    assert len(cases) == 20
    return cases


def run_equivalence_suite() -> list[dict]:
    """Run the fixed suite: one record per case, ``ok`` for a gap <= 1e-4
    bits to the grid and ``witness_ok`` for a witness value within
    ``witness_tolerance`` of the aligned minimum."""
    records = []
    for i, case in enumerate(fixed_equivalence_suite()):
        model, Q_x = case["model"], case["Q_x"]
        fam, aligned = inner_inf(model, Q_x)
        brute = brute_force_inner_inf(model, Q_x, case["resolution"])
        witness = witness_value(model, Q_x, fam)
        witness_gap = 0.0 if witness == aligned else abs(witness - aligned)
        records.append({
            "case": i,
            "aligned": aligned,
            "brute_force": brute,
            "gap": abs(aligned - brute),
            "ok": bool(abs(aligned - brute) <= 1e-4),
            "witness": witness,
            "witness_gap": witness_gap,
            "witness_ok": witness_gap <= witness_tolerance(model, Q_x, fam),
        })
    return records
