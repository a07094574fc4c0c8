"""Slow reference implementations that the library's oracles are tested against.

``dense_brute_force_inner_inf`` builds the two m_s = 2 brute-force grids
and the M0 = 2, m_s = 1 grid in one piece and evaluates every point, with
each determinant written entrywise.  The library minimises the same grids
along one axis in closed form (over g1 for M0 = 1; over the rotation phi
for M0 = 2, through the sinusoid det(D + T) makes in 2 phi), and the
tests require the two to agree: bit for bit for M0 = 1, to rounding for
M0 = 2.  The entrywise determinants lose about eps a_max^2 v of relative
precision, so at large caps they read low or NaN, where the library's
closed forms stay finite.  ``scalar_concavity_pairs`` and
``scalar_concavity_check`` run the log-det concavity trials one matrix
at a time; the library runs the same trials on stacked arrays and must
agree with them.
``numpy_fast_value`` is the aligned-family objective written as numpy
reductions, which the library's scalar kernel must reproduce.
``exhaustive_partitions`` lists every filling of the group shape, the
space whose minimum the library's candidate partitions must attain, and
``exhaustive_inner_inf`` is the matrix objective minimised over all of
them.  ``contiguous_fallback`` is the two-partition subset the library
once used past its partition budget.  ``matrix_tin_worst_case`` builds
the contiguous family and evaluates every member's treat-interference-as-
noise log-det through a Cholesky factor of I + N, the matrix computation
that the library's closed-form ``tin_worst_case`` must reproduce.
``model_path_sweep`` evaluates an INR sweep point by point through a
validated model, water-filling and the general ``tin_worst_case``: the
rows that the library's closed-form scalar sweep must reproduce.
``reference_sweep_json`` is ``sweep.json`` as one indented ``json.dumps``
of a ``_json_safe`` copy of the whole result, the text that the library's
row-by-row writer must reproduce byte for byte.
``single_logdet_psd`` and ``logdet_ratio`` take one log-det per
``eigvalsh`` call, each with its own copy of the singular-matrix rule,
and ``matrix_objective`` evaluates a family with them, one ratio per
member: the library's stacked ``logdet_psd`` and witness evaluator
``oracle.witness_value`` must reproduce them bit for bit.
``loop_dof_upper_bound`` evaluates the dimension-counting DOF cap at
every signal rank.
``sequential_coordinate_ascent`` is the outer factor ascent scoring one
step at a time, with one ``svd`` and one ``np.linalg.norm`` per
candidate: the library scores each coordinate's steps as one stack and
must return the same factor, value, iteration count and flag bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from dpbound.adversary import GroupPartition, build_family, required_group_sizes
from dpbound.baselines import interference_free_capacity, tin_worst_case, water_filling
from dpbound.channel import (RANK_TOL, AdversaryFamily, ChannelModel, _hermitize,
                             _json_safe, inr_to_amax, validate_model)
from dpbound.dof import dof_fixed_rank
from dpbound.errors import (DirtyPaperError, InfeasiblePsi, NotSquare, PartitionMismatch,
                            RankZeroSignal)
from dpbound.oracle import witness_value
from dpbound.rank1 import Rank1Inputs, prelog_reference, rank_one_bound
from dpbound.spectral import signal_subspace, whiten_state


def _grid_objective_scalar(lam, t_arrays, kappa):
    """The M0 = 1 objective over grids of interference powers, one
    broadcastable array per group; with one signal row every group is full."""
    s = lam[0]
    total = np.log2(1.0 + s)
    for t in t_arrays:
        with np.errstate(divide="ignore"):
            total = total + np.log2(s + 1.0 + t) - np.log2(t)
    return kappa * total / (len(t_arrays) + 1)


def dense_brute_force_inner_inf(model, Q_x, grid_resolution: int) -> float:
    """Grid minimum of the objective for m_s = 2, and for M0 = 2 with
    m_s = 1, each grid built as one array and every point evaluated."""
    sub = signal_subspace(model.H, Q_x)
    M0 = sub.M0
    m_s = model.m_s
    assert (m_s, M0) in ((2, 1), (2, 2), (1, 2)) and 0.0 < model.a_max < math.inf
    kappa = model.field.kappa
    lam = np.asarray(sub.spectrum)
    v = np.asarray(whiten_state(model.Q_s).eigvals)
    R = int(grid_resolution)

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

    if M0 == 1:
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
        vals = _grid_objective_scalar(lam, [t1, t2], kappa)
        return float(np.min(vals))

    n_gain = max(int(round(R ** 0.25)), 12)
    n_ang = 2 * n_gain
    phi = np.linspace(0.0, math.pi, n_ang, endpoint=False)
    theta = np.linspace(0.0, math.pi, n_ang, endpoint=False)
    gax = np.linspace(0.0, model.a_max, n_gain)
    g1 = gax[:, None, None, None]
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
    K11 = g1 ** 2 * M11
    K22 = g2 ** 2 * M22
    K12 = g1 * g2 * M12
    T11 = cp ** 2 * K11 + sp ** 2 * K22 - 2.0 * cp * sp * K12
    T22 = sp ** 2 * K11 + cp ** 2 * K22 + 2.0 * cp * sp * K12
    T12 = cp * sp * (K11 - K22) + (cp ** 2 - sp ** 2) * K12
    det_t = (g1 * g2) ** 2 * v[0] * v[1]
    det_n = (1.0 + lam[0] + T11) * (1.0 + lam[1] + T22) - T12 ** 2
    with np.errstate(divide="ignore"):
        total = (math.log2((1.0 + lam[0]) * (1.0 + lam[1]))
                 + np.log2(det_n) - np.log2(np.broadcast_to(
                     det_t, det_n.shape)))
    return float(np.min(kappa * total / 2.0))


def scalar_concavity_pairs(seed: int, count: int, max_dim: int = 4):
    """The seeded (M, Psi) stream, one trial and one LAPACK call at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_dim + 1))
        B = rng.standard_normal((n, n))
        M = B @ B.T + 0.1 * np.eye(n)
        C = rng.standard_normal((n, n))
        Psi = (C + C.T) / 2.0
        L = np.linalg.cholesky(M)
        W = np.linalg.solve(L, np.linalg.solve(L, Psi).T).T
        w = np.linalg.eigvalsh(_hermitize(W))
        t_max = 1.0 / max(float(np.max(np.abs(w))), 1e-12)
        yield M, Psi * (0.95 * t_max * float(rng.uniform()))


def scalar_concavity_check(M, Psi, tol: float = 1e-9) -> bool:
    """log2 det(M+Psi) + log2 det(M-Psi) <= 2 log2 det(M) + tol, one pair."""
    M = _hermitize(np.asarray(M, dtype=float) if not np.iscomplexobj(M)
                   else np.asarray(M))
    Psi = _hermitize(np.asarray(Psi, dtype=M.dtype))
    scale = max(float(np.linalg.norm(M)), 1e-300)
    for sign in (1.0, -1.0):
        w = np.linalg.eigvalsh(M + sign * Psi)
        if float(w[0]) < -1e-10 * scale:
            raise InfeasiblePsi(f"M {'+' if sign > 0 else '-'} Psi is not PSD")
    lhs = single_logdet_psd(M + Psi) + single_logdet_psd(M - Psi)
    rhs = 2.0 * single_logdet_psd(M)
    if math.isinf(lhs) and lhs < 0:
        return True
    return lhs <= rhs + tol


def numpy_fast_value(lam, v, a_max: float, m_s: int, part, kappa: float) -> float:
    """Closed-form aligned-family objective with numpy reductions per group."""
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=float)
    M0 = len(lam)
    N = len(part.groups)
    divisible = (m_s % M0 == 0)
    total = float(np.sum(np.log2(1.0 + lam)))
    if math.isinf(a_max):
        if not divisible:
            r = len(part.groups[-1])
            total += float(np.sum(np.log2(1.0 + lam[r:]))) + (M0 - r) + 2.0 * M0
        return kappa * total / (N + 1)
    if a_max == 0.0:
        return math.inf if (N > 1 or divisible) else kappa * (
            total + float(np.sum(np.log2(1.0 + lam))) + M0 + 2.0 * M0) / 2.0
    a2 = a_max * a_max
    for gi, group in enumerate(part.groups):
        t = a2 * v[list(group)]
        last = gi == N - 1
        if last and not divisible:
            r = len(group)
            term = (float(np.sum(np.log2(lam[:r] + 1.0 + t)))
                    + float(np.sum(np.log2(lam[r:] + 1.0)))
                    - float(np.sum(np.log2(t + 0.5)))
                    + (M0 - r) + 2.0 * M0)
        else:
            term = float(np.sum(np.log2(lam[:len(group)] + 1.0 + t)
                                - np.log2(t)))
        total += term
    return kappa * total / (N + 1)


def exhaustive_partitions(m_s: int, M0: int) -> list:
    """Every ordered filling of the required group shape (a multinomial count).

    Groups are order-sensitive (the last one is the remainder group) and
    unordered internally.
    """
    sizes = required_group_sizes(m_s, M0)
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


def contiguous_fallback(m_s: int, M0: int) -> list:
    """Contiguous blocks of the descending spectrum, forward and backward."""
    sizes = required_group_sizes(m_s, M0)

    def blocks(order):
        groups, pos = [], 0
        for size in sizes:
            groups.append(tuple(sorted(order[pos:pos + size])))
            pos += size
        return GroupPartition(groups=tuple(groups))

    forward = blocks(list(range(m_s)))
    backward = blocks(list(reversed(range(m_s))))
    return [forward] if backward.groups == forward.groups else [forward, backward]


def exhaustive_inner_inf(model, Q_x, parts=None) -> float:
    """Matrix objective minimised over the families of ``parts``.

    ``parts`` defaults to every filling of the group shape.
    """
    sub = signal_subspace(model.H, Q_x)
    if parts is None:
        parts = exhaustive_partitions(model.m_s, sub.M0)
    return min(witness_value(model, Q_x, build_family(model, sub, part))
               for part in parts)


def matrix_tin_worst_case(model) -> float:
    """Worst-case TIN rate from the built family, one Cholesky per member.

    The zero and unbounded caps take their own branches: the log-det of
    I + G, and the capacity of the signal rows a group cannot reach.
    """
    _, Q_wf = water_filling(model)
    G = _hermitize(np.asarray(model.H) @ Q_wf @ np.asarray(model.H).conj().T)
    sub = signal_subspace(model.H, Q_wf)
    if sub.M0 == 0:
        return 0.0
    kappa = model.field.kappa
    if model.a_max == 0.0:
        return kappa * float(logdet_ratio(np.eye(model.m_r) + G, np.eye(model.m_r)))

    part = contiguous_fallback(model.m_s, sub.M0)[0]

    if math.isinf(model.a_max):
        lam = np.asarray(sub.spectrum)
        best = math.inf
        for group in part.groups:
            occupied = len(group)
            rate = kappa * float(np.sum(np.log2(1.0 + lam[occupied:])))
            best = min(best, rate)
        return best

    fam = build_family(model, sub, part)
    eye = np.eye(model.m_r)
    best = math.inf
    for A in fam.members:
        Nmat = _hermitize(A @ np.asarray(model.Q_s) @ A.conj().T)
        # det(I + (I+N)^{-1} G) via the noise-whitened signal; stable even
        # when the interference covariance is enormously ill-conditioned
        L = np.linalg.cholesky(eye + Nmat)
        W = np.linalg.solve(L, np.linalg.solve(L, G).conj().T).conj().T
        rate = kappa * float(single_logdet_psd(eye + _hermitize(W)))
        best = min(best, rate)
    return best


def model_path_sweep(spec) -> tuple:
    """Rows of ``run_sweep(spec)``, each point through a validated 1x1 model."""
    P = 10.0 ** (spec.snr_db / 10.0)
    kappa = spec.field.kappa
    rows = []
    for inr_db in spec.grid():
        a_max = inr_to_amax(inr_db)
        model = validate_model(1, 1, 1, [[1.0]], [[1.0]], a_max, P, spec.field)
        int_free = interference_free_capacity(model)
        inputs = Rank1Inputs(h_norm_sq_P=P, v=(1.0,), a_max=a_max, kappa=kappa)
        raw = rank_one_bound(inputs)
        rows.append({"inr_db": inr_db, "bound": raw, "bound_eff": min(raw, int_free),
                     "tin": tin_worst_case(model), "int_free": int_free,
                     "half_if": prelog_reference(inputs)})
    return tuple(rows)


def reference_sweep_json(result) -> str:
    """The text of ``sweep.json`` for a ``SweepResult``."""
    doc = _json_safe({"metadata": result.metadata, "rows": result.rows})
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class BothSingular(DirtyPaperError):
    """0/0 log-determinant ratio; the caller must decide what it means."""


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


def single_logdet_psd(M) -> float:
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


def matrix_objective(model: ChannelModel, Q_x, fam: AdversaryFamily) -> float:
    """Evaluate the bound objective for one covariance and family, in bits.

    kappa * [sum over the first N-1 interference groups of
    log2 det(S + I + T_i) - log2 det(T_i) + log2 det(I + S) + g] / (N + 1)

    with S the signal block and T_i the interference blocks, all in the
    signal-subspace basis.  The final group's term g divides through by
    det(T_N) when the group count divides the state dimension evenly and
    by det(T_N + I/2) plus a 2*M0 offset otherwise.  Limit families
    (unbounded cap) are evaluated analytically: full-rank interference
    blocks contribute exactly zero.
    """
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
    divisible = (model.m_s % M0 == 0)
    kappa = model.field.kappa

    total = single_logdet_psd(eye + S)
    if fam.is_limit:
        # every full-rank limit block cancels exactly
        if not divisible:
            r = len(fam.group_map[-1])
            tail = (eye + S)[r:, r:]
            total += single_logdet_psd(tail) + (M0 - r) + 2.0 * M0
    else:
        Qs = np.asarray(model.Q_s)
        for i, A in enumerate(fam.members):
            T = _hermitize(U @ (A @ Qs @ A.conj().T) @ U.conj().T)
            last = i == N - 1
            if last and not divisible:
                term = logdet_ratio(S + eye + T, T + 0.5 * eye) + 2.0 * M0
            else:
                term = logdet_ratio(S + eye + T, T)
            if math.isinf(term):
                return math.inf
            total += term
    return kappa * total / (N + 1)


def loop_dof_upper_bound(m_star: int, m_s: int) -> float:
    """The dimension-counting DOF cap, maximised over every rank 1..m_star."""
    return max(dof_fixed_rank(m0, m_s) for m0 in range(1, m_star + 1))


def sequential_coordinate_ascent(value, F0: np.ndarray, P: float,
                                 max_iters: int) -> tuple[np.ndarray, float, int, bool]:
    """Maximize ``value(F)`` over factors on the Frobenius sphere of radius
    sqrt(P), one candidate step at a time."""
    scale = math.sqrt(P)

    def renorm(F):
        n = float(np.linalg.norm(F))
        return F * (scale / n) if n > 0 else F

    F = renorm(F0.copy())
    best = value(F)
    step = 0.25 * scale
    is_complex = np.iscomplexobj(F)
    iters = 0
    exhausted = False
    while True:
        if iters >= max_iters:
            exhausted = True
            break
        iters += 1
        improved = 0.0
        for idx in np.ndindex(F.shape):
            deltas = (step, -step, 1j * step, -1j * step) if is_complex \
                else (step, -step)
            for d in deltas:
                cand = F.copy()
                cand[idx] += d
                cand = renorm(cand)
                val = value(cand)
                if val > best:
                    improved += val - best
                    F, best = cand, val
        if improved <= 1e-8 * (abs(best) + 1e-12):
            step *= 0.5
            if step < 1e-9 * scale:
                break
    return F, best, iters, exhausted
