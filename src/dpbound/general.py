"""Max-min search for the general capacity upper bound.

For a fixed input covariance the bound averages log-det terms over an
adversary family.  This module holds the search and its one kernel,
``_fast_value``, the aligned objective in diagonal scalar arithmetic.
The inner minimization ranks the candidate partitions of
``adversary.enumerate_partitions`` (which contain a minimiser) by that
kernel, so it is exact over the aligned families; the reported value is
the witness evaluator ``adversary.objective`` on the family built for
the winner, and since every aligned family is feasible it is a sound
surrogate for the true infimum.  The outer maximization over input
covariances runs per fixed signal rank via a factor parameterization,
sidestepping the rank discontinuity of the objective, and is labeled
honestly: closed-form rank-one paths are exact, multistart ascent is a
heuristic lower estimate of the supremum (and therefore the reported
number may undershoot the true bound; it never stops being an upper
bound for the rates the search visited witnesses for).
"""

from __future__ import annotations

import enum
import math
from math import log2
from dataclasses import dataclass, field as dc_field

import numpy as np

from .adversary import GroupPartition, build_family, enumerate_partitions, objective
from .baselines import water_filling
from .channel import (RANK_TOL, AdversaryFamily, ChannelModel, _hermitize,
                      _json_safe, _matrix_to_json)
from .errors import NegativeParameter, RankZeroSignal
from .rank1 import rank1_inputs_from_model, rank_one_bound
from .spectral import signal_subspace, whiten_state


class Soundness(enum.Enum):
    EXACT = "Exact"
    CERTIFIED_RELAXATION = "CertifiedRelaxation"
    HEURISTIC_SUP = "HeuristicSup"


@dataclass(frozen=True)
class SearchConfig:
    """Multistart settings for the outer maximization.

    Restart r at rank target t draws from the fixed stream
    ``default_rng([0, t, r])``, so equal settings give equal bounds.
    """

    restarts: int = 16
    max_iters: int = 500
    ranks: tuple | range | None = None     # signal ranks to try; None = all


@dataclass(frozen=True)
class BoundReport:
    """A bound value with provenance.

    ``raw_value_bits`` is the max-min objective before capping by the
    interference-free capacity; ``value_bits`` is the effective bound.
    ``soundness`` is ``Exact`` only on closed-form rank-one paths.
    """

    value_bits: float
    raw_value_bits: float
    M0: int
    kappa: float
    soundness: Soundness
    diagnostics: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        """The report as strict JSON data (see ``channel._json_safe``)."""
        return _json_safe({
            "value_bits": self.value_bits,
            "raw_value_bits": self.raw_value_bits,
            "M0": self.M0,
            "kappa": self.kappa,
            "soundness": self.soundness.value,
            "diagnostics": self.diagnostics,
        })


def _fast_value(lam, v, a_max: float, m_s: int, part: GroupPartition,
                kappa: float) -> float:
    """Closed-form objective for an aligned family, diagonal arithmetic only.

    ``lam`` is the descending signal spectrum, ``v`` the descending state
    spectrum, both as sequences of Python floats; group coordinate k
    contributes interference a_max^2 v_k on signal row r (rows assigned in
    order within each group).  Terms are accumulated left to right in
    scalar floats: the inputs hold a handful of entries, where per-call
    array dispatch would cost more than the arithmetic.  A zero
    interference power in a full group (a cap whose square underflows)
    makes its log-det ratio, and so the value, +inf.

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


def _best_partition(parts, lam, v, a_max: float, m_s: int,
                    kappa: float) -> tuple[GroupPartition, float]:
    """The partition of least ``_fast_value`` among ``parts``, and that value.

    The first of ``parts`` is returned when every value is +inf.
    """
    best_part, best_val = parts[0], math.inf
    for part in parts:
        val = _fast_value(lam, v, a_max, m_s, part, kappa)
        if val < best_val:
            best_part, best_val = part, val
    return best_part, best_val


def inner_inf(model: ChannelModel, Q_x) -> tuple[AdversaryFamily, float]:
    """Minimize the objective over aligned families at the full cap.

    The scalar kernel picks the best candidate partition, which attains the
    minimum over aligned families (see ``adversary``); the family for that
    partition is built and validated once, and the matrix ``objective`` on
    it is the returned value.  Any feasible family upper-bounds the true
    infimum, so the value is always a sound surrogate (never below the true
    inf).  With a zero cap the constructed denominators vanish; the
    sentinel +inf is returned and callers fall back to the
    interference-free capacity.
    """
    sub = signal_subspace(model.H, Q_x)
    if sub.M0 == 0:
        raise RankZeroSignal("H Q_x H^dagger is numerically zero")
    white = whiten_state(model.Q_s)
    parts = enumerate_partitions(model.m_s, sub.M0)
    if model.a_max == 0.0:
        return build_family(model, sub, white, parts[0]), math.inf
    part, _ = _best_partition(parts, sub.spectrum.tolist(),
                              white.eigvals.tolist(), model.a_max,
                              model.m_s, model.field.kappa)
    fam = build_family(model, sub, white, part)
    return fam, objective(model, Q_x, fam)


def _spectrum_of(H: np.ndarray, F: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(H @ F, compute_uv=False)
    lam = s * s
    if lam.size == 0 or lam[0] <= 0.0:
        return lam[:0]
    return lam[lam > RANK_TOL * lam[0]]


class _AscentProblem:
    """Inner-inf value as a function of the covariance factor F."""

    def __init__(self, model: ChannelModel):
        self.model = model
        self.H = np.asarray(model.H)
        self.v = np.asarray(whiten_state(model.Q_s).eigvals).tolist()
        self.kappa = model.field.kappa
        self._parts: dict[int, list] = {}

    def parts_for(self, M0: int) -> list:
        if M0 not in self._parts:
            self._parts[M0] = enumerate_partitions(self.model.m_s, M0)
        return self._parts[M0]

    def value(self, F: np.ndarray) -> float:
        lam = _spectrum_of(self.H, F).tolist()
        if not lam:
            return 0.0
        return _best_partition(self.parts_for(len(lam)), lam, self.v,
                               self.model.a_max, self.model.m_s, self.kappa)[1]


def _coordinate_ascent(problem: _AscentProblem, F0: np.ndarray, P: float,
                       max_iters: int) -> tuple[np.ndarray, float, int, bool]:
    """Maximize over factors on the Frobenius sphere of radius sqrt(P)."""
    scale = math.sqrt(P)

    def renorm(F):
        n = float(np.linalg.norm(F))
        return F * (scale / n) if n > 0 else F

    F = renorm(F0.copy())
    best = problem.value(F)
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
                val = problem.value(cand)
                if val > best:
                    improved += val - best
                    F, best = cand, val
        if improved <= 1e-8 * (abs(best) + 1e-12):
            step *= 0.5
            if step < 1e-9 * scale:
                break
    return F, best, iters, exhausted


def outer_sup(model: ChannelModel, M0_target: int,
              search: SearchConfig | None = None) -> BoundReport:
    """Best bound found over covariances of factor rank ``M0_target``.

    Covariances are parameterized as F F^dagger with the trace saturated at
    P (the objective never decreases when the signal block grows, so full
    power is optimal).  Single-antenna channels are delegated to the exact
    closed form; everything else is labeled as a heuristic supremum.  The
    report's ``M0`` is the rank of the witness, ``signal_subspace`` of the
    best covariance found, whose family gives the reported value; it can
    fall below ``diagnostics["target_rank"]``.  ``diagnostics["inner_method"]``
    is ``"exact"``: at every evaluation, and for the reported value, the
    inner minimum is taken over all aligned families, through the
    candidate partitions of ``adversary.enumerate_partitions``.  It is null
    if the search ends at rank 0.
    """
    search = search or SearchConfig()
    m_star = min(model.m_t, model.m_r)
    if not 1 <= M0_target <= m_star:
        raise NegativeParameter(
            f"M0_target must lie in [1, {m_star}], got {M0_target}")
    if_cap, Q_wf = water_filling(model)

    if m_star == 1:
        return _rank_one_report(model, if_cap)
    if model.a_max == 0.0:
        return BoundReport(value_bits=if_cap, raw_value_bits=math.inf,
                           M0=M0_target, kappa=model.field.kappa,
                           soundness=Soundness.CERTIFIED_RELAXATION,
                           diagnostics={"mode": "interference_free_fallback",
                                        "target_rank": M0_target})
    if model.P == 0.0 or not np.any(np.asarray(model.H)):
        return BoundReport(value_bits=0.0, raw_value_bits=0.0, M0=0,
                           kappa=model.field.kappa,
                           soundness=Soundness.CERTIFIED_RELAXATION,
                           diagnostics={"mode": "dead_channel",
                                        "target_rank": M0_target})

    problem = _AscentProblem(model)
    H = np.asarray(model.H)
    P = model.P
    dtype = complex if np.iscomplexobj(H) else float

    seeds = []
    _, _, Vh = np.linalg.svd(H)
    F_svd = Vh.conj().T[:, :M0_target].astype(dtype) * math.sqrt(P / M0_target)
    seeds.append(F_svd)
    w, V = np.linalg.eigh(Q_wf)
    active = w > 1e-12 * max(float(w[-1]), 1e-300)
    if int(np.count_nonzero(active)) == M0_target:
        seeds.append((V[:, active] * np.sqrt(w[active])).astype(dtype))
    rng_count = max(search.restarts - len(seeds), 0)
    for r in range(rng_count):
        rng = np.random.default_rng([0, M0_target, r])
        F = rng.standard_normal((model.m_t, M0_target))
        if dtype is complex:
            F = F + 1j * rng.standard_normal((model.m_t, M0_target))
        seeds.append(F.astype(dtype))

    best_F, best_val, total_iters, exhausted = None, -math.inf, 0, False
    for F0 in seeds:
        F, val, iters, flag = _coordinate_ascent(problem, F0, P, search.max_iters)
        total_iters += iters
        exhausted = exhausted or flag
        if val > best_val:
            best_F, best_val = F, val

    Q_best = _hermitize(best_F @ best_F.conj().T)
    try:
        fam, raw = inner_inf(model, Q_best)
    except RankZeroSignal:
        raw, M0, group_map, inner_method = 0.0, 0, (), None
    else:
        M0, group_map, inner_method = fam.M0, fam.group_map, "exact"
    diagnostics = {
        "mode": "multistart_ascent",
        "target_rank": M0_target,
        "inner_method": inner_method,
        "restarts": len(seeds),
        "iterations": total_iters,
        "budget_exhausted": exhausted,
        "best_Q_x": _matrix_to_json(Q_best),
        "partition": [list(g) for g in group_map],
    }
    return BoundReport(value_bits=min(raw, if_cap), raw_value_bits=raw,
                       M0=M0, kappa=model.field.kappa,
                       soundness=Soundness.HEURISTIC_SUP,
                       diagnostics=diagnostics)


def _rank_one_report(model: ChannelModel, if_cap: float) -> BoundReport:
    kappa = model.field.kappa
    if model.a_max == 0.0:
        return BoundReport(value_bits=if_cap, raw_value_bits=math.inf,
                           M0=1, kappa=kappa, soundness=Soundness.EXACT,
                           diagnostics={"mode": "interference_free_fallback"})
    inputs = rank1_inputs_from_model(model)
    raw = rank_one_bound(inputs)
    value = min(raw, if_cap)
    m0 = 0 if inputs.h_norm_sq_P == 0.0 else 1
    return BoundReport(value_bits=value, raw_value_bits=raw, M0=m0,
                       kappa=kappa, soundness=Soundness.EXACT,
                       diagnostics={"mode": "closed_form",
                                    "h_norm_sq_P": inputs.h_norm_sq_P})


def capacity_upper_bound(model: ChannelModel,
                         search: SearchConfig | None = None) -> BoundReport:
    """Best bound over all requested signal ranks, capped by the
    interference-free capacity.

    ``search.ranks`` of None tries every rank; an empty sequence is
    rejected.  The ranks are checked in order without being copied, so a
    long ``range`` fails at its first rank past min(m_t, m_r).
    """
    search = search or SearchConfig()
    m_star = min(model.m_t, model.m_r)
    targets = range(1, m_star + 1) if search.ranks is None else search.ranks
    if not targets:
        raise NegativeParameter("no signal rank to try: ranks is empty")
    for t in targets:
        if not 1 <= t <= m_star:
            raise NegativeParameter(f"rank target {t} outside [1, {m_star}]")

    if m_star == 1 or model.a_max == 0.0 or model.P == 0.0 \
            or not np.any(np.asarray(model.H)):
        return outer_sup(model, targets[0], search)

    best = None
    per_rank = {}
    for t in targets:
        rep = outer_sup(model, t, search)
        per_rank[str(t)] = rep.raw_value_bits
        if best is None or rep.raw_value_bits > best.raw_value_bits:
            best = rep
    diagnostics = dict(best.diagnostics)
    diagnostics["per_rank_raw"] = per_rank
    return BoundReport(value_bits=best.value_bits,
                       raw_value_bits=best.raw_value_bits, M0=best.M0,
                       kappa=best.kappa, soundness=best.soundness,
                       diagnostics=diagnostics)
