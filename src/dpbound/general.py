"""Max-min search for the general capacity upper bound.

For a fixed input covariance the bound averages log-det terms over an
adversary family.  The inner minimization ranks the candidate partitions
of ``adversary.enumerate_partitions`` (which contain a minimiser) by
``adversary.objective``, the aligned objective in diagonal form, so it is
exact over the aligned families.  The reported value is that same
objective for the winning partition, whose family is built and validated
as the witness; since every aligned family is feasible it is a sound
surrogate for the true infimum.

Three cases need no search and are decided once, in this order, as
``Exact``: a dead channel (no interference-free capacity) has bound 0, a
zero cap leaves the interference-free capacity, and one antenna takes the
rank-one closed form.  Otherwise a multistart factor ascent per signal
rank, sidestepping the rank discontinuity of the objective, estimates the
supremum over input covariances from below, labeled ``HeuristicSup``: the
number may undershoot the true bound, but never stops being an upper
bound for the rates the search visited witnesses for.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .adversary import GroupPartition, build_family, enumerate_partitions, objective
from .baselines import water_filling
from .channel import (AdversaryFamily, ChannelModel, _hermitize, _json_safe,
                      _matrix_to_json)
from .errors import NegativeParameter, RankZeroSignal
from .rank1 import rank1_inputs_from_model, rank_one_bound
from .spectral import (SignalSubspace, factor_subspace, psd_factor,
                       signal_spectrum, signal_subspace)


class Soundness(enum.Enum):
    EXACT = "Exact"
    HEURISTIC_SUP = "HeuristicSup"


@dataclass(frozen=True)
class SearchConfig:
    """Multistart settings for the outer maximization.

    Restart r at rank target t draws from the fixed stream
    ``default_rng([0, t, r])``, so equal settings give equal bounds.
    Settings that are not nonnegative integers, and ``ranks`` that are not
    None or a nonempty range or tuple of ranks (see ``_check_rank``; a
    range is checked at its ends), raise ``NegativeParameter``.
    """

    restarts: int = 16
    max_iters: int = 500
    ranks: tuple | range | None = None     # signal ranks to try; None = all

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise NegativeParameter(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise NegativeParameter(f"{name} must be nonnegative, got {value}")
        ranks = self.ranks
        if ranks is not None:
            if not (isinstance(ranks, (range, tuple)) and ranks):
                raise NegativeParameter(f"ranks must be None or a nonempty range or "
                                        f"tuple of signal ranks, got {ranks!r}")
            for t in (ranks[0], ranks[-1]) if isinstance(ranks, range) else ranks:
                _check_rank(t)


def _check_rank(t) -> None:
    """Raise ``NegativeParameter`` unless ``t`` is a positive integer (not a bool)."""
    if isinstance(t, bool) or not isinstance(t, numbers.Integral) or t < 1:
        raise NegativeParameter(f"a signal rank must be a positive integer, got {t!r}")


@dataclass(frozen=True)
class BoundReport:
    """A bound value with provenance.

    ``raw_value_bits`` is the max-min objective before capping by the
    interference-free capacity; ``value_bits`` is the effective bound.
    ``soundness`` is ``Exact`` exactly when no search ran.
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


def _best_partition(parts, lam, v, a_max: float, m_s: int,
                    kappa: float) -> tuple[GroupPartition, float]:
    """The partition of least ``objective`` among ``parts``, and that value.

    The first of ``parts`` is returned when every value is +inf.
    """
    best_part, best_val = parts[0], math.inf
    for part in parts:
        val = objective(lam, v, a_max, m_s, part, kappa)
        if val < best_val:
            best_part, best_val = part, val
    return best_part, best_val


def _witness(model: ChannelModel,
             sub: SignalSubspace) -> tuple[AdversaryFamily, float]:
    """The aligned family of least ``objective`` on ``sub``, and that value."""
    if sub.M0 == 0:
        raise RankZeroSignal("H Q_x H^dagger is numerically zero")
    part, value = _best_partition(enumerate_partitions(model.m_s, sub.M0),
                                  sub.spectrum.tolist(), model.white.eigvals.tolist(),
                                  model.a_max, model.m_s, model.field.kappa)
    return build_family(model, sub, part), value


def inner_inf(model: ChannelModel, Q_x) -> tuple[AdversaryFamily, float]:
    """Minimize the objective over aligned families at the full cap.

    Returns the best candidate partition's family, built and validated
    once as the witness, and its ``objective``, which is exact over aligned
    families (see ``adversary``) and, as any feasible family's value, never
    below the true infimum.  A zero cap makes the value +inf unless
    m_s < M0 (no full group); callers fall back to int-free.
    """
    return _witness(model, signal_subspace(model.H, Q_x))


def _coordinate_ascent(value, F0: np.ndarray, P: float,
                       max_iters: int) -> tuple[np.ndarray, float, int, bool]:
    """Maximize ``value(F)`` over factors on the Frobenius sphere of radius
    sqrt(P)."""
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


def _no_search_report(model: ChannelModel, M0_target: int,
                      if_cap: float) -> BoundReport | None:
    """The report of a case that needs no search, else None.

    In order: zero interference-free capacity ``if_cap`` (P = 0, H = 0 or
    an underflow) is a dead channel; a zero cap leaves ``if_cap`` at rank
    ``M0_target``; a single antenna takes the rank-one closed form.
    """
    kappa = model.field.kappa
    if if_cap == 0.0:
        return BoundReport(0.0, 0.0, 0, kappa, Soundness.EXACT,
                           {"mode": "dead_channel"})
    if model.a_max == 0.0:
        return BoundReport(if_cap, math.inf, M0_target, kappa, Soundness.EXACT,
                           {"mode": "interference_free_fallback"})
    if min(model.m_t, model.m_r) == 1:
        inputs = rank1_inputs_from_model(model)
        raw = rank_one_bound(inputs)
        return BoundReport(min(raw, if_cap), raw, 1, kappa, Soundness.EXACT,
                           {"mode": "closed_form",
                            "h_norm_sq_P": inputs.h_norm_sq_P})
    return None


def outer_sup(model: ChannelModel, M0_target: int,
              search: SearchConfig | None = None) -> BoundReport:
    """Best bound found over covariances of factor rank ``M0_target``.

    Covariances are parameterized as F F^dagger with the trace saturated at
    P (the objective never decreases when the signal block grows, so full
    power is optimal).  A case that needs no search returns its ``Exact``
    report.  Each ascent step evaluates ``adversary.objective`` over the
    candidate partitions (memoised per signal rank) at
    ``spectral.signal_spectrum`` of H F.  The witness is built on
    ``spectral.factor_subspace`` of the best factor, so the reported raw
    value is the best value the search evaluated and ``M0`` is the rank it
    was scored at; it can fall below ``diagnostics["target_rank"]``.  The
    water-filling covariance is a start only when its signal rank is
    ``M0_target``.  ``diagnostics["inner_method"]`` is ``"exact"``: the
    inner minimum is over all aligned families.
    """
    search = search or SearchConfig()
    m_star = min(model.m_t, model.m_r)
    _check_rank(M0_target)
    if M0_target > m_star:
        raise NegativeParameter(
            f"M0_target must lie in [1, {m_star}], got {M0_target}")
    if_cap, Q_wf = water_filling(model)
    exact = _no_search_report(model, M0_target, if_cap)
    if exact is not None:
        return exact

    H = np.asarray(model.H)
    P = model.P
    v = model.white.eigvals.tolist()
    m_s, a_max, kappa = model.m_s, model.a_max, model.field.kappa

    def value(F):
        """The inner minimum at covariance F F^dagger."""
        lam = signal_spectrum(H @ F).tolist()
        if not lam:
            return 0.0
        return _best_partition(enumerate_partitions(m_s, len(lam)), lam, v,
                               a_max, m_s, kappa)[1]

    dtype = complex if np.iscomplexobj(H) else float

    _, _, Vh = np.linalg.svd(H)
    fixed = [Vh.conj().T[:, :M0_target].astype(dtype) * math.sqrt(P / M0_target)]
    F_wf = psd_factor(Q_wf)
    if signal_spectrum(H @ F_wf).size == M0_target:
        fixed.append(F_wf[:, -M0_target:].astype(dtype))

    def starts():
        """The fixed starts, then each random start drawn when it is due."""
        yield from fixed
        for r in range(search.restarts - len(fixed)):
            rng = np.random.default_rng([0, M0_target, r])
            F = rng.standard_normal((model.m_t, M0_target))
            if dtype is complex:
                F = F + 1j * rng.standard_normal((model.m_t, M0_target))
            yield F.astype(dtype)

    best_F, best_val, total_iters, exhausted = None, -math.inf, 0, False
    for n_starts, F0 in enumerate(starts(), 1):
        F, val, iters, flag = _coordinate_ascent(value, F0, P, search.max_iters)
        total_iters += iters
        exhausted = exhausted or flag
        if val > best_val:
            best_F, best_val = F, val

    fam, raw = _witness(model, factor_subspace(H, best_F))
    diagnostics = {
        "mode": "multistart_ascent",
        "target_rank": M0_target,
        "inner_method": "exact",
        "restarts": n_starts,
        "iterations": total_iters,
        "budget_exhausted": exhausted,
        "best_Q_x": _matrix_to_json(_hermitize(best_F @ best_F.conj().T)),
        "partition": [list(g) for g in fam.group_map],
    }
    return BoundReport(value_bits=min(raw, if_cap), raw_value_bits=raw,
                       M0=fam.M0, kappa=model.field.kappa,
                       soundness=Soundness.HEURISTIC_SUP,
                       diagnostics=diagnostics)


def capacity_upper_bound(model: ChannelModel,
                         search: SearchConfig | None = None) -> BoundReport:
    """Best bound over all requested signal ranks, capped by the
    interference-free capacity; a case that needs no search skips the loop.

    ``search.ranks`` of None tries every rank.  The ranks are checked
    against min(m_t, m_r) in order without being copied, so a long
    ``range`` fails at its first rank past it.
    """
    search = search or SearchConfig()
    m_star = min(model.m_t, model.m_r)
    targets = range(1, m_star + 1) if search.ranks is None else search.ranks
    for t in targets:
        if t > m_star:
            raise NegativeParameter(f"rank target {t} outside [1, {m_star}]")

    exact = _no_search_report(model, targets[0], water_filling(model)[0])
    if exact is not None:
        return exact

    best = None
    per_rank = {}
    for t in targets:
        rep = outer_sup(model, t, search)
        per_rank[str(t)] = rep.raw_value_bits
        if best is None or rep.raw_value_bits > best.raw_value_bits:
            best = rep
    return replace(best, diagnostics={**best.diagnostics, "per_rank_raw": per_rank})
