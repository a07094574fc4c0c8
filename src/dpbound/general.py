"""Max-min search for the general capacity upper bound.

For a fixed input covariance the bound averages log-det terms over an
adversary family.  The inner minimization ranks the candidate partitions
of ``adversary.enumerate_partitions`` (which contain a minimiser) by
``adversary.objective``, the aligned objective in diagonal form, so it is
exact over the aligned families.  The reported value is that same
objective for the winning partition, whose family is built and validated
as the witness; since every aligned family is feasible it is a sound
surrogate for the true infimum.

One pipeline, ``capacity_upper_bound``, computes every bound; ``outer_sup``
is that pipeline at one rank.  It checks the rank targets and runs
water-filling once.  Three cases need no search and are decided once, in
this order, as ``Exact``: a dead channel (no interference-free capacity)
has bound 0, a zero cap leaves the interference-free capacity, and one
antenna takes the rank-one closed form.  Otherwise ``_search_rank`` runs
a multistart factor ascent at each signal rank, sidestepping the rank
discontinuity of the objective, and the best factor of the winning rank
gets the one witness.  This estimates the supremum over input covariances
from below, labeled ``HeuristicSup``: the number may undershoot the true
bound, but never stops being an upper bound for the rate of the
covariance it reports.
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
                      _matrix_to_json, input_covariance)
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
    Settings that are not nonnegative integers (a bool is not one), and
    ``ranks`` that are not None or a nonempty range or tuple of distinct
    ranks (see ``_check_rank``; a range is checked at its ends), raise
    ``NegativeParameter``.
    """

    restarts: int = 16
    max_iters: int = 500
    ranks: tuple | range | None = None     # signal ranks to try; None = all

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
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
            # a range never repeats, and is never expanded
            if isinstance(ranks, tuple) and len(set(ranks)) != len(ranks):
                raise NegativeParameter(f"ranks must not repeat a rank, got {ranks!r}")


def _search_config(search) -> SearchConfig:
    """``search``, or the default settings for None; anything else raises
    ``NegativeParameter``, the class of every other ``SearchConfig`` rule."""
    if search is None:
        return SearchConfig()
    if not isinstance(search, SearchConfig):
        raise NegativeParameter(f"search must be None or a SearchConfig, got {search!r}")
    return search


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
    m_s < M0 (no full group); callers fall back to int-free.  ``Q_x``
    goes through ``channel.input_covariance``.
    """
    return _witness(model, signal_subspace(model.H, input_covariance(model, Q_x)))


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


def _search_rank(model: ChannelModel, value, Vh: np.ndarray, F_wf: np.ndarray,
                 M0_target: int,
                 search: SearchConfig) -> tuple[np.ndarray, float, int, int, bool]:
    """Multistart factor ascent of ``value`` at signal rank ``M0_target``.

    Starts, in order: the top ``M0_target`` right singular vectors ``Vh``
    of H at full power, the water-filling factor ``F_wf`` when its signal
    rank is ``M0_target``, then random factors, restart r drawn from
    ``default_rng([0, M0_target, r])``, until ``search.restarts`` starts
    have run (the fixed starts always run).
    Returns the best factor, its value, the number of starts, the total
    iterations and whether any start hit ``search.max_iters``.
    """
    H = np.asarray(model.H)
    P = model.P
    dtype = complex if np.iscomplexobj(H) else float

    fixed = [Vh.conj().T[:, :M0_target].astype(dtype) * math.sqrt(P / M0_target)]
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
    return best_F, best_val, n_starts, total_iters, exhausted


def capacity_upper_bound(model: ChannelModel,
                         search: SearchConfig | None = None) -> BoundReport:
    """Best bound over all requested signal ranks, capped by the
    interference-free capacity.

    ``search.ranks`` of None tries every rank.  The ranks are checked
    against min(m_t, m_r) in order without being copied, so a long
    ``range`` fails at its first rank past it.  A case that needs no
    search returns its ``Exact`` report.  Otherwise each rank runs
    ``_search_rank``; covariances are parameterized as F F^dagger with the
    trace saturated at P (the objective never decreases when the signal
    block grows, so full power is optimal), and each ascent step evaluates
    ``adversary.objective`` over the candidate partitions at
    ``spectral.signal_spectrum`` of H F.  The first rank with the strictly
    largest value wins, and only its best factor gets a witness, built on
    ``spectral.factor_subspace``: the reported raw value is the best value
    the search evaluated and ``M0`` is the rank it was scored at, which can
    fall below ``diagnostics["target_rank"]``.  ``per_rank_raw`` holds
    each rank's best value.  ``diagnostics["inner_method"]`` is
    ``"exact"``: the inner minimum is over all aligned families.  A
    ``search`` that is neither None nor a ``SearchConfig`` raises
    ``NegativeParameter``.
    """
    search = _search_config(search)
    m_star = min(model.m_t, model.m_r)
    targets = range(1, m_star + 1) if search.ranks is None else search.ranks
    for t in targets:
        if t > m_star:
            raise NegativeParameter(f"rank target {t} outside [1, {m_star}]")

    if_cap, Q_wf = water_filling(model)
    exact = _no_search_report(model, targets[0], if_cap)
    if exact is not None:
        return exact

    H = np.asarray(model.H)
    v = model.white.eigvals.tolist()
    m_s, a_max, kappa = model.m_s, model.a_max, model.field.kappa

    def value(F):
        """The inner minimum at covariance F F^dagger."""
        lam = signal_spectrum(H @ F).tolist()
        if not lam:
            return 0.0
        return _best_partition(enumerate_partitions(m_s, len(lam)), lam, v,
                               a_max, m_s, kappa)[1]

    Vh = np.linalg.svd(H)[2]
    F_wf = psd_factor(Q_wf)
    found = {t: _search_rank(model, value, Vh, F_wf, t, search) for t in targets}
    best_t = max(found, key=lambda t: found[t][1])   # the first of equal values
    best_F, _, n_starts, total_iters, exhausted = found[best_t]
    fam, raw = _witness(model, factor_subspace(H, best_F))
    diagnostics = {
        "mode": "multistart_ascent",
        "target_rank": best_t,
        "inner_method": "exact",
        "restarts": n_starts,
        "iterations": total_iters,
        "budget_exhausted": exhausted,
        "best_Q_x": _matrix_to_json(_hermitize(best_F @ best_F.conj().T)),
        "partition": [list(g) for g in fam.group_map],
        "per_rank_raw": {str(t): f[1] for t, f in found.items()},
    }
    return BoundReport(value_bits=min(raw, if_cap), raw_value_bits=raw,
                       M0=fam.M0, kappa=kappa, soundness=Soundness.HEURISTIC_SUP,
                       diagnostics=diagnostics)


def outer_sup(model: ChannelModel, M0_target: int,
              search: SearchConfig | None = None) -> BoundReport:
    """``capacity_upper_bound`` at the one signal rank ``M0_target``.

    ``M0_target`` goes through ``SearchConfig``'s rank rule, so a float or
    a bool raises ``NegativeParameter``, as does a rank past
    min(m_t, m_r) or a ``search`` that is neither None nor a
    ``SearchConfig``.
    """
    return capacity_upper_bound(model, replace(_search_config(search),
                                               ranks=(M0_target,)))
