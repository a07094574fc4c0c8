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
a multistart factor ascent at the signal ranks that can win, sidestepping
the rank discontinuity of the objective, and the best factor of the
winning rank gets the one witness.  This estimates the supremum over
input covariances from below, labeled ``HeuristicSup``: the number may
undershoot the true bound, but never stops being an upper bound for the
rate of the covariance it reports.

Each rank t has a proven upper end U_t, and the search skips the ranks
whose upper end lies below a value already found.  The rank-t search
scores factors F (m_t x t, ||F||_F^2 = P) at the spectrum lam of H F, of
some length k <= t.  With s the singular values of H, descending,
sigma_r(H F) <= s_r sigma_1(F) <= s_r ||F||_F, so lam_r <= s_r^2 P.  Every
slot cost and the signal term of ``adversary.objective`` grow with each
lam_r, and the other terms are constants, so each candidate partition's
objective, and their minimum, never decreases when any lam_r grows.  So
the value of F is at most the inner minimum V_k at (s_1^2 P, ..., s_k^2 P),
and U_t = max(V_1, ..., V_t) bounds every value the rank-t search can
score: the max over k covers a spectrum that collapses below t, and the
empty spectrum scores 0, below every V_k.  U_t never decreases in t.

The search computes in floating point, so ``_rank_uppers`` evaluates V_k
at the larger spectrum P (s_r + ``UPPER_SV_SLACK`` s_1)^2, which covers
the rounding of ``svd`` on H and on H F and of the product H F (errors
of order eps s_1 sqrt(P)), and the skip asks for U_t plus the margin
``UPPER_BITS_SLACK`` (1 + |U_t|) bits, which covers the rounding of the
objective's log2 terms, to lie below the best value.  The ranks are
searched from the top down, and the search stops at the first rank that
fails this test: every lower rank has a smaller or equal U_t, so it is
ruled out too.  A skipped rank's every value lies below the best one, so
the first rank with the strictly largest value among the searched ranks
is the rank that searching every rank would pick, with the same factor
and value.  The treat-interference-as-noise (TIN) sandwich holds as
well: the water-filling start's value is at most its rank's U_t, so when
that rank is skipped the best value already exceeds it.
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


# Slack of the rank upper ends (see the module docstring): relative to the
# largest singular value of H, and relative to 1 + |U_t| in bits.
UPPER_SV_SLACK = 1e-10
UPPER_BITS_SLACK = 1e-9


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


def _renorm(F: np.ndarray, scale: float) -> None:
    """Scale ``F`` in place onto the Frobenius sphere of radius ``scale``;
    a zero ``F`` is left as it is.

    The squared norm is the dot product ``np.linalg.norm`` takes (of the
    real and imaginary parts for a complex ``F``), so the bits match it.
    """
    x = F.ravel()
    if np.iscomplexobj(x):
        n = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    else:
        n = math.sqrt(x.dot(x))
    if n > 0:
        F *= scale / n


def _coordinate_ascent(values, F0: np.ndarray, P: float,
                       max_iters: int) -> tuple[np.ndarray, float, int, bool]:
    """Maximize the value of a factor on the Frobenius sphere of radius
    sqrt(P).

    ``values`` scores a stack of factors, one value each.  Each coordinate
    tries the steps +step, -step (and +/-i step when complex) in turn, each
    from the factor the earlier steps left, and keeps a step that raises
    the value.  The steps are scored in one stack; after a kept step the
    remaining ones are scored again from the new factor, so the path is
    that of scoring one step at a time.
    """
    scale = math.sqrt(P)
    F = F0.copy()
    _renorm(F, scale)
    best = values(F[None])[0]
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
            j = 0
            while j < len(deltas):
                cands = np.repeat(F[None], len(deltas) - j, axis=0)
                for cand, d in zip(cands, deltas[j:]):
                    cand[idx] += d
                    _renorm(cand, scale)
                for cand, val in zip(cands, values(cands)):
                    j += 1
                    if val > best:
                        improved += val - best
                        F, best = cand, val
                        break
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


def _search_rank(model: ChannelModel, values, Vh: np.ndarray, F_wf: np.ndarray,
                 M0_target: int,
                 search: SearchConfig) -> tuple[np.ndarray, float, int, int, bool]:
    """Multistart factor ascent of ``values`` at signal rank ``M0_target``.

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
        F, val, iters, flag = _coordinate_ascent(values, F0, P, search.max_iters)
        total_iters += iters
        exhausted = exhausted or flag
        if val > best_val:
            best_F, best_val = F, val
    return best_F, best_val, n_starts, total_iters, exhausted


def _scorers(model: ChannelModel):
    """The inner minimum as a function of a signal spectrum, and of a stack
    of factors.

    ``score(lam)`` takes a descending list of floats (0.0 for an empty
    one); ``values(Fs)`` scores each F of the stack ``Fs`` at the
    ``spectral.signal_spectrum`` of H F.
    """
    H = np.asarray(model.H)
    v = model.white.eigvals.tolist()
    m_s, a_max, kappa = model.m_s, model.a_max, model.field.kappa

    def score(lam):
        if not lam:
            return 0.0
        return _best_partition(enumerate_partitions(m_s, len(lam)), lam, v,
                               a_max, m_s, kappa)[1]

    def values(Fs):
        return [score(lam.tolist()) for lam in signal_spectrum(H @ Fs)]

    return score, values


def _rank_uppers(score, s: np.ndarray, P: float, ranks) -> dict:
    """U_t for each rank t of ``ranks``: the largest inner minimum at the
    top k <= t upper ends P (s_r + ``UPPER_SV_SLACK`` s_1)^2 of the signal
    spectrum, for the singular values ``s`` of H (see the module
    docstring)."""
    mu = (P * (s + UPPER_SV_SLACK * s[0]) ** 2).tolist()
    upper, U = [], 0.0
    for k in range(1, max(ranks) + 1):
        U = max(U, score(mu[:k]))
        upper.append(U)
    return {t: upper[t - 1] for t in ranks}


def capacity_upper_bound(model: ChannelModel,
                         search: SearchConfig | None = None) -> BoundReport:
    """Best bound over all requested signal ranks, capped by the
    interference-free capacity.

    ``search.ranks`` of None tries every rank.  The ranks are checked
    against min(m_t, m_r) in order without being copied, so a long
    ``range`` fails at its first rank past it.  A case that needs no
    search returns its ``Exact`` report.  Otherwise the ranks run
    ``_search_rank`` from the top down, until a rank's upper end U_t
    (``_rank_uppers``), plus its margin, lies below the best value found;
    that rank and every lower one are skipped (see the module docstring).
    Covariances are parameterized as F F^dagger with the trace saturated
    at P (the objective never decreases when the signal block grows, so
    full power is optimal), and each ascent step evaluates
    ``adversary.objective`` over the candidate partitions at
    ``spectral.signal_spectrum`` of H F.  The first searched rank, in the
    requested order, with the strictly largest value wins, and only its
    best factor gets a witness, built on ``spectral.factor_subspace``: the
    reported raw value is the best value the search evaluated and ``M0``
    is the rank it was scored at, which can fall below
    ``diagnostics["target_rank"]``.  ``per_rank_raw`` holds each searched
    rank's best value and ``per_rank_upper`` every requested rank's U_t.
    ``diagnostics["inner_method"]`` is ``"exact"``: the inner minimum is
    over all aligned families.  A ``search`` that is neither None nor a
    ``SearchConfig`` raises ``NegativeParameter``.
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
    score, values = _scorers(model)
    _, s, Vh = np.linalg.svd(H)
    upper = _rank_uppers(score, s, model.P, targets)
    F_wf = psd_factor(Q_wf)
    found, best = {}, -math.inf
    for t in sorted(targets, reverse=True):
        if upper[t] + UPPER_BITS_SLACK * (1.0 + abs(upper[t])) < best:
            break
        found[t] = _search_rank(model, values, Vh, F_wf, t, search)
        best = max(best, found[t][1])
    searched = [t for t in targets if t in found]
    best_t = max(searched, key=lambda t: found[t][1])   # the first of equal values
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
        "per_rank_raw": {str(t): found[t][1] for t in searched},
        "per_rank_upper": {str(t): upper[t] for t in targets},
    }
    return BoundReport(value_bits=min(raw, if_cap), raw_value_bits=raw,
                       M0=fam.M0, kappa=model.field.kappa,
                       soundness=Soundness.HEURISTIC_SUP, diagnostics=diagnostics)


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
