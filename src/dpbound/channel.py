"""Channel instance definition and validation.

The channel is ``y = H x + A s + z`` with Gaussian state ``s ~ N(0, Q_s)``,
unit-covariance noise ``z``, input power budget ``tr(Q_x) <= P`` and an
interference transform ``A`` known only to have largest singular value at
most ``a_max``.  ``H`` maps input to output (``m_r x m_t``) and ``A`` maps
state to output (``m_r x m_s``); the multiplication-consistent orientation
is used throughout.

All types here are immutable after validation and safe to share between
concurrent evaluators.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InfeasibleFamily,
    NegativeParameter,
    NonFinite,
    NonpositiveVariance,
    NotPSD,
    PartitionMismatch,
    QsRankDeficient,
)

# Numerical tolerances, fixed for every evaluation.
EPS_PSD = 1e-10          # relative floor for "numerically PSD"
ORTHO_TOL = 1e-9         # Frobenius tolerance for state-orthogonality checks
RANK_TOL = 1e-9          # relative eigenvalue threshold for rank decisions
SV_CAP_SLACK = 1e-9      # relative slack on the singular-value cap


class FieldKind(enum.Enum):
    """Real- or complex-valued channel; fixes the log-det prefactor."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def kappa(self) -> float:
        return 0.5 if self is FieldKind.REAL else 1.0


def _as_matrix(M, name: str) -> np.ndarray:
    arr = np.asarray(M)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)


def _hermitize(M: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix, or of each matrix in a stack."""
    return (M + np.swapaxes(M, -1, -2).conj()) / 2.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChannelModel:
    """Validated channel instance.  Construct via :func:`validate_model`."""

    m_t: int
    m_r: int
    m_s: int
    H: np.ndarray
    Q_s: np.ndarray
    a_max: float          # may be math.inf
    P: float
    field: FieldKind


@dataclass(frozen=True)
class AdversaryFamily:
    """Ordered interference transforms {A_i} with feasibility certificates.

    ``members`` hold the actual matrices for a finite cap.  For an infinite
    cap the family is symbolic: ``members`` store the unit-cap matrices and
    ``is_limit`` is set, meaning each interference block is to be read as
    "this direction, amplified without bound".
    """

    members: tuple
    group_map: tuple          # tuple of coordinate tuples, one per member
    M0: int
    a_max: float
    is_limit: bool = False
    subspace: object = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    def validate(self, model: ChannelModel) -> None:
        """Raise if any feasibility certificate fails.

        Checks the singular-value cap (the unit cap for limit families,
        whose members are built at unit cap), pairwise state-orthogonality and
        the member count ceil(m_s / M0).  The orthogonality tolerance scales
        with cap^2 ||Q_s||, the size of each member's interference
        covariance, because the rounding error of a cross term does too.
        """
        n_expected = -(-model.m_s // self.M0)
        if len(self.members) != n_expected:
            raise PartitionMismatch(
                f"family has {len(self.members)} members, expected {n_expected}")
        cap = 1.0 if self.is_limit else self.a_max
        qs_scale = 1.0 + cap * cap * float(np.linalg.norm(model.Q_s))
        for i, A in enumerate(self.members):
            smax = float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0
            if smax > cap * (1.0 + SV_CAP_SLACK):
                raise InfeasibleFamily(
                    f"member {i} has singular value {smax:g} above the cap")
            for j in range(i):
                cross = self.members[i] @ model.Q_s @ self.members[j].conj().T
                if float(np.linalg.norm(cross)) > ORTHO_TOL * qs_scale:
                    raise InfeasibleFamily(
                        f"members {i},{j} are not Q_s-orthogonal")


def validate_model(m_t: int, m_r: int, m_s: int, H, Q_s, a_max, P,
                   field: FieldKind | str = FieldKind.REAL) -> ChannelModel:
    """Validate a raw channel description and return an immutable model.

    ``Q_s`` is symmetrized before any check.  Raises ``DimensionMismatch``,
    ``NotPSD``, ``QsRankDeficient``, ``NegativeParameter``, ``NonFinite``
    (NaN or inf in ``H`` or ``Q_s``, ``P = inf``, or an overflowing
    ``P ||H||_F^2`` or finite-cap ``a_max^2 lambda_max(Q_s)``; ``a_max = inf``
    and underflowing caps are legal) or ``FieldMismatch`` as appropriate.
    Validation is idempotent: feeding an accepted model's fields back
    returns an equal model.
    """
    if isinstance(field, str):
        field = FieldKind(field.lower())
    for name, dim in (("m_t", m_t), ("m_r", m_r), ("m_s", m_s)):
        if int(dim) != dim or dim < 1:
            raise NegativeParameter(f"{name} must be a positive integer, got {dim}")
    m_t, m_r, m_s = int(m_t), int(m_r), int(m_s)
    P = float(P)
    if not P >= 0.0:
        raise NegativeParameter(f"P must be nonnegative, got {P}")
    if math.isinf(P):
        raise NonFinite("P must be finite, got inf")
    a_max = float(a_max)
    if math.isnan(a_max) or a_max < 0.0:
        raise NegativeParameter(f"a_max must be in [0, inf], got {a_max}")

    H = _as_matrix(H, "H")
    if H.shape != (m_r, m_t):
        raise DimensionMismatch(f"H must be {m_r}x{m_t}, got {H.shape}")
    if not np.isfinite(H).all():
        raise NonFinite("H has NaN or infinite entries")
    Q = _as_matrix(Q_s, "Q_s")
    if Q.shape != (m_s, m_s):
        raise DimensionMismatch(f"Q_s must be {m_s}x{m_s}, got {Q.shape}")
    if not np.isfinite(Q).all():
        raise NonFinite("Q_s has NaN or infinite entries")
    if field is FieldKind.REAL:
        if np.iscomplexobj(H) and np.abs(H.imag).max() > 0:
            raise FieldMismatch("real-field model with complex H")
        if np.iscomplexobj(Q) and np.abs(Q.imag).max() > 0:
            raise FieldMismatch("real-field model with complex Q_s")
        H = np.real(H).astype(float)
        Q = np.real(Q).astype(float)

    Q = _hermitize(Q)
    w = np.linalg.eigvalsh(Q)
    top = float(w[-1])
    if top <= 0.0:
        raise QsRankDeficient("Q_s is zero or negative semidefinite")
    if float(w[0]) < -EPS_PSD * top:
        raise NotPSD(f"Q_s has eigenvalue {w[0]:g} below the PSD tolerance")
    if float(w[0]) <= RANK_TOL * top:
        raise QsRankDeficient(
            f"Q_s eigenvalue {w[0]:g} is below the rank tolerance; full rank required")
    if not math.isfinite(P * float(np.vdot(H, H).real)):
        raise NonFinite("signal power P ||H||_F^2 overflows")
    if not math.isinf(a_max) and not math.isfinite(a_max * a_max * top):
        raise NonFinite("interference power a_max^2 lambda_max(Q_s) overflows")

    return ChannelModel(m_t=m_t, m_r=m_r, m_s=m_s, H=_freeze(H), Q_s=_freeze(Q),
                        a_max=a_max, P=P, field=field)


def db_to_power(db: float, name: str) -> float:
    """``10^(db/10)``, the linear power of ``db``; ``name`` labels the error.

    Raises ``NonFinite`` when the power overflows a float (above about
    3083 dB), the same rule ``validate_model`` applies to an overflowing
    signal or interference power.  Very negative values underflow to 0.
    """
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise NonFinite(f"{name} of {db} dB overflows a float") from None


def inr_to_amax(inr_db: float, state_variance: float) -> float:
    """Map a worst-case INR (dB) onto the amplification cap.

    For scalar unit-gain reception the worst-case interference power is
    a_max^2 * v, so INR = a_max^2 * v / 1 and a_max = sqrt(10^(INR/10) / v).
    """
    v = float(state_variance)
    if not v > 0.0:
        raise NonpositiveVariance(f"state variance must be positive, got {v}")
    return math.sqrt(db_to_power(inr_db, "INR") / v)


def _json_safe(x):
    """``x`` as strict JSON data: non-finite floats, at any depth, become
    the text ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(x, dict):
        return {k: _json_safe(val) for k, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(val) for val in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(float(x))
    return x


def _matrix_to_json(M: np.ndarray):
    if np.iscomplexobj(M):
        return [[[float(z.real), float(z.imag)] for z in row] for row in M]
    return [[float(x) for x in row] for row in M]


def _matrix_from_json(rows, name: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=object)
    if arr.ndim == 3:  # [re, im] pairs
        arr = np.asarray(rows, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return np.asarray(rows, dtype=float)
    raise DimensionMismatch(f"{name} must be a 2-D array (or 2-D array of [re, im])")


def model_to_json(model: ChannelModel) -> dict:
    """Serialize a model to the documented JSON schema (see docs/)."""
    return {
        "m_t": model.m_t,
        "m_r": model.m_r,
        "m_s": model.m_s,
        "H": _matrix_to_json(np.asarray(model.H)),
        "Q_s": _matrix_to_json(np.asarray(model.Q_s)),
        "a_max": _json_safe(model.a_max),
        "P": model.P,
        "field": model.field.value,
    }


def model_from_json(doc: dict) -> ChannelModel:
    """Parse and validate a model document (inverse of :func:`model_to_json`)."""
    try:
        a_max = doc["a_max"]
        if isinstance(a_max, str):
            if a_max.lower() not in ("inf", "infinity"):
                raise NegativeParameter(f"a_max string must be 'inf', got {a_max!r}")
            a_max = math.inf
        return validate_model(
            doc["m_t"], doc["m_r"], doc["m_s"],
            _matrix_from_json(doc["H"], "H"),
            _matrix_from_json(doc["Q_s"], "Q_s"),
            a_max, doc["P"], doc.get("field", "real"),
        )
    except KeyError as exc:
        raise DimensionMismatch(f"model document is missing key {exc}") from exc


def load_model(path) -> ChannelModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
