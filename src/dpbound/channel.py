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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSpec,
    DimensionMismatch,
    FieldMismatch,
    InfeasibleFamily,
    NegativeParameter,
    NonFinite,
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


def _matrix(M, name: str, shape: tuple[int, int], field: FieldKind) -> np.ndarray:
    """``M`` as a float or complex array: the one rule for H, Q_s and Q_x.

    Raises ``DimensionMismatch`` unless ``M`` is a 2-D matrix of ``shape``,
    ``NonFinite`` for a NaN or infinite entry and, in a real field,
    ``FieldMismatch`` for a nonzero imaginary part (a zero imaginary part
    is dropped, so a real field always gives a float array).
    """
    arr = np.asarray(M)
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} must be {shape[0]}x{shape[1]}, got {arr.shape}")
    arr = arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)
    if not np.isfinite(arr).all():
        raise NonFinite(f"{name} has NaN or infinite entries")
    if field is FieldKind.REAL and np.iscomplexobj(arr):
        if np.any(arr.imag):
            raise FieldMismatch(f"real-field model with complex {name}")
        arr = arr.real.astype(float)
    return arr


def is_psd(w) -> np.ndarray:
    """Whether each row of ascending eigenvalues ``w`` is numerically PSD.

    The one PSD rule: the least eigenvalue is at least ``-EPS_PSD`` times
    max(largest, 0), so the floor is relative and a matrix with no
    positive eigenvalue must have none below zero.
    """
    w = np.asarray(w)
    return w[..., 0] >= -EPS_PSD * np.maximum(w[..., -1], 0.0)


def _hermitize(M: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix, or of each matrix in a stack.

    Each half is taken before the sum, so entries near the float limit do
    not overflow; for normal entries this equals (M + M^H)/2 bit for bit.
    """
    return M / 2.0 + np.swapaxes(M, -1, -2).conj() / 2.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WhitenedState:
    """Eigendecomposition of the state covariance, eigenvalues descending."""

    eigvecs: np.ndarray   # columns are eigenvectors (m_s x m_s unitary)
    eigvals: np.ndarray   # positive, descending


def whiten_state(Q_s) -> WhitenedState:
    """One ``eigh`` of the Hermitian part of Q_s, sorted descending.

    The one Q_s rule, kept by ``validate_model`` as ``ChannelModel.white``.
    Q_s passes the matrix rule as a square matrix of either field
    (``DimensionMismatch``, ``NonFinite``).  Raises ``QsRankDeficient``
    for an empty Q_s or a largest eigenvalue that is not positive, then
    ``NotPSD`` below the floor of :func:`is_psd` and ``QsRankDeficient``
    for a least eigenvalue at most ``RANK_TOL`` times the largest.
    """
    Q = np.asarray(Q_s)
    n = Q.shape[0] if Q.ndim else 0
    w, E = np.linalg.eigh(_hermitize(_matrix(Q, "Q_s", (n, n), FieldKind.COMPLEX)))
    if not (w.size and w[-1] > 0.0):
        raise QsRankDeficient("Q_s is empty, zero or negative semidefinite")
    if not is_psd(w):
        raise NotPSD(f"Q_s has eigenvalue {w[0]:g} below the PSD tolerance")
    if w[0] <= RANK_TOL * w[-1]:
        raise QsRankDeficient(
            f"Q_s eigenvalue {w[0]:g} is below the rank tolerance; full rank required")
    return WhitenedState(eigvecs=_freeze(E[:, ::-1]), eigvals=_freeze(w[::-1]))


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
    white: WhitenedState = field(compare=False)   # whiten_state(Q_s)


@dataclass(frozen=True)
class AdversaryFamily:
    """Ordered interference transforms {A_i} with feasibility certificates.

    ``members`` hold the actual matrices for a finite cap.  For an infinite
    cap the family is symbolic: ``members`` store the unit-cap matrices and
    ``is_limit`` is true, meaning each interference block is to be read as
    "this direction, amplified without bound".
    """

    members: tuple
    group_map: tuple          # tuple of coordinate tuples, one per member
    M0: int
    a_max: float
    subspace: object = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def is_limit(self) -> bool:
        """Whether the cap is unbounded, so the members are unit-cap directions."""
        return math.isinf(self.a_max)

    def validate(self, model: ChannelModel) -> None:
        """Raise if any feasibility certificate fails.

        Checks the singular-value cap (the unit cap for limit families,
        whose members are built at unit cap), pairwise state-orthogonality and
        the member count ceil(m_s / M0).  The orthogonality tolerance scales
        with cap^2 lambda_max(Q_s), the size of each member's interference
        covariance, because the rounding error of a cross term does too;
        validation keeps that product finite.
        """
        n_expected = -(-model.m_s // self.M0)
        if len(self.members) != n_expected:
            raise PartitionMismatch(
                f"family has {len(self.members)} members, expected {n_expected}")
        cap = 1.0 if self.is_limit else self.a_max
        qs_scale = 1.0 + cap * cap * float(model.white.eigvals[0])
        for i, A in enumerate(self.members):
            smax = float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0
            if smax > cap * (1.0 + SV_CAP_SLACK):
                raise InfeasibleFamily(
                    f"member {i} has singular value {smax:g} above the cap")
            for j in range(i):
                cross = self.members[i] @ model.Q_s @ self.members[j].conj().T
                if float(np.linalg.norm(cross / qs_scale)) > ORTHO_TOL:
                    raise InfeasibleFamily(
                        f"members {i},{j} are not Q_s-orthogonal")


def input_covariance(model: ChannelModel, Q_x) -> np.ndarray:
    """``Q_x`` as a matrix, if it is an m_t x m_t input covariance of ``model``.

    The one Q_x rule: the matrix rule in the model's field
    (``DimensionMismatch``, ``NonFinite``, ``FieldMismatch``), then the
    floor of :func:`is_psd` on the Hermitian part (``NotPSD``), with no
    rank requirement, so a zero or rank-deficient Q_x is legal.  Q_x is
    returned as given, not its Hermitian part; a non-Hermitian Q_x is read
    by its Hermitian part downstream, as Q_s is.
    """
    Q = _matrix(Q_x, "Q_x", (model.m_t, model.m_t), model.field)
    w = np.linalg.eigvalsh(_hermitize(Q))
    if not is_psd(w):
        raise NotPSD(f"Q_x has eigenvalue {w[0]:g} below the PSD tolerance")
    return Q


def as_field(field: FieldKind | str) -> FieldKind:
    """``field`` or its name, in any case, as a ``FieldKind``, else ``FieldMismatch``."""
    if isinstance(field, str) and field.lower() in ("real", "complex"):
        field = FieldKind(field.lower())
    if not isinstance(field, FieldKind):
        raise FieldMismatch(f"field must be 'real' or 'complex', got {field!r}")
    return field


def positive_dim(name: str, dim) -> int:
    """``dim`` as an int if it is a non-bool real with an integer value of
    at least one (2.0 is 2), else ``NegativeParameter``."""
    # inf // 1 is nan, so an infinite dimension fails too
    if isinstance(dim, bool) or not (isinstance(dim, numbers.Real)
                                     and dim == dim // 1 >= 1):
        raise NegativeParameter(f"{name} must be a positive integer, got {dim!r}")
    return int(dim)


def validate_model(m_t: int, m_r: int, m_s: int, H, Q_s, a_max, P,
                   field: FieldKind | str = FieldKind.REAL) -> ChannelModel:
    """Validate a raw channel description and return an immutable model.

    ``field`` goes through :func:`as_field` and each dimension through
    :func:`positive_dim`; ``H`` and ``Q_s`` pass the matrix rule in that
    field (``DimensionMismatch``, ``NonFinite``, ``FieldMismatch``), and
    ``Q_s`` is symmetrized and passed to :func:`whiten_state` (``NotPSD``,
    ``QsRankDeficient``), kept as ``white``.  Raises ``NegativeParameter``
    or ``NonFinite`` (``P = inf``, a ``P`` or
    ``a_max`` too large for a float, or an overflowing ``P ||H||_F^2`` or
    finite-cap ``a_max^2 lambda_max(Q_s)``; ``a_max = inf`` and
    underflowing caps are legal).  Validation is idempotent: feeding an
    accepted model's fields back returns an equal model.
    """
    field = as_field(field)
    m_t, m_r, m_s = (positive_dim(name, dim) for name, dim in
                     (("m_t", m_t), ("m_r", m_r), ("m_s", m_s)))
    P = float(_to_float(P, "P"))
    if not P >= 0.0:
        raise NegativeParameter(f"P must be nonnegative, got {P}")
    if math.isinf(P):
        raise NonFinite("P must be finite, got inf")
    a_max = float(_to_float(a_max, "a_max"))
    if math.isnan(a_max) or a_max < 0.0:
        raise NegativeParameter(f"a_max must be in [0, inf], got {a_max}")

    H = _matrix(H, "H", (m_r, m_t), field)
    Q = _hermitize(_matrix(Q_s, "Q_s", (m_s, m_s), field))
    white = whiten_state(Q)
    top = float(white.eigvals[0])
    if not math.isfinite(P * float(np.vdot(H, H).real)):
        raise NonFinite("signal power P ||H||_F^2 overflows")
    if not math.isinf(a_max) and not math.isfinite(a_max * a_max * top):
        raise NonFinite("interference power a_max^2 lambda_max(Q_s) overflows")

    return ChannelModel(m_t=m_t, m_r=m_r, m_s=m_s, H=_freeze(H), Q_s=_freeze(Q),
                        a_max=a_max, P=P, field=field, white=white)


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


def inr_to_amax(inr_db: float) -> float:
    """Map a worst-case INR (dB) onto the amplification cap.

    For scalar unit-gain reception of a unit-variance state the worst-case
    interference power is a_max^2, so a_max = sqrt(10^(INR/10)).
    """
    return math.sqrt(db_to_power(inr_db, "INR"))


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


def _to_float(x, name: str) -> np.ndarray:
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:
        raise NonFinite(f"{name} overflows a float") from None


def _json_number(name: str, x):
    """``x`` if it is a JSON number (a bool is not one), else ``BadSpec``."""
    if type(x) not in (int, float):
        raise BadSpec(f"{name} must be a number, got {x!r}")
    return x


def _matrix_from_json(rows, name: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=object)
    if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[-1] != 2):
        raise DimensionMismatch(
            f"{name} must be a 2-D array (or 2-D array of [re, im])")
    for x in arr.flat:
        _json_number(f"{name} entry", x)
    arr = _to_float(arr, name)
    return arr[..., 0] + 1j * arr[..., 1] if arr.ndim == 3 else arr


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
    """Parse and validate a model document (inverse of :func:`model_to_json`);
    a non-object document, or a value or entry of the wrong JSON type
    (``a_max`` may be "inf"), raises ``BadSpec``."""
    if not isinstance(doc, dict):
        raise BadSpec(f"model document must be a JSON object, got {type(doc).__name__}")
    try:
        a_max = doc["a_max"]
        if isinstance(a_max, str) and a_max.lower() in ("inf", "infinity"):
            a_max = math.inf
        return validate_model(
            *(_json_number(k, doc[k]) for k in ("m_t", "m_r", "m_s")),
            _matrix_from_json(doc["H"], "H"), _matrix_from_json(doc["Q_s"], "Q_s"),
            _to_float(_json_number("a_max", a_max), "a_max"),
            _to_float(_json_number("P", doc["P"]), "P"), doc.get("field", "real"))
    except KeyError as exc:
        raise DimensionMismatch(f"model document is missing key {exc}") from exc


def load_model(path) -> ChannelModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
