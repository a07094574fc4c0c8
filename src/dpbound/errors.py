"""Exception hierarchy shared across the package."""


class DirtyPaperError(Exception):
    """Base class for all validation and evaluation errors."""


class DimensionMismatch(DirtyPaperError):
    """A matrix has a shape inconsistent with the declared dimensions."""


class NotPSD(DirtyPaperError):
    """A matrix required to be positive semidefinite is not."""


class NotSquare(DirtyPaperError):
    """A square matrix was expected."""


class QsRankDeficient(DirtyPaperError):
    """The state covariance must be full rank."""


class NegativeParameter(DirtyPaperError):
    """A nonnegative scalar parameter is negative (or otherwise invalid)."""


class NonFinite(DirtyPaperError):
    """An entry, power or parameter is NaN or infinite, or a power overflows."""


class FieldMismatch(DirtyPaperError):
    """An unknown field, or complex-valued entries for a real-field model."""


class InfeasibleFamily(DirtyPaperError):
    """An adversary family breaks the cap or orthogonality certificates."""


class PartitionMismatch(DirtyPaperError):
    """A coordinate partition is inconsistent with the rank/dimensions in play."""


class RankZeroSignal(DirtyPaperError):
    """The received message-bearing covariance is zero; the objective is undefined."""


class InfeasiblePsi(DirtyPaperError):
    """The perturbation breaks positive semidefiniteness of M +/- Psi."""


class NotRankOne(DirtyPaperError):
    """Operation requires a single-antenna (MISO/SIMO) channel."""


class TooLarge(DirtyPaperError):
    """Instance exceeds a cost guard (brute-force grids, DOF or rank-one sizes)."""


class BadSpec(DirtyPaperError):
    """A sweep specification or model document is malformed."""
