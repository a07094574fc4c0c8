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
    """Complex-valued entries supplied for a real-field model."""


class PowerBudgetExceeded(DirtyPaperError):
    """An input covariance uses more than the allowed transmit power."""


class InfeasibleFamily(DirtyPaperError):
    """An adversary family breaks the cap or orthogonality certificates."""


class NonpositiveVariance(DirtyPaperError):
    """State variance must be strictly positive."""


class PartitionMismatch(DirtyPaperError):
    """A coordinate partition is inconsistent with the rank/dimensions in play."""


class InfeasibleDimensions(DirtyPaperError):
    """Requested adversary structure cannot fit the available dimensions."""


class RankZeroSignal(DirtyPaperError):
    """The received message-bearing covariance is zero; the objective is undefined."""


class ZeroAmax(DirtyPaperError):
    """The closed-form rank-one bound needs a positive amplification cap."""


class InfeasiblePsi(DirtyPaperError):
    """The perturbation breaks positive semidefiniteness of M +/- Psi."""


class NotRankOne(DirtyPaperError):
    """Operation requires a single-antenna (MISO/SIMO) channel."""


class TooLarge(DirtyPaperError):
    """Instance exceeds a cost guard (brute-force grids, DOF or rank-one sizes)."""


class BadSpec(DirtyPaperError):
    """A sweep specification is invalid."""
