"""Exception types shared across the package."""


class SpreadError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SpreadError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(SpreadError):
    """A LAPACK routine failed: an eigensolver or the SVD did not converge, or
    a QR factorization failed."""


class NotProjection(SpreadError):
    """Matrix is not an orthogonal projection within tolerance."""


class NotPositive(SpreadError):
    """Matrix is not positive semidefinite within tolerance."""


class NotProjectionSum(SpreadError):
    """C*C + S*S does not sum to an orthogonal projection."""


class ModeError(SpreadError):
    """Operation applied to a sequence in an unsupported operator model."""


class HorizonMismatch(SpreadError):
    """Sequences have incompatible truncation horizons."""


class DimMismatch(SpreadError):
    """Operator dimensions are incompatible."""


class UnknownExample(SpreadError):
    """Unrecognized reproduction fixture id."""


class UnknownInequality(SpreadError):
    """Unrecognized inequality id."""


class ParseError(SpreadError):
    """Malformed matrix or diagonal-spec file."""
