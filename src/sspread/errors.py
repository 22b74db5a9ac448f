"""Exception types shared across the package. Each carries, as exit_code, the
exit status the CLI gives it: 2 a parse or input-contract error, 3 a mode
violation, 4 an unknown id."""


class SpreadError(Exception):
    """Base class for all errors raised by this package; a subclass exits 2
    unless it sets its own exit_code."""
    exit_code = 2


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
    exit_code = 3


class HorizonMismatch(SpreadError):
    """Sequences have incompatible truncation horizons."""
    exit_code = 3


class DimMismatch(SpreadError):
    """Operator dimensions are incompatible."""


class UnknownExample(SpreadError):
    """Unrecognized reproduction fixture id."""
    exit_code = 4


class UnknownInequality(SpreadError):
    """Unrecognized inequality id."""
    exit_code = 4


class ParseError(SpreadError):
    """Malformed matrix or diagonal-spec file."""
