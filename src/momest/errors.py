"""Exception hierarchy shared by all momest modules."""


class MomestError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MomestError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MomentDomainError(DomainError):
    """A required theoretical moment does not exist for the given parameters."""


class DegenerateSampleError(MomestError, ValueError):
    """A sample violates a positivity condition required by an estimator."""


class InfeasibleMomentError(DegenerateSampleError):
    """Empirical moments fall outside the image of the theoretical moment map."""


class InsufficientDataError(MomestError, ValueError):
    """Fewer observations than the operation needs."""


class SingularCovarianceError(MomestError, ValueError):
    """A 2x2 covariance estimate is too close to singular for a joint test."""


class QuadratureError(MomestError, ArithmeticError):
    """The integrand produced a non-finite value, or the upper tail of an
    exact-quadrature Σ integral had not settled after its last block.

    Carries in ``abscissa`` the offending node, or the point where the tail
    extension stopped.
    """

    def __init__(self, message: str, abscissa: float):
        super().__init__(message)
        self.abscissa = abscissa


class SampleParseError(MomestError, ValueError):
    """A sample file could not be parsed; message names the offending line."""
