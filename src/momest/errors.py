"""Exception hierarchy shared by all momest modules."""

__all__ = ["MomestError", "DomainError", "MomentDomainError",
           "DegenerateSampleError", "InfeasibleMomentError",
           "InsufficientDataError", "SingularCovarianceError",
           "QuadratureError", "SampleParseError"]


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
    """The integrand produced a non-finite value, the upper tail of an
    exact-quadrature Σ integral had not settled after its last block, or
    its E[H] or E[L] missed the closed form.

    Carries in ``abscissa`` the offending node, the point where the tail
    extension stopped, or nan where no one point is at fault.
    """

    def __init__(self, message: str, abscissa: float):
        super().__init__(message)
        self.abscissa = abscissa


class SampleParseError(MomestError, ValueError):
    """A sample file could not be parsed; message names the offending line."""
