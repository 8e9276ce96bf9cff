"""Exception types shared across the package."""


class QdeconvError(Exception):
    """Base class for all package-specific errors."""


class SingularChannelError(QdeconvError):
    """The transfer matrix is (numerically) singular and cannot be inverted."""


class NonUnitaryError(QdeconvError):
    """A matrix expected to be unitary fails the unitarity check."""


class InvalidProbabilityError(QdeconvError):
    """A probability vector has negative entries or does not sum to one."""


class FamilyVerificationError(QdeconvError):
    """A constructed observable family failed its recovery certificate or invariance check."""


class NumericalOverflowError(QdeconvError, ValueError):
    """A finite input is too large to compute with: a float operation on it overflows."""


class SpecParseError(QdeconvError):
    """A channel/observable/state document is malformed or violates its schema."""


class CptpViolationError(SpecParseError):
    """A parsed channel payload is not trace preserving (its Kraus form is completely positive)."""


class UnknownScenarioError(QdeconvError):
    """Requested scenario name is not registered."""
