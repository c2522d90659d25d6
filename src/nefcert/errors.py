"""Exception types shared across the package."""


class NefcertError(Exception):
    """Base class for every error raised by this package."""


class InvalidValue(NefcertError, ValueError):
    """An argument of the right type whose value the operation does not accept."""


class InvalidWeights(NefcertError):
    """Weight data violates m + n/k > 2 or basic range constraints."""


class AlphaOutOfRange(NefcertError):
    """Log-canonical parameter outside [0, 1]."""


class AmbientMismatch(NefcertError):
    """Operands live on different weighted spaces."""


class InvalidBoundaryKey(NefcertError):
    """Boundary key fails the two-sided admissibility inequalities."""


class UnsupportedCoefficient(NefcertError):
    """Class carries coefficients the requested map has no rule for."""


class ConcreteOnly(NefcertError):
    """Operation needs terminal-surface data but the family is abstract."""


class ConcreteAbstractMismatch(NefcertError):
    """Matrix-level and telescoped potentials disagree (corrupt family data)."""


class UnequalTauCoefficients(NefcertError):
    """Per-section weight-one coefficients differ where a common value is required."""


class ShapeNotFunctorial(NefcertError):
    """Class is not of the factor-restriction shape a*psi_sigma + b*delta_s + c*(psi_tau - delta)."""


class InvalidCoefficients(NefcertError):
    """Combination coefficients incompatible with the weight data."""


class COutOfInterval(NefcertError):
    """Requested ray parameter lies outside the certified interval."""


class NoCaseApplies(NefcertError):
    """No positivity case covers this weight configuration."""


class FamilyFormatError(NefcertError):
    """Family file cannot be parsed into a FamilyModel."""


class RecordFormatError(NefcertError):
    """Divisor-class record cannot be parsed."""
