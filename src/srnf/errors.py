"""Exception types shared across the package."""


class SrnfError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SrnfError):
    pass


class DegreeOutOfRange(SrnfError):
    pass


class SingularLinearPart(SrnfError):
    pass


class NoConvergence(SrnfError):
    """An iteration did not converge: Schur triangularization, or the
    straightening limit within its iteration cap."""

    def __init__(self, message, last_gap=None, iterations=None):
        super().__init__(message)
        self.last_gap = last_gap
        self.iterations = iterations


class NotContracting(SrnfError):
    pass


class NotTriangular(SrnfError):
    pass


class CertificationFailure(SrnfError):
    """A map that must be sub-resonant by theory failed certification.

    Signals an implementation defect or inconsistent tolerances, never an
    expected runtime condition.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class IllConditionedResonance(SrnfError):
    """A divisor is resonantly small at a position that is not sub-resonant.

    Indicates that the resonance tolerance and the log-space sub-resonance
    tolerance are inconsistent for the supplied spectrum.
    """


class SpectrumMismatch(SrnfError):
    pass


class ValidationError(SrnfError):
    """Invalid input document or configuration."""
