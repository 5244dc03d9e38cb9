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
    """An iteration did not converge: Schur triangularization.  The
    straightening limit does not raise; it reports unconverged samples as
    ``None``."""


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


def check_size(size: int, limit: int, what: str, command: str, unit: str = "bytes") -> None:
    """Refuse a request of ``size`` units above ``limit`` before it allocates."""
    if size > limit:
        need = f"{size:.3g}" if size < 1e300 else "more than 1e+300"  # a float would overflow
        raise ValidationError(f"{what} needs {need} {unit}, above the {command} "
                              f"limit of {limit} {unit}")
