"""Exception types shared across the package."""


class SrnfError(Exception):
    """Base class for all package errors."""


class InputError(SrnfError):
    """Invalid input or configuration: the CLI writes nothing and exits 2."""


class NumericalCondition(SrnfError):
    """A numerical condition: the CLI exits 3 and writes ``document`` or an error document."""

    def __init__(self, message, document=None):
        super().__init__(message)
        self.document = document


class DimensionMismatch(InputError):
    pass


class DegreeOutOfRange(InputError):
    pass


class SingularLinearPart(InputError):
    pass


class NoConvergence(NumericalCondition):
    """An iteration did not converge, or a computation left the float range.
    The straightening limit does not raise; it reports unconverged samples as
    ``None``."""


class NotContracting(InputError):
    pass


class NotTriangular(InputError):
    pass


class CertificationFailure(NumericalCondition):
    """A map that must be sub-resonant by theory failed certification.

    Signals an implementation defect or inconsistent tolerances, never an
    expected runtime condition.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class IllConditionedResonance(NumericalCondition):
    """A divisor is resonantly small at a position that is not sub-resonant.

    Indicates that the resonance tolerance and the log-space sub-resonance
    tolerance are inconsistent for the supplied spectrum.
    """


class SpectrumMismatch(InputError):
    pass


class ValidationError(InputError):
    """Invalid input document or configuration."""


# Largest allocation, in bytes, of one request whose size the caller sets:
# a dense operator, a basis enumeration, an orbit or a set of samples.
MAX_REQUEST_BYTES = 64 * 2**20


def check_size(size: int, limit: int, what: str, command: str, unit: str = "bytes") -> None:
    """Refuse a request of ``size`` units above ``limit`` before it allocates."""
    if size > limit:
        need = f"{size:.3g}" if size < 1e300 else "more than 1e+300"  # a float would overflow
        raise ValidationError(f"{what} needs {need} {unit}, above the {command} "
                              f"limit of {limit} {unit}")
