"""Exception taxonomy shared by all sincsum modules.

sincsum.cli maps these onto its exit codes; a CertificateError counts as an
internal error there.
"""


class SincsumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SincsumError, ValueError):
    """An argument lies outside the validity domain of an operation."""


class PrecisionError(SincsumError, ArithmeticError):
    """A requested tolerance cannot be certified.

    Carries ``achieved_bound``, the tightest error bound the operation could
    actually guarantee.
    """

    def __init__(self, message: str, achieved_bound: float = float("inf")):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class SizeLimitError(SincsumError, ValueError):
    """A size cap was exceeded (polynomial order, exact factorial range)."""


class CertificateError(SincsumError, ArithmeticError):
    """An exact structural certificate failed to hold.

    Raised when data contradicts a property the certificate relies on, for
    example a negative coefficient in a polynomial whose nonnegativity is
    the whole point of the certificate.
    """
