"""Exception taxonomy shared across the package.

Validation errors (bad inputs, incompatible objects) derive from
:class:`ValidationError`; failures of a numerical certificate (a tail bound,
a quadrature self-check, a bracketing search, a finite-difference step check)
derive from :class:`CertificateError`.  The CLI maps the former to exit code
2 and the latter to exit code 3.
"""


class WeylgasError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(WeylgasError, ValueError):
    """Invalid or incompatible inputs."""


class CertificateError(WeylgasError):
    """A numerical accuracy certificate could not be met."""


# -- algebra ---------------------------------------------------------------

class MismatchedHbar(ValidationError):
    """Binary operation on elements carrying different deformation parameters."""


class MismatchedDimension(ValidationError):
    """Binary operation on elements over label spaces of different dimension."""


class NonzeroHbar(ValidationError):
    """Operation defined only at hbar == 0 applied to a quantum element."""


class ZeroHbar(ValidationError):
    """Operation defined only at hbar > 0 applied to a classical element."""


class NegativeHbar(ValidationError):
    """A deformation parameter must be nonnegative."""


# -- test functions / geometry --------------------------------------------

class DimensionMismatch(ValidationError):
    """Objects live over different spatial dimensions."""


class DimensionTooLow(ValidationError):
    """Operation requires a higher spatial dimension (e.g. nu >= 3)."""


class InvalidIndex(ValidationError):
    """Box mode indices must be integer vectors with all entries >= 1."""


# -- states / equilibrium ---------------------------------------------------

class InvalidSpec(ValidationError):
    """A state or measure specification violates its constraints."""


class DomainViolation(ValidationError):
    """An input lies outside the mathematical domain of the operation."""


class ChemicalPotentialOutOfRange(ValidationError):
    """mu must lie strictly below the spectrum (box) or be <= 0 (continuum)."""


class NonPositiveTarget(ValidationError):
    """A target density must be strictly positive."""


class StepTooLarge(CertificateError):
    """Finite-difference step failed its Richardson consistency check."""


# -- numerics ---------------------------------------------------------------

class QuadratureFailure(CertificateError):
    """A quadrature self-check exceeded its tolerance, or a closed-form
    integral left the float range."""


class TailToleranceExceeded(CertificateError):
    """A certified truncation tail bound exceeds the requested tolerance."""


class BracketFailure(CertificateError):
    """A root bracket could not be established or verified."""
