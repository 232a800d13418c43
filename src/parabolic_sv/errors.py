"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures onto stable exit codes without string matching.
"""
from __future__ import annotations

from dataclasses import dataclass


class PricingError(Exception):
    """Base class for all package-specific failures."""

    code = "PricingError"


@dataclass(frozen=True)
class Violation:
    """One invariant violation found while validating user inputs."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class InvalidModelError(PricingError):
    """Raised when parameter validation fails; aggregates every violation."""

    code = "InvalidModel"

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class SingularTimeError(PricingError):
    """A time-dependent denominator has been driven onto its singularity."""

    code = "SingularTime"


class LogDomainError(PricingError):
    """A logarithm argument is outside (0, inf)."""

    code = "LogDomain"


class InputDomainError(PricingError):
    """Inputs are outside the mathematical domain of the requested quantity."""

    code = "DomainError"


class NumericalOverflowError(PricingError):
    """A result is finite in exact arithmetic but beyond the floating-point range."""

    code = "Overflow"


class CenteringFailureError(PricingError):
    """The centered source term fails to integrate to zero against the density."""

    code = "CenteringFailure"


class ConfigError(PricingError):
    """Malformed run configuration (unknown key, bad type, missing entry)."""

    code = "ConfigError"


class ChainParseError(PricingError):
    """Structurally malformed quote chain file."""

    code = "ParseError"


class EmptyChainError(PricingError):
    """Chain file contained no usable quotes."""

    code = "EmptyChain"


class InsufficientDataError(PricingError):
    """Too few quotes, maturities or strikes for the requested fit."""

    code = "InsufficientData"


class NoInteriorMinimumError(PricingError):
    """A one-dimensional search pinned to a boundary of its bracket."""

    code = "NoInteriorMinimum"
