"""Exception types shared across the package.

Every error states the process exit code it maps to (``exit_code``): 2 for
bad input, 3 for a numerical failure, 4 for too little data.  The CLI returns
that code, so this module is the one home of the mapping.
"""
from __future__ import annotations

from dataclasses import dataclass


class PricingError(Exception):
    """Base class for all package-specific failures; a failure of no more
    specific class counts as numerical."""

    exit_code = 3


@dataclass(frozen=True)
class Violation:
    """One invariant violation found while validating user inputs."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class InvalidModelError(PricingError):
    """Raised when parameter validation fails; aggregates every violation."""

    exit_code = 2

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class SingularTimeError(PricingError):
    """A time-dependent denominator has been driven onto its singularity."""

    exit_code = 3


class LogDomainError(PricingError):
    """A logarithm argument is outside (0, inf)."""

    exit_code = 3


class InputDomainError(PricingError):
    """Inputs are outside the mathematical domain of the requested quantity."""

    exit_code = 2


class NumericalOverflowError(PricingError):
    """A result is finite in exact arithmetic but beyond the floating-point range."""

    exit_code = 3


class CenteringFailureError(PricingError):
    """The centered source term fails to integrate to zero against the density."""

    exit_code = 3


class ConfigError(PricingError):
    """Malformed run configuration (unknown key, bad type, missing entry)."""

    exit_code = 2


class ChainParseError(PricingError):
    """Structurally malformed quote chain file."""

    exit_code = 2


class EmptyChainError(PricingError):
    """Chain file contained no usable quotes."""

    exit_code = 4


class InsufficientDataError(PricingError):
    """Too few quotes, maturities or strikes for the requested fit."""

    exit_code = 4


class NoInteriorMinimumError(PricingError):
    """A one-dimensional search pinned to a boundary of its bracket."""

    exit_code = 3
