"""Parabolic approximation of the slow volatility factor.

With eta = 0 the slow factor follows its OU mean path
``m' + (z0 - m') exp(-k t)``.  For small ``k t`` that path is replaced by the
second-order arc ``z(t) = A t^2 + B t + C`` with

    A = (z0 - m') k^2 / 2,   B = -(z0 - m') k,   C = z0.

The remaining error term of the approximation is fixed to zero by policy;
its size is quantified by :func:`truncation_report` instead of being modelled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SingularTimeError
from .params import ModelParams

__all__ = [
    "ParabolicSlowFactor",
    "parabolic_coefficients",
    "truncation_report",
    "TruncationReport",
    "gamma_coefficient",
    "l2_time_coefficient_check",
]

#: Relative floor under which time denominators count as singular.
SINGULAR_FLOOR = 1e-12


class ParabolicSlowFactor(NamedTuple):
    """Coefficients of the arc ``z(t) = a_coef t^2 + b_coef t + c_coef``; an
    immutable named tuple."""

    a_coef: float
    b_coef: float
    c_coef: float

    def value(self, t):
        """Arc value at time ``t`` (scalar or array)."""
        return (self.a_coef * t + self.b_coef) * t + self.c_coef


def parabolic_coefficients(p: ModelParams) -> ParabolicSlowFactor:
    """Arc coefficients matching the OU mean path to second order at t = 0.

    The one formula of the arc; ``ModelParams.arc`` keeps its value per model.
    """
    gap = p.z0 - p.m_prime
    return ParabolicSlowFactor(
        a_coef=gap * p.k * p.k / 2.0,
        b_coef=-gap * p.k,
        c_coef=p.z0,
    )


@dataclass(frozen=True)
class TruncationReport:
    """Pointwise gap between the OU mean path and its parabolic arc.

    ``bound`` is the third-order Taylor remainder envelope
    ``|z0 - m'| (k t)^3 / 6``; ``bound_applies`` records whether the regime
    ``k t <= 1`` in which the bound holds was active, and ``within_bound``
    whether ``abs_error`` met it there (up to rounding).  Outside that regime
    ``within_bound`` is False: no claim is made.
    """

    t: float
    exact_mean: float
    parabolic_value: float
    abs_error: float
    bound: float
    bound_applies: bool
    within_bound: bool


def truncation_report(p: ModelParams, t: float) -> TruncationReport:
    """Compare the exact OU mean with the arc at time ``t`` (t >= 0)."""
    if t < 0.0:
        raise ValueError(f"t = {t:g} must be >= 0")
    gap = p.z0 - p.m_prime
    exact = p.m_prime + gap * math.exp(-p.k * t)
    approx = p.arc.value(t)
    err = abs(exact - approx)
    kt = p.k * t
    bound = abs(gap) * kt**3 / 6.0
    applies = kt <= 1.0
    return TruncationReport(
        t=t,
        exact_mean=exact,
        parabolic_value=approx,
        abs_error=err,
        bound=bound,
        bound_applies=applies,
        # Lagrange remainder of the degree-2 Taylor polynomial of exp(-kt).
        within_bound=applies and err <= bound * (1.0 + 1e-12) + 1e-15,
    )


def gamma_coefficient(k: float, t: float) -> float:
    """Time coefficient ``(1 - kt + (kt)^2/2) / (1 - kt)``.

    Raises:
        SingularTimeError: when ``|1 - k t|`` is below ``SINGULAR_FLOOR``.
    """
    kt = k * t
    den = 1.0 - kt
    if abs(den) < SINGULAR_FLOOR:
        raise SingularTimeError(
            f"|1 - k*t| = {abs(den):.3g} below floor {SINGULAR_FLOOR:g} (k*t = {kt:g})"
        )
    return (1.0 - kt + 0.5 * kt * kt) / den


def l2_time_coefficient_check(p: ModelParams, t: float) -> tuple[float, float]:
    """Consistency check on the effective time coefficient along the arc.

    Returns the pair ``(direct, gamma_form)`` where

    * ``direct``     = ``1 + k (m' - z(t)) / (2 A t + B)`` evaluated from the
      arc coefficients, and
    * ``gamma_form`` = ``1 + gamma_coefficient(k, t)``.

    The two agree identically in exact arithmetic; the pair is exposed so
    callers can assert the numerical agreement.
    """
    # The arc slope 2*A*t + B vanishes exactly where 1 - k*t does, so a single
    # singularity guard (inside gamma_coefficient) covers both forms.
    gamma_form = 1.0 + gamma_coefficient(p.k, t)
    arc = p.arc
    slope = 2.0 * arc.a_coef * t + arc.b_coef
    direct = 1.0 + p.k * (p.m_prime - arc.value(t)) / slope
    return direct, gamma_form
