"""Classical Black-Scholes call pricing, greeks and the x(x^2 C_xx)_x operator.

The functions price one contract with :mod:`math`, so pricing loads no numpy.
The numpy kernel that prices a whole chain at one volatility
(``call_and_d1d2`` from per-contract ``CallConstants``) lives in
:mod:`parabolic_sv.arrays`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputDomainError

__all__ = [
    "BsInputs",
    "Greeks",
    "bs_call_price",
    "bs_greeks",
    "d1d2_call",
    "norm_cdf",
    "norm_pdf",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    """Standard normal CDF from ``math.erfc``, which keeps the lower tail relative-accurate."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class BsInputs:
    """Inputs of the classical call formula.

    ``sigma`` and ``tau`` may be zero, in which case only the price (not the
    greeks) is defined and collapses to its deterministic boundary value.
    """

    spot: float
    strike: float
    rate: float
    sigma: float
    tau: float

    def __post_init__(self):
        for name in ("spot", "strike", "rate", "sigma", "tau"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or not math.isfinite(float(val)):
                raise InputDomainError(f"{name} = {val!r} is not a finite number")
        if self.spot <= 0.0:
            raise InputDomainError(f"spot = {self.spot:g} must be > 0")
        if self.strike <= 0.0:
            raise InputDomainError(f"strike = {self.strike:g} must be > 0")
        if self.sigma < 0.0:
            raise InputDomainError(f"sigma = {self.sigma:g} must be >= 0")
        if self.tau < 0.0:
            raise InputDomainError(f"tau = {self.tau:g} must be >= 0")
        try:
            math.exp(-self.rate * self.tau)
        except OverflowError:
            raise InputDomainError(
                f"discount factor exp(-r * tau) overflows at r = {self.rate!r}, tau = {self.tau!r}"
            ) from None


class Greeks(NamedTuple):
    delta: float
    gamma: float
    vega: float
    theta: float  # in calendar time: d(price)/dt at fixed maturity


def _d1_d2(inp: BsInputs) -> tuple[float, float, float]:
    st = inp.sigma * math.sqrt(inp.tau)
    d1 = (math.log(inp.spot / inp.strike) + (inp.rate + 0.5 * inp.sigma**2) * inp.tau) / st
    return d1, d1 - st, st


def bs_call_price(inp: BsInputs) -> float:
    """European call value; degenerate sigma/tau collapse to the forward bound."""
    if inp.tau == 0.0:
        return max(inp.spot - inp.strike, 0.0)
    disc_k = inp.strike * math.exp(-inp.rate * inp.tau)
    if inp.sigma == 0.0:
        return max(inp.spot - disc_k, 0.0)
    d1, d2, _ = _d1_d2(inp)
    return inp.spot * norm_cdf(d1) - disc_k * norm_cdf(d2)


def _require_interior(inp: BsInputs, what: str) -> None:
    if inp.tau == 0.0 or inp.sigma == 0.0:
        raise InputDomainError(f"{what} undefined at sigma = {inp.sigma:g}, tau = {inp.tau:g}")


def bs_greeks(inp: BsInputs) -> Greeks:
    """Closed-form delta, gamma, vega and calendar theta of the call."""
    _require_interior(inp, "greeks")
    d1, d2, st = _d1_d2(inp)
    sqrt_tau = math.sqrt(inp.tau)
    pdf1 = norm_pdf(d1)
    disc_k = inp.strike * math.exp(-inp.rate * inp.tau)
    return Greeks(
        delta=norm_cdf(d1),
        gamma=pdf1 / (inp.spot * st),
        vega=inp.spot * pdf1 * sqrt_tau,
        theta=-inp.spot * pdf1 * inp.sigma / (2.0 * sqrt_tau) - inp.rate * disc_k * norm_cdf(d2),
    )


def d1d2_call(inp: BsInputs) -> float:
    """Value of x d/dx (x^2 d^2/dx^2) applied to the call price.

    Closed form: ``x n(d1)/(sigma sqrt(tau)) * (1 - d1/(sigma sqrt(tau)))``.
    """
    _require_interior(inp, "d1d2_call")
    d1, _, st = _d1_d2(inp)
    return inp.spot * norm_pdf(d1) / st * (1.0 - d1 / st)
