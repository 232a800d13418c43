"""Classical Black-Scholes call pricing, greeks and the x(x^2 C_xx)_x operator.

The functions price one contract with :mod:`math`, so pricing loads no numpy.
:func:`bs_call_and_d1d2` is the one scalar formula of the call value and
D1D2: it takes raw floats, computes ``d1`` once and checks nothing.
:func:`bs_call_price` and :func:`d1d2_call` wrap it behind the checked
:class:`BsInputs` and its degenerate ``sigma = 0`` / ``tau = 0`` branches;
the pricer and ``implied_vol``, whose inputs are checked already, call it
directly.  The check helpers (``check_finite``, ``check_discount``,
``check_interior``) are shared with them, so each message has one home.
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
    "bs_call_and_d1d2",
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
            check_finite(name, getattr(self, name))
        if self.spot <= 0.0:
            raise InputDomainError(f"spot = {self.spot:g} must be > 0")
        if self.strike <= 0.0:
            raise InputDomainError(f"strike = {self.strike:g} must be > 0")
        if self.sigma < 0.0:
            raise InputDomainError(f"sigma = {self.sigma:g} must be >= 0")
        if self.tau < 0.0:
            raise InputDomainError(f"tau = {self.tau:g} must be >= 0")
        check_discount(self.rate, self.tau)


def check_finite(name: str, val) -> None:
    """Raise :class:`InputDomainError` unless ``val`` is a finite int or float."""
    if not isinstance(val, (int, float)) or not math.isfinite(float(val)):
        raise InputDomainError(f"{name} = {val!r} is not a finite number")


def check_discount(rate: float, tau: float) -> None:
    """Raise :class:`InputDomainError` when ``exp(-rate * tau)`` overflows."""
    try:
        math.exp(-rate * tau)
    except OverflowError:
        raise InputDomainError(
            f"discount factor exp(-r * tau) overflows at r = {rate!r}, tau = {tau!r}"
        ) from None


def check_interior(sigma: float, tau: float, what: str) -> None:
    """Raise :class:`InputDomainError`, naming ``what``, at ``sigma = 0`` or
    ``tau = 0``, where only the call value is defined."""
    if tau == 0.0 or sigma == 0.0:
        raise InputDomainError(f"{what} undefined at sigma = {sigma:g}, tau = {tau:g}")


class Greeks(NamedTuple):
    delta: float
    gamma: float
    vega: float
    theta: float  # in calendar time: d(price)/dt at fixed maturity


def _d1(spot: float, strike: float, rate: float, sigma: float, tau: float) -> tuple[float, float]:
    """``(d1, sigma sqrt(tau))``."""
    st = sigma * math.sqrt(tau)
    return (math.log(spot / strike) + (rate + 0.5 * sigma**2) * tau) / st, st


def bs_call_and_d1d2(
    spot: float, strike: float, rate: float, sigma: float, tau: float
) -> tuple[float, float]:
    """Call value and D1D2 of one contract from one ``d1``.

    Defined on interior inputs only (``sigma > 0``, ``tau > 0``) and checks
    nothing, so the caller validates first.  D1D2 is the closed form
    ``x n(d1)/(sigma sqrt(tau)) * (1 - d1/(sigma sqrt(tau)))``.
    """
    d1, st = _d1(spot, strike, rate, sigma, tau)
    call = spot * norm_cdf(d1) - strike * math.exp(-rate * tau) * norm_cdf(d1 - st)
    return call, spot * norm_pdf(d1) / st * (1.0 - d1 / st)


def bs_call_price(inp: BsInputs) -> float:
    """European call value; degenerate sigma/tau collapse to the forward bound."""
    if inp.tau == 0.0:
        return max(inp.spot - inp.strike, 0.0)
    if inp.sigma == 0.0:
        return max(inp.spot - inp.strike * math.exp(-inp.rate * inp.tau), 0.0)
    return bs_call_and_d1d2(inp.spot, inp.strike, inp.rate, inp.sigma, inp.tau)[0]


def bs_greeks(inp: BsInputs) -> Greeks:
    """Closed-form delta, gamma, vega and calendar theta of the call."""
    check_interior(inp.sigma, inp.tau, "greeks")
    d1, st = _d1(inp.spot, inp.strike, inp.rate, inp.sigma, inp.tau)
    sqrt_tau = math.sqrt(inp.tau)
    pdf1 = norm_pdf(d1)
    disc_k = inp.strike * math.exp(-inp.rate * inp.tau)
    return Greeks(
        delta=norm_cdf(d1),
        gamma=pdf1 / (inp.spot * st),
        vega=inp.spot * pdf1 * sqrt_tau,
        theta=-inp.spot * pdf1 * inp.sigma / (2.0 * sqrt_tau) - inp.rate * disc_k * norm_cdf(d1 - st),
    )


def d1d2_call(inp: BsInputs) -> float:
    """Value of x d/dx (x^2 d^2/dx^2) applied to the call price.

    Closed form: ``x n(d1)/(sigma sqrt(tau)) * (1 - d1/(sigma sqrt(tau)))``.
    """
    check_interior(inp.sigma, inp.tau, "d1d2_call")
    return bs_call_and_d1d2(inp.spot, inp.strike, inp.rate, inp.sigma, inp.tau)[1]
