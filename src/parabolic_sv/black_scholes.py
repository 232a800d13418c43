"""Classical Black-Scholes call pricing, greeks and the x(x^2 C_xx)_x operator.

The functions price one contract with :mod:`math`, so pricing loads no numpy.
:func:`call_and_d1d2_at` is the one formula of the call value and D1D2: it
takes a contract's :func:`call_constants` and a volatility, computes ``d1``
once and checks nothing.  Calibration, ``implied_vol`` and the pricer, whose
inputs are checked already, compute a contract's constants once and call it
directly.  :func:`bs_call_and_d1d2` computes the constants and calls it for
one contract; :func:`bs_call_price` and :func:`d1d2_call` wrap that behind
the checked :class:`BsInputs` and its degenerate branches, where
``sigma sqrt(tau)`` is 0.  The check helpers (``check_finite``,
``check_discount``, ``check_interior``) are shared with the pricer, so each
message has one home.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputDomainError, NumericalOverflowError

__all__ = [
    "BsInputs",
    "Greeks",
    "bs_call_and_d1d2",
    "bs_call_price",
    "bs_greeks",
    "call_and_d1d2_at",
    "call_constants",
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
    """Refuse, naming ``what``, the inputs where the kernel's ``d1`` is
    undefined.

    Raises:
        InputDomainError: where ``sigma sqrt(tau)`` is 0: at ``sigma = 0`` or
            ``tau = 0``, where only the call value is defined, and where the
            product underflows, since ``d1`` divides by it.
        NumericalOverflowError: where ``sigma^2``, which ``d1`` takes,
            overflows.
    """
    if sigma * math.sqrt(tau) == 0.0:
        why = "" if sigma == 0.0 or tau == 0.0 else " (sigma * sqrt(tau) underflows to 0)"
        raise InputDomainError(f"{what} undefined at sigma = {sigma:g}, tau = {tau:g}{why}")
    if sigma * sigma == math.inf:
        raise NumericalOverflowError(f"{what} undefined at sigma = {sigma:g}, tau = {tau:g} (sigma^2 overflows)")


class Greeks(NamedTuple):
    delta: float
    gamma: float
    vega: float
    theta: float  # in calendar time: d(price)/dt at fixed maturity


def call_constants(spot: float, strike: float, rate: float, tau: float) -> tuple[float, ...]:
    """The constants of one contract that :func:`call_and_d1d2_at` takes
    before the volatility: ``(spot, log(spot/strike), strike e^{-rate tau},
    rate, tau, sqrt(tau))``.

    Raises:
        InputDomainError: when ``spot / strike`` underflows to 0, where the
            log-moneyness is undefined.
        OverflowError: when ``exp(-rate tau)`` overflows; callers refuse it
            with :func:`check_discount`.
    """
    moneyness = spot / strike
    if moneyness == 0.0:
        raise InputDomainError(
            f"spot / strike = {spot:g} / {strike:g} underflows to 0; the log-moneyness is undefined"
        )
    return spot, math.log(moneyness), strike * math.exp(-rate * tau), rate, tau, math.sqrt(tau)


def call_and_d1d2_at(
    spot: float,
    log_moneyness: float,
    disc_strike: float,
    rate: float,
    tau: float,
    sqrt_tau: float,
    sigma: float,
) -> tuple[float, float]:
    """Call value and D1D2 of one contract, from its :func:`call_constants`
    and one ``d1``.

    Defined on interior inputs only (``sigma > 0``, ``tau > 0``) and checks
    nothing, so the caller validates first.  The call value is
    ``x N(d1) - K e^{-r tau} N(d2)`` and D1D2 the closed form
    ``x n(d1)/(sigma sqrt(tau)) * (1 - d1/(sigma sqrt(tau)))``, with
    :func:`norm_cdf` and :func:`norm_pdf` written out.  Where ``n(d1)``
    underflows to 0, D1D2 is its limit, a zero of the sign of
    ``1 - d1/(sigma sqrt(tau))``: at a tiny ``sigma`` that ratio overflows,
    and the product would read ``0 * inf``.
    """
    st = sigma * sqrt_tau
    d1 = (log_moneyness + (rate + 0.5 * sigma**2) * tau) / st
    call = spot * (0.5 * math.erfc(-d1 / _SQRT2)) - disc_strike * (0.5 * math.erfc(-(d1 - st) / _SQRT2))
    pdf = math.exp(-0.5 * d1 * d1) / _SQRT_2PI
    if not pdf:
        return call, math.copysign(0.0, 1.0 - d1 / st)
    return call, spot * pdf / st * (1.0 - d1 / st)


def bs_call_and_d1d2(
    spot: float, strike: float, rate: float, sigma: float, tau: float
) -> tuple[float, float]:
    """Call value and D1D2 of one contract: :func:`call_and_d1d2_at` on the
    contract's :func:`call_constants`.  Checks nothing, as that does."""
    return call_and_d1d2_at(*call_constants(spot, strike, rate, tau), sigma)


def bs_call_price(inp: BsInputs) -> float:
    """European call value; degenerate sigma/tau collapse to the forward bound,
    and so does a ``sigma sqrt(tau)`` that underflows to 0.  A ``sigma`` whose
    square overflows is refused by :func:`check_interior`."""
    if inp.tau == 0.0:
        return max(inp.spot - inp.strike, 0.0)
    if inp.sigma * math.sqrt(inp.tau) == 0.0:
        return max(inp.spot - inp.strike * math.exp(-inp.rate * inp.tau), 0.0)
    check_interior(inp.sigma, inp.tau, "bs_call_price")
    return bs_call_and_d1d2(inp.spot, inp.strike, inp.rate, inp.sigma, inp.tau)[0]


def bs_greeks(inp: BsInputs) -> Greeks:
    """Closed-form delta, gamma, vega and calendar theta of the call."""
    check_interior(inp.sigma, inp.tau, "greeks")
    _, log_moneyness, disc_k, _, _, sqrt_tau = call_constants(inp.spot, inp.strike, inp.rate, inp.tau)
    st = inp.sigma * sqrt_tau
    d1 = (log_moneyness + (inp.rate + 0.5 * inp.sigma**2) * inp.tau) / st
    pdf1 = norm_pdf(d1)
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
