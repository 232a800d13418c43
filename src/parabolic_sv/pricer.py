"""First-order asymptotic call price under the parabolic slow-factor model.

The price is assembled from three ingredients evaluated along the parabolic
arc z(t):

* ``Q0``   -- the classical call value at the effective volatility
  sigma_bar(z(t)), frozen pointwise at the valuation date;
* ``1+g``  -- a deterministic modification factor
  ``|kt - 2|^((a - 2r)/k) * exp((2r - a)/(k |kt - 2|)) / exp((2r - a) t / 2)``
  carrying the empirical constant ``a``;
* a first-order correction ``sqrt(epsilon) * time_factor * V * D1D2 Q0`` with
  ``time_factor = 2 [ (1/k) log((kT-2)/(kt-2)) + (T-t)/((kT-2)(kt-2)) ]`` and
  ``D1D2 = x d/dx (x^2 d^2/dx^2)``.

Combined: ``total = (1+g) * (Q0 + sqrt(epsilon) * time_factor * V * D1D2 Q0)``.

:func:`price_first_order` makes one checked pass per contract.  ``OptionSpec``
and ``ModelParams`` have checked the spot, the strike, the dates and ``r``,
and the model keeps its arc (``ModelParams.arc``), so the arc is built once
per model.  Three terms depend only on the model and the valuation date:
the arc level ``z(t)``, the averaged ``sigma_bar`` and ``V`` at it, and the
modification factor ``1+g``.  With an ``AveragingCache`` they are computed
once per ``(vol, model, t)``, so a warm price is one lookup for its date plus
the contract's own work; a refused factor is stored as refused and raised
at its place in each contract's check order.  Only the averaged
``sigma_bar`` and the discount factor are checked here, with the messages
and in the order of ``BsInputs``.  The contract's
:func:`~parabolic_sv.black_scholes.call_constants` take the one
``exp(-r tau)``, whose overflow is refused with ``check_discount``'s message,
and ``Q0`` and ``D1D2`` come from one ``d1`` of
:func:`~parabolic_sv.black_scholes.call_and_d1d2_at`.  Where the kernel is
undefined the price is refused with :class:`InputDomainError`: where
``sigma_bar sqrt(tau)`` is 0, including where the product underflows, and
where D1D2 is not finite (a tiny ``sigma_bar sqrt(tau)`` sends it past the
float range, and the correction would read ``0 * inf``).  Where
``sigma_bar^2`` overflows, ``check_interior`` refuses it with
:class:`NumericalOverflowError`.  The result is a :class:`PriceBreakdown`,
an immutable named tuple.

The modification factor does *not* tend to one at expiry, so the formula's own
t -> T limit disagrees with the payoff; valuation exactly at t = T therefore
short-circuits to the payoff.  The residual of the modified pricing operator
on the assembled P0 is likewise nonzero by construction and is exposed as a
diagnostic, not asserted.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .averaging import AveragingCache, EffectiveParams, VolFunction, effective_params
from .black_scholes import (
    BsInputs,
    bs_call_price,
    call_and_d1d2_at,
    call_constants,
    check_discount,
    check_finite,
    check_interior,
)
from .errors import InputDomainError, LogDomainError, NumericalOverflowError, PricingError, SingularTimeError
from .params import ModelParams, OptionSpec
from .slow_factor import SINGULAR_FLOOR, gamma_coefficient

#: Central-difference steps of :func:`p0_pde_residual`: relative in the spot,
#: absolute (per year of maturity) in time.
_DX_REL = 1e-4
_DT_ABS = 1e-5

_NORMAL_MIN = sys.float_info.min

__all__ = [
    "PriceBreakdown",
    "factor_exponent",
    "modification_factor",
    "p1_time_factor",
    "price_first_order",
    "p0_pde_residual",
]


def modification_factor(t: float, a: float, r: float, k: float) -> float:
    """Deterministic multiplier ``1+g`` applied to the classical price:
    ``exp((a - 2r) * factor_exponent(t, k))``, so large opposite terms of the
    exponent cancel before exponentiation.

    Raises:
        SingularTimeError: when ``|k t - 2|`` is below ``SINGULAR_FLOOR``.
        NumericalOverflowError: when the factor itself exceeds the float range.
    """
    log_factor = (a - 2.0 * r) * factor_exponent(t, k)
    try:
        return math.exp(log_factor)
    except OverflowError:
        raise NumericalOverflowError(
            f"modification factor e^{log_factor:.6g} overflows (a = {a:g}, r = {r:g}, k = {k:g}, t = {t:g})"
        ) from None


def _pricing_factor(t: float, model: ModelParams) -> float:
    """:func:`modification_factor` of ``model`` at ``t``, refused unless it
    is a finite normal float: a factor below the smallest normal float has
    lost its digits, and at 0 it would multiply every price to 0.  ``exp``
    raises no error where its exponent is itself infinite or NaN (a tiny
    ``k`` times a huge ``a``), and returns inf or NaN.

    Raises:
        NumericalOverflowError: when the factor overflows, underflows or is
            not a number.
    """
    mod = modification_factor(t, model.a, model.r, model.k)
    if not _NORMAL_MIN <= mod < math.inf:
        why = "underflows" if mod < _NORMAL_MIN else "is not finite"
        raise NumericalOverflowError(
            f"modification factor {mod:g} {why} (a = {model.a:g}, r = {model.r:g}, "
            f"k = {model.k:g}, t = {t:g})"
        )
    return mod


def factor_exponent(t: float, k: float) -> float:
    """Exponent of :func:`modification_factor` per unit of ``a - 2r``:
    ``log(q)/k - 1/(k q) + t/2`` with ``q = |k t - 2|``.

    Raises:
        SingularTimeError: when ``|k t - 2|`` is below ``SINGULAR_FLOOR``.
    """
    q = abs(k * t - 2.0)
    if q < SINGULAR_FLOOR:
        raise SingularTimeError(f"|k*t - 2| = {q:.3g} below floor {SINGULAR_FLOOR:g}")
    return math.log(q) / k - 1.0 / (k * q) + t / 2.0


def p1_time_factor(t: float, maturity: float, k: float) -> float:
    """Maturity-dependent coefficient of the first-order correction.

    ``2 [ (1/k) log((kT-2)/(kt-2)) + (T-t) / ((kT-2)(kt-2)) ]``; identically
    zero at t = T.  The log is taken as ``log1p(k (T-t) / (kt-2))``, so the
    factor keeps full accuracy as ``k -> 0``, where it tends to ``-(T-t)/2``.

    Raises:
        SingularTimeError: if either denominator ``k t - 2`` / ``k T - 2`` is
            within ``SINGULAR_FLOOR`` of zero.
        LogDomainError: if the log argument is not positive (the valuation and
            maturity dates straddle the singular time 2/k).
    """
    dt_ = k * t - 2.0
    dT = k * maturity - 2.0
    if abs(dt_) < SINGULAR_FLOOR or abs(dT) < SINGULAR_FLOOR:
        raise SingularTimeError(f"|k*t - 2| = {abs(dt_):.3g}, |k*T - 2| = {abs(dT):.3g}; singular")
    ratio = dT / dt_
    if ratio <= 0.0:
        raise LogDomainError(f"(kT-2)/(kt-2) = {ratio:.3g} <= 0; t and T straddle 2/k")
    return 2.0 * (math.log1p(k * (maturity - t) / dt_) / k + (maturity - t) / (dT * dt_))


class PriceBreakdown(NamedTuple):
    """All components of the first-order price at one valuation date."""

    z: float
    sigma_bar: float
    q0: float
    mod_factor: float
    p0: float
    time_factor: float
    v: float
    d1d2: float
    correction: float
    total: float


def _require_regular_horizon(model: ModelParams, spec: OptionSpec) -> None:
    if model.k * spec.maturity >= 2.0 - SINGULAR_FLOOR:
        raise SingularTimeError(
            f"k * maturity = {model.k * spec.maturity:g} reaches the singular time 2/k; "
            "the correction's log form requires k * maturity < 2"
        )


def _date_terms(
    vol: VolFunction, model: ModelParams, t: float, cache: AveragingCache | None
) -> tuple[float, EffectiveParams, float | None]:
    """The terms of the price that depend only on the model and the valuation
    date: the arc level ``z``, the averaged :class:`EffectiveParams` at it
    (with ``sigma_bar`` checked finite, as ``BsInputs`` checks it first), and
    the modification factor, ``None`` where :func:`_pricing_factor` refuses
    it; the contract raises that refusal at its own place in the check order.

    Only a table's averaging takes the cache, which keeps its moments for
    every date; a closed form costs less to recompute than to look up.
    """
    z = float(model.arc.value(t))
    eff = effective_params(vol, z, model, cache=cache if vol.kind == "tabulated" else None)
    check_finite("sigma", eff.sigma_bar)
    try:
        mod = _pricing_factor(t, model)
    except PricingError:
        mod = None
    return z, eff, mod


def price_first_order(
    spec: OptionSpec,
    model: ModelParams,
    vol: VolFunction,
    *,
    cache: AveragingCache | None = None,
) -> PriceBreakdown:
    """First-order price ``mod * (q0 + sqrt(eps) * tf * V * dd)`` with its components.

    ``p0 = mod * q0`` is the leading order.  At ``t = maturity`` the price is
    the payoff, and the factor it reports is checked as at any other date.
    With a ``cache``, the terms of the valuation date are
    computed once per ``(vol, model, t)`` and shared by every contract priced
    on that date.

    Raises:
        InputDomainError: when ``sigma_bar`` is not finite, when
            ``spot / strike`` underflows to 0, when the discount factor
            ``exp(-r tau)`` overflows, when ``sigma_bar sqrt(tau)`` is 0, or
            when D1D2 is not finite.
        NumericalOverflowError: when ``sigma_bar^2`` overflows, or when the
            modification factor is not a finite normal float.
    """
    _require_regular_horizon(model, spec)
    t = spec.t
    if t == spec.maturity:
        payoff = max(spec.spot - spec.strike, 0.0)
        return PriceBreakdown(
            z=model.arc.value(t),
            sigma_bar=math.nan,
            q0=payoff,
            mod_factor=_pricing_factor(t, model),
            p0=payoff,
            time_factor=0.0,
            v=0.0,
            d1d2=0.0,
            correction=0.0,
            total=payoff,
        )

    if cache is None:
        z, eff, mod = _date_terms(vol, model, t, None)
    else:
        z, eff, mod = cache.get_or_compute((vol, model, t), lambda: _date_terms(vol, model, t, cache))
    sigma, tau = eff.sigma_bar, spec.tau
    # tau > 0 past the payoff branch, and sigma is checked finite with its
    # date; the other checks of BsInputs that can still fail, in its order
    try:
        consts = call_constants(spec.spot, spec.strike, model.r, tau)
    except OverflowError:  # of exp(-r tau), the one call here that can raise it
        check_discount(model.r, tau)
        raise
    check_interior(sigma, tau, "d1d2_call")
    q0, dd = call_and_d1d2_at(*consts, sigma)
    if not math.isfinite(dd):
        raise InputDomainError(
            f"D1D2 = {dd:g} is not finite at sigma = {sigma:g}, tau = {tau:g}; "
            "the first-order correction is undefined"
        )
    tf = p1_time_factor(t, spec.maturity, model.k)
    if mod is None:
        mod = _pricing_factor(t, model)  # raises its refusal here, after tf
    total = mod * (q0 + math.sqrt(model.epsilon) * tf * eff.v * dd)
    p0_val = mod * q0
    return PriceBreakdown(z, sigma, q0, mod, p0_val, tf, eff.v, dd, total - p0_val, total)


def p0_pde_residual(
    spec: OptionSpec,
    model: ModelParams,
    eff: EffectiveParams,
    *,
    classical: bool = False,
) -> float:
    """Residual of the modified pricing operator on P0, by central differences.

    Evaluates ``(1 + gamma) dP0/dt + 0.5 sigma_bar^2 x^2 d2P0/dx2 +
    r (x dP0/dx - P0)`` at the valuation point with sigma_bar frozen at the
    level carried by ``eff``, normalized by ``r * P0``.  Nonzero in general;
    ``classical`` sets gamma = 0 and the modification factor to one, which
    reduces the operator and P0 to the classical ones, for which the residual
    is a pure finite-difference error.

    Requires an interior valuation date ``0 < t < maturity``.
    """
    if not 0.0 < spec.t < spec.maturity:
        raise InputDomainError(f"need 0 < t < maturity for the residual, got t = {spec.t:g}")
    _require_regular_horizon(model, spec)

    sb = eff.sigma_bar

    def price(s: float, x: float) -> float:
        mod = 1.0 if classical else _pricing_factor(s, model)
        return mod * bs_call_price(BsInputs(x, spec.strike, model.r, sb, spec.maturity - s))

    gamma = 0.0 if classical else gamma_coefficient(model.k, spec.t)
    t, x = spec.t, spec.spot
    ht = min(_DT_ABS * max(1.0, spec.maturity), 0.45 * t, 0.45 * (spec.maturity - t))
    hx = _DX_REL * x

    p_mid = price(t, x)
    dp_dt = (price(t + ht, x) - price(t - ht, x)) / (2.0 * ht)
    dp_dx = (price(t, x + hx) - price(t, x - hx)) / (2.0 * hx)
    d2p_dx2 = (price(t, x + hx) - 2.0 * p_mid + price(t, x - hx)) / (hx * hx)

    residual = (
        (1.0 + gamma) * dp_dt
        + 0.5 * sb * sb * x * x * d2p_dx2
        + model.r * (x * dp_dx - p_mid)
    )
    return residual / max(abs(model.r * p_mid), 1e-300)
