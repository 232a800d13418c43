"""Chain loading and calibration of the modification constant and effective terms.

Two fitting modes:

* :func:`estimate_a` -- one-dimensional golden-section fit of the empirical
  constant ``a`` with everything else held fixed: the effective volatility is
  pinned from the nearest-the-money implied vol and each quote is modelled as
  ``modification_factor(t; a, r, k) * Q0``.
* :func:`calibrate_effective` -- derivative-free simplex fit of
  ``(a, k, v_eff, sigma_bar)`` where ``v_eff = sqrt(epsilon) * V`` enters the
  quote model ``M * (Q0 + v_eff * time_factor * D1D2 Q0)``.  Seeded random
  restarts inside the bound box keep the search deterministic per seed.

``k`` is weakly identified by a single-date chain (it trades off against ``a``
through the factor level and against ``v_eff`` through the time factor), so
only its bound box is guaranteed; see the per-strike diagnostic on
:class:`AEstimate` for the corresponding spread in ``a``.
"""
from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, minimize

from .black_scholes import BsInputs, CallConstants, bs_call_price, call_and_d1d2
from .errors import (
    ChainParseError,
    EmptyChainError,
    InputDomainError,
    InsufficientDataError,
    LogDomainError,
    NoInteriorMinimumError,
    NumericalOverflowError,
    PricingError,
    SingularTimeError,
)
from .pricer import modification_factor, p1_time_factor

__all__ = [
    "OptionQuote",
    "AEstimate",
    "CalibResult",
    "load_chain",
    "estimate_a",
    "calibrate_effective",
    "effective_quote_price",
    "implied_vol",
]

log = logging.getLogger(__name__)

CHAIN_HEADER = ("t", "T", "K", "mid", "x", "r")

#: Half-width of the excluded band around a = 2r in the a-searches.
A_EXCLUSION = 1e-4
#: How far a mid may sit below the discounted intrinsic value before
#: load_chain rejects its row.
INTRINSIC_TOL = 1e-6
#: Iteration cap of each Nelder-Mead descent in calibrate_effective.
SIMPLEX_MAX_ITER = 4000

DEFAULT_BOUNDS = {
    "a": (-0.5, 0.5),
    "k": (1e-6, 1.0),
    "v_eff": (-5.0, 5.0),
    "sigma_bar": (0.01, 2.0),
}


@dataclass(frozen=True)
class OptionQuote:
    """One observed call quote: valuation date t, maturity T, strike, mid, spot, rate."""

    t: float
    maturity: float
    strike: float
    mid: float
    spot: float
    rate: float

    def __post_init__(self):
        for name in ("t", "maturity", "strike", "mid", "spot", "rate"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise InputDomainError(f"{name} = {v!r} is not a finite number")
        if self.maturity <= self.t:
            raise InputDomainError(f"T = {self.maturity:g} must exceed t = {self.t:g}")
        if self.spot <= 0 or self.strike <= 0:
            raise InputDomainError("spot and strike must be positive")

    @property
    def tau(self) -> float:
        return self.maturity - self.t

    def intrinsic(self) -> float:
        return max(self.spot - self.strike * math.exp(-self.rate * self.tau), 0.0)


def load_chain(path) -> list[OptionQuote]:
    """Read a delimited chain file with header ``t,T,K,mid,x,r``.

    Structurally malformed rows raise :class:`ChainParseError`; rows violating
    quote invariants (T <= t, non-positive spot/strike, mid below the
    discounted intrinsic bound) are rejected with a line-numbered warning.

    Raises:
        EmptyChainError: if no usable quote remains.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChainParseError(f"cannot read chain file {path}: {exc}") from exc

    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyChainError(f"{path}: empty file") from None
    if tuple(h.strip() for h in header) != CHAIN_HEADER:
        raise ChainParseError(
            f"{path}: header must be exactly {','.join(CHAIN_HEADER)!r}, got {','.join(header)!r}"
        )

    quotes: list[OptionQuote] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 6:
            raise ChainParseError(f"{path}: line {lineno}: expected 6 columns, got {len(row)}")
        try:
            t, mat, strike, mid, spot, rate = (float(v) for v in row)
        except ValueError as exc:
            raise ChainParseError(f"{path}: line {lineno}: {exc}") from None
        try:
            q = OptionQuote(t=t, maturity=mat, strike=strike, mid=mid, spot=spot, rate=rate)
        except InputDomainError as exc:
            log.warning("%s: line %d: %s; row rejected", path, lineno, exc)
            continue
        if q.mid <= q.intrinsic() - INTRINSIC_TOL:
            log.warning(
                "%s: line %d: mid %.10g below intrinsic bound %.10g; row rejected",
                path,
                lineno,
                q.mid,
                q.intrinsic(),
            )
            continue
        quotes.append(q)
    if not quotes:
        raise EmptyChainError(f"{path}: no usable quotes")
    return quotes


def implied_vol(price: float, spot: float, strike: float, rate: float, tau: float) -> float:
    """Black-Scholes implied volatility by bracketing; NaN when out of range."""
    lo, hi = 1e-9, 5.0
    f = lambda s: bs_call_price(BsInputs(spot, strike, rate, s, tau)) - price
    try:
        if f(lo) > 0 or f(hi) < 0:
            return math.nan
        return float(brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16))
    except ValueError:
        return math.nan


def _atm_sigma(quotes: list[OptionQuote]) -> float:
    """Implied vol of the quote nearest the money (fallbacks outward)."""
    order = sorted(quotes, key=lambda q: abs(q.strike - q.spot) / q.spot)
    for q in order:
        sig = implied_vol(q.mid, q.spot, q.strike, q.rate, q.tau)
        if math.isfinite(sig) and sig > 0:
            return sig
    raise InsufficientDataError("no quote admits an implied volatility")


def _golden_min(fn, lo: float, hi: float, iters: int = 200) -> tuple[float, float]:
    """Golden-section minimum of a unimodal fn on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if hi - lo < 1e-13 * max(1.0, abs(lo) + abs(hi)):
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fn(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


@dataclass(frozen=True)
class AEstimate:
    """Golden-section fit of the modification constant."""

    a_hat: float
    objective: float
    sigma_bar_used: float
    n_quotes: int
    per_strike: tuple[tuple[float, float], ...]  # (strike, a_hat restricted to it)


def _rate_of(quotes: list[OptionQuote], r: float | None) -> float:
    if r is not None:
        return float(r)
    rates = {q.rate for q in quotes}
    if len(rates) != 1:
        raise InputDomainError("quotes carry mixed rates; pass r explicitly")
    return rates.pop()


def estimate_a(
    quotes: list[OptionQuote],
    k: float,
    r: float | None = None,
    *,
    bounds: tuple[float, float] = DEFAULT_BOUNDS["a"],
) -> AEstimate:
    """Fit ``a`` alone by golden-section least squares.

    The effective volatility is fixed from the nearest-the-money implied vol;
    the quote model is ``modification_factor(t; a, r, k) * Q0``.  The band
    ``|a - 2r| < 1e-4`` is excluded from the search (the factor degenerates at
    its centre); landing on the band edge is allowed.

    Raises:
        InsufficientDataError: fewer than 2 quotes or fewer than 2 maturities.
        NoInteriorMinimumError: the optimum pinned to an outer bound.
    """
    if len(quotes) < 2 or len({q.maturity for q in quotes}) < 2:
        raise InsufficientDataError(
            f"need >= 2 quotes spanning >= 2 maturities, got {len(quotes)} quotes, "
            f"{len({q.maturity for q in quotes})} maturities"
        )
    rate = _rate_of(quotes, r)
    sigma = _atm_sigma(quotes)

    def sse_fn(sub: list[OptionQuote]):
        q0, _ = call_and_d1d2(_call_constants(sub), sigma)
        mids = np.array([q.mid for q in sub])
        ts = [q.t for q in sub]

        def sse(a: float) -> float:
            mods = np.array([modification_factor(t, a, rate, k) for t in ts])
            resid = mids - mods * q0
            return float(resid @ resid)

        return sse

    def search(sub: list[OptionQuote]) -> tuple[float, float]:
        sse = sse_fn(sub)
        lo, hi = bounds
        hole = 2.0 * rate
        pieces = []
        if lo < hole - A_EXCLUSION:
            pieces.append((lo, min(hi, hole - A_EXCLUSION)))
        if hi > hole + A_EXCLUSION:
            pieces.append((max(lo, hole + A_EXCLUSION), hi))
        if not pieces:  # bounds entirely inside the excluded band
            raise NoInteriorMinimumError("a-bounds lie inside the excluded band around 2r")
        best = min((_golden_min(sse, p_lo, p_hi) for p_lo, p_hi in pieces), key=lambda t: t[1])
        return best

    a_hat, obj = search(quotes)
    span = bounds[1] - bounds[0]
    if min(a_hat - bounds[0], bounds[1] - a_hat) < 1e-6 * span:
        raise NoInteriorMinimumError(
            f"a-fit pinned to bound {a_hat:.6g} of [{bounds[0]:g}, {bounds[1]:g}]"
        )

    per_strike = []
    for strike in sorted({q.strike for q in quotes}):
        sub = [q for q in quotes if q.strike == strike]
        try:
            a_k, _ = search(sub)
        except PricingError:
            a_k = math.nan
        per_strike.append((strike, a_k))

    return AEstimate(
        a_hat=a_hat,
        objective=obj,
        sigma_bar_used=sigma,
        n_quotes=len(quotes),
        per_strike=tuple(per_strike),
    )


def _call_constants(quotes: list[OptionQuote]) -> CallConstants:
    return CallConstants.of(
        [q.spot for q in quotes],
        [q.strike for q in quotes],
        [q.rate for q in quotes],
        [q.tau for q in quotes],
    )


def _require_sigma(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise InputDomainError(f"sigma_bar = {sigma!r} must be positive and finite")


def effective_quote_price(
    q: OptionQuote, a: float, k: float, v_eff: float, sigma_bar_val: float
) -> float:
    """Quote model of the effective fit: ``M * (Q0 + v_eff * tf * D1D2 Q0)``."""
    _require_sigma(sigma_bar_val)
    q0, dd = call_and_d1d2(_call_constants([q]), sigma_bar_val)
    tf = p1_time_factor(q.t, q.maturity, k)
    mod = modification_factor(q.t, a, q.rate, k)
    return float(mod * (q0[0] + v_eff * tf * dd[0]))


def _profiled_objective(
    quotes: list[OptionQuote], lo: np.ndarray, hi: np.ndarray, v_box: tuple[float, float]
):
    """Price-RMSE objective of :func:`calibrate_effective` over (a, k, sigma_bar)
    and the profiled ``v_eff`` behind it.

    The chain's constants are computed here once.  Per evaluation the
    modification and time factors are computed once per distinct (t, T, r)
    date and broadcast to its quotes; the rest is one vector expression.
    """
    mids = np.array([q.mid for q in quotes])
    bs = _call_constants(quotes)
    keys = [(q.t, q.maturity, q.rate) for q in quotes]
    dates = list(dict.fromkeys(keys))
    date_of = np.array([dates.index(key) for key in keys])
    rate_counts = Counter(2.0 * q.rate for q in quotes)
    n_quotes = len(quotes)
    a_lo, k_lo, s_lo = lo.tolist()
    a_hi, k_hi, s_hi = hi.tolist()
    v_lo, v_hi = v_box

    def profiled_v(a: float, k: float, sig: float) -> tuple[float, np.ndarray]:
        """Least-squares v_eff given the nonlinear parameters (model is linear in it)."""
        _require_sigma(sig)
        mod = np.array([modification_factor(t, a, r, k) for t, _, r in dates])
        mod_tf = mod * np.array([p1_time_factor(t, mat, k) for t, mat, _ in dates])
        call, dd = call_and_d1d2(bs, sig)
        base = mod[date_of] * call
        slope = mod_tf[date_of] * dd
        target = mids - base
        ss = float(slope @ slope)
        v = float(slope @ target) / ss if ss > 1e-300 else 0.0
        v = min(max(v, v_lo), v_hi)
        return v, target - v * slope

    def objective(theta: np.ndarray) -> float:
        a, k, sig = theta.tolist()
        if a < a_lo or a > a_hi or k < k_lo or k > k_hi or sig < s_lo or sig > s_hi:
            return 1e6 * (1.0 + float(np.sum(np.maximum(lo - theta, 0) + np.maximum(theta - hi, 0))))
        penalty = 0.0
        for two_r, count in rate_counts.items():
            gap = abs(a - two_r)
            if gap < A_EXCLUSION:
                penalty += count * 1e3 * (A_EXCLUSION - gap) / A_EXCLUSION
        try:
            _, resid = profiled_v(a, k, sig)
        except (SingularTimeError, LogDomainError, InputDomainError, NumericalOverflowError):
            return 1e9
        return math.sqrt(float(resid @ resid) / n_quotes) + penalty

    return objective, profiled_v


@dataclass(frozen=True)
class CalibResult:
    """Simplex fit of (a, k, v_eff, sigma_bar); objective is the price RMSE."""

    a_hat: float
    k_hat: float
    v_eff_hat: float
    sigma_bar_hat: float
    objective: float
    iterations: int
    converged: bool
    restart_objectives: tuple[float, ...]


def calibrate_effective(
    quotes: list[OptionQuote],
    *,
    bounds: dict | None = None,
    seed: int = 0,
    n_restarts: int = 3,
) -> CalibResult:
    """Joint fit of ``(a, k, v_eff, sigma_bar)`` to a quote chain.

    The model is linear in ``v_eff``, so it is profiled out exactly (clipped
    least squares) and the simplex searches only (a, k, sigma_bar).  Runs a
    data-driven start (ATM implied vol, neutral correction) plus
    ``n_restarts`` seeded random starts inside the bound box; each start is a
    chain of adaptive Nelder-Mead descents restarted on their own result until
    the objective stalls.  Deterministic for fixed (quotes, seed, bounds).

    Raises:
        InsufficientDataError: unless the chain has >= 4 quotes spanning
            >= 2 maturities and >= 2 strikes.
    """
    box = dict(DEFAULT_BOUNDS)
    if bounds:
        box.update(bounds)
    n_maturities = len({q.maturity for q in quotes})
    n_strikes = len({q.strike for q in quotes})
    if len(quotes) < 4 or n_maturities < 2 or n_strikes < 2:
        raise InsufficientDataError(
            f"need >= 4 quotes, >= 2 maturities and >= 2 strikes; got "
            f"{len(quotes)} quotes, {n_maturities} maturities, {n_strikes} strikes"
        )

    names = ("a", "k", "sigma_bar")
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    objective, profiled_v = _profiled_objective(quotes, lo, hi, box["v_eff"])

    rng = np.random.default_rng(seed)
    try:
        sigma_start = _atm_sigma(quotes)
    except InsufficientDataError:
        sigma_start = 0.2
    sigma_start = min(max(sigma_start, box["sigma_bar"][0]), box["sigma_bar"][1])
    # near a = 2r the factor is ~1 and the ATM implied vol alone reproduces the
    # chain, so both sides of the excluded band make strong data-driven starts
    r_mean = float(np.mean([q.rate for q in quotes]))
    starts = [
        np.array([2.0 * r_mean + off, 0.05, sigma_start]) for off in (0.01, -0.01)
    ]
    for _ in range(n_restarts):
        starts.append(lo + (hi - lo) * rng.random(3))

    best = None
    total_iters = 0
    restart_objs = []
    converged = False
    for idx, x0 in enumerate(starts):
        x, fval = np.asarray(x0, dtype=float), objective(np.asarray(x0, dtype=float))
        success = False
        for _round in range(6):
            res = minimize(
                objective,
                x,
                method="Nelder-Mead",
                options={
                    "maxiter": SIMPLEX_MAX_ITER,
                    "xatol": 1e-12,
                    "fatol": 1e-14,
                    "adaptive": True,
                },
            )
            total_iters += int(res.nit)
            improved = fval - res.fun
            x, fval, success = res.x, float(res.fun), bool(res.success)
            if improved <= 1e-15 * max(1.0, abs(fval)):
                break
        restart_objs.append(fval)
        if best is None or fval < best[1]:
            best = (x, fval, idx)
            converged = success
    theta, obj, _ = best
    v_best, _ = profiled_v(*theta)
    return CalibResult(
        a_hat=float(theta[0]),
        k_hat=float(theta[1]),
        v_eff_hat=v_best,
        sigma_bar_hat=float(theta[2]),
        objective=obj,
        iterations=total_iters,
        converged=converged,
        restart_objectives=tuple(restart_objs),
    )
