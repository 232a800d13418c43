"""Chain loading and calibration of the modification constant and effective terms.

Both fits run on one chain model, :class:`_ChainModel`: each quote is
``M * (Q0 + v_eff * time_factor * D1D2 Q0)`` with ``M = modification_factor(t;
a, r, k)`` and ``v_eff = sqrt(epsilon) * V``.  At each valuation date the
quotes are linear in ``(M, M v_eff)``, so :meth:`_ChainModel.fit` solves the
best ``(a, v_eff)`` at fixed ``(k, sigma_bar)`` from one pass over the quotes
(in closed form at one valuation date, and over several as the root of the
misfit's derivative in ``a``, which the pass's sums give in O(dates)) and
takes the misfit there in one more.  Every reported ``a``, ``v_eff`` and
misfit comes from that one evaluation.

* :func:`estimate_a` -- least-squares fit of the empirical constant ``a``
  alone: ``v_eff`` is pinned at 0, ``k`` is given and ``sigma_bar`` is pinned
  from the nearest-the-money implied vol, so the fit is one ``fit`` call.
* :func:`calibrate_effective` -- fit of ``(a, k, v_eff, sigma_bar)``: a
  derivative-free simplex searches ``(k, sigma_bar)`` only, at any number of
  valuation dates, and ``(a, v_eff)`` is solved at each of its points
  (:meth:`_ChainModel.level_objective`: one pass over the quotes for the
  level fit's sums, one for the misfit).  Its starts are fixed points of the
  box :data:`BOUNDS`, with ``k`` kept below ``2 / T_max``: the data-driven
  start, then one at the far end of the ``k`` box and further ones on a
  low-discrepancy sequence.  Each start is one simplex descent, and the
  search stops at the first start whose misfit reaches
  :data:`ROUNDING_FLOOR`, so ``n_restarts`` is an upper bound.

The model works on plain floats through the one scalar Black-Scholes formula,
:func:`~parabolic_sv.black_scholes.call_and_d1d2_at`, and neither fit loads
numpy.

``k`` is weakly identified by a single-date chain (it trades off against ``a``
through the factor level and against ``v_eff`` through the time factor), so
only its box in :data:`BOUNDS` is guaranteed; see the per-strike diagnostic on
:class:`AEstimate` for the corresponding spread in ``a``.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .black_scholes import BsInputs, bs_call_price, call_and_d1d2_at, call_constants
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
from .optimize import minimize
from .params import ModelParams, discount_factor
from .pricer import factor_exponent, p1_time_factor
from .slow_factor import SINGULAR_FLOOR

__all__ = [
    "OptionQuote",
    "AEstimate",
    "CalibResult",
    "load_chain",
    "estimate_a",
    "calibrate_effective",
    "implied_vol",
]

CHAIN_HEADER = ("t", "T", "K", "mid", "x", "r")

#: Half-width of the excluded band around a = 2r in the a-searches.
A_EXCLUSION = 1e-4
#: How far a mid may sit below the discounted intrinsic value before
#: load_chain rejects its row.
INTRINSIC_TOL = 1e-6
#: Iteration cap of each start's Nelder-Mead descent in calibrate_effective.
SIMPLEX_MAX_ITER = 4000
#: Rounding floor of the quote model's price RMSE, per unit of the chain's
#: largest term ``L = max(spot, discounted strike)``.  A quote is
#: ``M (x N(d1) - K e^{-r tau} N(d2) + v_eff tf D1D2)``, a difference of two
#: terms of size up to ``L``.  Each term rounds three times by up to eps times
#: its size (its ``d``, the erfc, the product), and the difference, the small
#: correction and the product with ``M ~ 1`` once each: about 8 eps L per
#: evaluation.  A mid computed from the same model carries as much again, so
#: exact parameters leave residuals of up to 16 eps L, and no restart can
#: improve a fit at or below that level.
ROUNDING_FLOOR = 16.0 * sys.float_info.epsilon
#: Log of the largest float: a factor e^x with x beyond it overflows.
_LOG_MAX = math.log(sys.float_info.max)

#: The steps of the R2 low-discrepancy sequence in two dimensions, ``1 / p``
#: and ``1 / p^2`` for the plastic number ``p`` (Roberts, "The unreasonable
#: effectiveness of quasirandom sequences", 2018): calibrate_effective's
#: restarts past the first sit at its points ``frac(0.5 + i * _R2)``.
_R2 = (0.7548776662466927, 0.5698402909980532)

#: The search box of calibrate_effective; estimate_a searches its ``a`` range.
BOUNDS = {
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
        """Discounted intrinsic value ``max(x - K e^{-r tau}, 0)``."""
        try:
            disc_strike = self.strike * math.exp(-self.rate * self.tau)
        except OverflowError:
            return 0.0  # the discounted strike is beyond the float range
        return max(self.spot - disc_strike, 0.0)


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
            _reject_row(path, lineno, str(exc))
            continue
        if q.mid <= q.intrinsic() - INTRINSIC_TOL:
            _reject_row(path, lineno, f"mid {q.mid:.10g} below intrinsic bound {q.intrinsic():.10g}")
            continue
        quotes.append(q)
    if not quotes:
        raise EmptyChainError(f"{path}: no usable quotes")
    return quotes


def _reject_row(path: Path, lineno: int, reason: str) -> None:
    """Warn that load_chain rejected a row, on the ``parabolic_sv.calibration``
    logger; ``logging`` is imported here, so a chain with no rejected row
    never loads it."""
    import logging

    logging.getLogger(__name__).warning("%s: line %d: %s; row rejected", path, lineno, reason)


def implied_vol(price: float, spot: float, strike: float, rate: float, tau: float) -> float:
    """Black-Scholes implied volatility by bisection on ``[1e-9, 5]``; NaN when
    the price is NaN or lies outside the call values at the bracket's ends.

    The call value increases with the volatility, so halving the bracket keeps
    the root inside it until its ends are neighbouring floats; the upper end
    is returned.  The inputs are checked once, at the bracket's lower end:
    only the volatility moves, and it stays inside the bracket.  The
    contract's :func:`~parabolic_sv.black_scholes.call_constants` are
    computed once too, and each step is one
    :func:`~parabolic_sv.black_scholes.call_and_d1d2_at`.
    """
    lo, hi = 1e-9, 5.0
    inp = BsInputs(spot, strike, rate, lo, tau)
    if tau == 0.0:  # the call value is the payoff at every volatility
        f = lambda s: bs_call_price(inp) - price
    else:
        consts = call_constants(spot, strike, rate, tau)
        f = lambda s: call_and_d1d2_at(*consts, s)[0] - price
    if not f(lo) <= 0.0 <= f(hi):
        return math.nan
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _atm_sigma(quotes: list[OptionQuote]) -> float:
    """Implied vol of the quote nearest the money (fallbacks outward)."""
    order = sorted(quotes, key=lambda q: abs(q.strike - q.spot) / q.spot)
    for q in order:
        sig = implied_vol(q.mid, q.spot, q.strike, q.rate, q.tau)
        if math.isfinite(sig) and sig > 0:
            return sig
    raise InsufficientDataError("no quote admits an implied volatility")


@dataclass(frozen=True)
class AEstimate:
    """Least-squares fit of the modification constant."""

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


def _a_pieces(lo: float, hi: float, two_rs) -> list[tuple[float, float]]:
    """The closed pieces of the a-box ``[lo, hi]`` outside every band
    ``|a - 2r| < A_EXCLUSION``; each band edge is moved outward to the first
    float whose distance from ``2r`` is not below ``A_EXCLUSION``."""
    pieces = [(lo, hi)]
    for two_r in sorted(set(two_rs)):
        below, above = two_r - A_EXCLUSION, two_r + A_EXCLUSION
        while two_r - below < A_EXCLUSION:
            below = math.nextafter(below, -math.inf)
        while above - two_r < A_EXCLUSION:
            above = math.nextafter(above, math.inf)
        split = []
        for p_lo, p_hi in pieces:
            if p_lo <= below:
                split.append((p_lo, min(p_hi, below)))
            if p_hi >= above:
                split.append((max(p_lo, above), p_hi))
        pieces = split
    if not pieces:
        raise NoInteriorMinimumError("a-bounds lie inside the excluded band around 2r")
    return pieces


def _level_fit(
    pieces: list[tuple[float, float]],
    a_ref: float,
    g: float,
    sums: tuple[float, float, float, float, float],
    v_box: tuple[float, float],
) -> tuple[float, float]:
    """Exact least-squares ``a`` of ``mids ~ M (b + v s)`` with ``M = exp((a - a_ref) g)``,
    and the level ``M`` it takes there, from the sums ``(b.b, b.s, b.mids,
    s.s, s.mids)``.

    The model is linear in ``(M, w) = (M, M v)``.  Each a-piece is an interval
    of ``M`` and the ``v`` box is the cone ``v_lo M <= w <= v_hi M``, so the
    optimum is the unconstrained one when it is feasible and otherwise the best
    point on the edges of those regions.  The ends of a piece are taken in log
    space, where they may lie far outside the float range.

    Raises:
        NumericalOverflowError: when no feasible point has a finite misfit.
    """
    if g == 0.0:  # M = 1 for every a
        return pieces[0][0], 1.0
    bb, bs, bm, ss, sm = sums
    if not bb > 0.0:  # no quote depends on a
        a = pieces[0][0]
        level = (a - a_ref) * g
        if level >= _LOG_MAX:
            raise NumericalOverflowError(f"modification factor e^{level:.6g} overflows")
        return a, math.exp(level)
    # in the basis (u, w) = (M + c w, w) of b and the part of s orthogonal to
    # it, the misfit above the unconstrained optimum (u0, w0) is a sum of squares
    c = bs / bb
    ssp = ss - c * bs
    u0 = bm / bb
    if ssp > 1e-12 * ss:
        w0 = (sm - c * bm) / ssp
    else:  # s is a multiple of b (or zero): every w is as good
        ssp, w0 = 0.0, 0.0
    m0 = u0 - c * w0
    v_lo, v_hi = v_box
    if m0 > 0.0 and v_lo * m0 <= w0 <= v_hi * m0:
        a0 = a_ref + math.log(m0) / g
        if any(p_lo <= a0 <= p_hi for p_lo, p_hi in pieces):
            return a0, m0

    w_den = bb * c * c + ssp
    best_e, best = math.inf, None
    for p_lo, p_hi in pieces:
        (l1, a1), (l2, a2) = sorted([((p_lo - a_ref) * g, p_lo), ((p_hi - a_ref) * g, p_hi)])
        m1 = math.exp(l1) if l1 < _LOG_MAX else math.inf
        m2 = math.exp(l2) if l2 < _LOG_MAX else math.inf
        candidates = []
        # the ends of the piece, with w on the segment v_lo m <= w <= v_hi m
        for m, a_end in ((m1, a1), (m2, a2)):
            if m < math.inf:
                w = (bs * (u0 - m) + ssp * w0) / w_den if w_den > 0.0 else 0.0
                candidates.append((m, min(max(w, v_lo * m), v_hi * m), a_end))
        # the optima on the cone's edges w = v m, where they fall inside the piece
        # (past its ends they are no better than the ends above)
        for v in (v_lo, v_hi):
            cv = 1.0 + c * v
            den = bb * cv * cv + ssp * v * v
            m = (bb * cv * u0 + ssp * v * w0) / den if den > 0.0 else 0.0
            if m1 < m < m2:
                a = min(max(a_ref + math.log(m) / g, p_lo), p_hi)
                candidates.append((m, v * m, a))
        for m, w, a in candidates:
            du, dw = m + c * w - u0, w - w0
            e = bb * du * du + ssp * dw * dw  # inf, not an error, past the float range
            if e < best_e:
                best_e, best = e, (a, m)
    if best is None:
        raise NumericalOverflowError("every feasible modification factor overflows")
    return best


def estimate_a(
    quotes: list[OptionQuote],
    k: float = ModelParams.k,
    r: float | None = None,
) -> AEstimate:
    """Fit ``a`` alone by least squares.

    The chain model of :class:`_ChainModel` with ``v_eff`` pinned at 0, ``k``
    given (by default the model's, ``ModelParams.k``) and the effective
    volatility fixed from the nearest-the-money implied vol: each quote is
    ``modification_factor(t; a, r, k) * Q0``, with ``Q0`` at the quote's own
    rate and the factor at ``r``, by default the chain's one rate.  The band
    ``|a - 2r| < 1e-4`` is excluded from the search (the factor degenerates at
    its centre); landing on the band edge is allowed, landing on an edge of
    the box ``BOUNDS["a"]`` is not.  ``a`` and the objective, the misfit's sum
    of squares there, come from one :meth:`_ChainModel.fit`: with one
    valuation date the factor is one scalar ``M`` and the fit is the closed
    form ``M = (Q0 . mid) / (Q0 . Q0)`` clamped to the feasible ``M``; with
    several it is the root of the misfit's derivative on each side of the
    band, compared with the sides' ends.

    Raises:
        InputDomainError: ``k`` is not finite and positive, ``r`` is given
            but not finite or ``2r`` overflows, ``r`` is not given and the
            quotes carry mixed rates, or a quote's discount factor is not a
            positive float.
        InsufficientDataError: fewer than 2 quotes or fewer than 2 maturities.
        NoInteriorMinimumError: the optimum pinned to an edge of ``BOUNDS["a"]``.
    """
    if not 0.0 < k < math.inf:
        raise InputDomainError(f"k = {k!r} must be positive and finite")
    if r is not None and not math.isfinite(r):
        raise InputDomainError(f"r = {r!r} is not a finite number")
    if len(quotes) < 2 or len({q.maturity for q in quotes}) < 2:
        raise InsufficientDataError(
            f"need >= 2 quotes spanning >= 2 maturities, got {len(quotes)} quotes, "
            f"{len({q.maturity for q in quotes})} maturities"
        )
    rate = _rate_of(quotes, r)
    sigma = _atm_sigma(quotes)
    a_lo, a_hi = BOUNDS["a"]
    lo, hi = (a_lo, k, sigma), (a_hi, k, sigma)

    def model(chain: list[OptionQuote]) -> _ChainModel:
        return _ChainModel(chain, lo, hi, (0.0, 0.0), rate)

    a_hat, _, sse = model(quotes).fit(k, sigma)
    if min(a_hat - a_lo, a_hi - a_hat) < 1e-6 * (a_hi - a_lo):
        raise NoInteriorMinimumError(f"a-fit pinned to bound {a_hat:.6g} of [{a_lo:g}, {a_hi:g}]")

    per_strike = []
    for strike in sorted({q.strike for q in quotes}):
        try:
            a_k = model([q for q in quotes if q.strike == strike]).fit(k, sigma)[0]
        except PricingError:
            a_k = math.nan
        per_strike.append((strike, a_k))

    return AEstimate(
        a_hat=a_hat,
        objective=sse,
        sigma_bar_used=sigma,
        n_quotes=len(quotes),
        per_strike=tuple(per_strike),
    )


#: What makes a point of the effective fit infeasible (scored 1e9).
_INFEASIBLE = (SingularTimeError, LogDomainError, InputDomainError, NumericalOverflowError)


def _level_chord(lo: float, hi: float, w_lo: float, w_hi: float, g: float) -> float:
    """Where the chord through ``(lo, w_lo)`` and ``(hi, w_hi)``, drawn against
    the level ``e^{g a}`` rather than ``a``, crosses zero; ``w_lo <= 0 < w_hi``.
    The level's range is taken in log space, where its ends may lie past the
    float range."""
    t = w_lo / (w_lo - w_hi)  # the crossing's share of the level's range
    d = g * (hi - lo)
    if d > 0.0:  # e^{g a} / e^{g hi} = t + (1 - t) e^{-d} at the crossing
        share = t + (1.0 - t) * math.exp(-d)
        return hi + math.log(share) / g if share > 0.0 else lo
    share = 1.0 + t * math.expm1(d)  # e^{g a} / e^{g lo} at the crossing
    return lo + math.log(share) / g if share > 0.0 else hi


def _bracketed_root(fn, lo: float, hi: float, f_lo: float, f_hi: float, g: float) -> float:
    """A root of ``fn`` in ``[lo, hi]``, where ``f_lo <= 0 < f_hi``: a point
    where ``fn`` is 0 or, of the ends of a bracket at most ``4 eps |x|`` wide,
    the one where ``|fn|`` is least.

    Regula falsi with the Illinois halving of an end kept twice (Dowell &
    Jarratt, BIT 11, 1971), its chord drawn against the level ``e^{g x}``
    (:func:`_level_chord`), in which the misfit's derivative is close to
    linear.  Each step lands at least ``2 eps |x|`` inside the bracket, so
    that a root next to one end is bracketed by the next step, and two steps
    that each leave more than half of the bracket are followed by a
    bisection.
    """
    w_lo, w_hi = f_lo, f_hi  # the chord's weights, halved by the Illinois rule
    side = stalled = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        width = hi - lo
        tol = 2.0 * sys.float_info.epsilon * max(abs(lo), abs(hi))
        if width <= 2.0 * tol:
            break
        bisect = stalled >= 2
        x = mid if bisect else _level_chord(lo, hi, w_lo, w_hi, g)
        if not lo + tol <= x <= hi - tol:
            x = mid if math.isnan(x) else min(max(x, lo + tol), hi - tol)
        fx = fn(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            if side < 0:
                w_hi *= 0.5
            lo, f_lo, w_lo, side = x, fx, fx, -1
        else:
            if side > 0:
                w_lo *= 0.5
            hi, f_hi, w_hi, side = x, fx, fx, 1
        stalled = 0 if bisect or hi - lo <= 0.5 * width else stalled + 1
    return lo if -f_lo <= f_hi else hi


class _ChainModel:
    """The quote model ``M * (Q0 + v_eff * tf * D1D2 Q0)`` over one chain, and
    its least-squares ``(a, v_eff)`` at fixed ``(k, sigma_bar)``.

    At each valuation date the factors are one level ``M = exp((a - 2r') g)``
    times rate ratios that ``k`` alone fixes, so the model is linear in ``M``
    and ``M v_eff`` there: one pass over the quotes keeps, per valuation date,
    the sums of products of the quotes' base values ``b``, slopes ``s`` and
    mids, and ``a`` and ``v_eff`` are solved from those sums
    (:meth:`fit`).  Each quote's
    :func:`~parabolic_sv.black_scholes.call_constants` are computed once, and
    every ``(k, sigma_bar)`` point calls the one scalar formula per quote on
    plain floats.  On the chains a fit serves, a dozen or two quotes, that is
    cheaper than numpy calls on short arrays; past about 30 quotes the arrays
    would win (``BENCH_18.json``).  ``rate``, when given, replaces every
    quote's own rate in the modification factor (``Q0`` keeps the quote's).  A
    ``v_box`` of ``(0, 0)`` pins ``v_eff`` at 0, and then no time factor is
    evaluated, so dates straddling ``2/k`` stay feasible.
    """

    def __init__(
        self,
        quotes: list[OptionQuote],
        lo: Sequence[float],
        hi: Sequence[float],
        v_box: tuple[float, float],
        rate: float | None = None,
    ):
        valuation_dates = list(dict.fromkeys(q.t for q in quotes))
        keys = [(q.t, q.maturity, q.rate if rate is None else rate) for q in quotes]
        for _, _, r in keys:
            if not math.isfinite(2.0 * r):
                raise InputDomainError(f"r = {r!r} is too large: 2r overflows")
        for q in quotes:
            discount_factor(q.rate, q.tau)
        self.mid_abs = max(abs(q.mid) for q in quotes)
        self.consts = [call_constants(q.spot, q.strike, q.rate, q.tau) for q in quotes]
        self.dates = list(dict.fromkeys(keys))
        date_of = [self.dates.index(key) for key in keys]
        self.valuation_dates = valuation_dates
        day_of = [valuation_dates.index(t) for t, _, _ in self.dates]
        two_rs = [2.0 * r for _, _, r in self.dates]
        #: the valuation date and 2r of each (t, T, r) date, and each valuation
        #: date's least and greatest 2r: the reference 2r of its rate ratios
        self.date_rates = list(zip(day_of, two_rs))
        day_two_rs = [[r for j, r in self.date_rates if j == day] for day in range(len(valuation_dates))]
        self.day_refs = [(min(rs), max(rs)) for rs in day_two_rs]
        #: each valuation date's (call constants, date, mid) of its quotes, and its mids
        self.groups = [
            [(c, d, q.mid) for c, d, q in zip(self.consts, date_of, quotes) if day_of[d] == j]
            for j in range(len(valuation_dates))
        ]
        self.group_mids = [[mid for _, _, mid in group] for group in self.groups]
        self.n_quotes = len(quotes)
        self.box = [(float(l), float(h)) for l, h in zip(lo, hi)]
        self.v_box = v_box
        self.v_pinned = v_box[0] == v_box[1] == 0.0
        self.a_pieces = _a_pieces(*self.box[0], two_rs)

    def _profile_levels(self, levels: list[float], sums: list[tuple[float, ...]]) -> float:
        """The least-squares ``v`` of the quotes ``mids ~ M (b + v s)`` at each
        valuation date's level ``M``, from the date's sums, clamped to the v
        box: the slope is ``M s`` and the target ``mids - M b``."""
        slope_target = slope_slope = 0.0
        for m, (_, bs, _, ss, sm) in zip(levels, sums):
            slope_target += m * (sm - m * bs)
            slope_slope += m * (m * ss)
        v = slope_target / slope_slope if slope_slope > 1e-300 else 0.0
        return min(max(v, self.v_box[0]), self.v_box[1])

    def _in_box(self, k: float, sig: float) -> bool:
        _, (k_lo, k_hi), (s_lo, s_hi) = self.box
        return k_lo <= k <= k_hi and s_lo <= sig <= s_hi

    def fit(self, k: float, sig: float) -> tuple[float, float, float]:
        """The least-squares ``a`` and ``v_eff`` at fixed (k, sigma_bar), and
        the misfit's sum of squares there: the one evaluation of the model.

        One pass over the quotes prices each as the pair ``(b, s)`` of its base
        and slope values, ``M (b + v_eff s)``, and adds it to its valuation
        date's sums of products ``(b.b, b.s, b.mids, s.s, s.mids)``.  The rate
        ratios of a valuation date are taken against the rate whose ratios
        stay <= 1.  At one valuation date ``a`` is the closed form of
        :func:`_level_fit`; over several, :meth:`_solve_a` solves it from the
        sums.  ``v_eff`` is profiled from the sums at each date's level, and
        the misfit is taken from the pairs, ``mids - M (b + v_eff s)``, in one
        more pass: read from the sums, it would cancel to about eps times the
        mids' sum of squares.

        Raises:
            SingularTimeError, LogDomainError, InputDomainError,
            NumericalOverflowError: at a point where the model is infeasible,
                and NumericalOverflowError also where the misfit is not finite.
        """
        if not 0.0 < sig < math.inf:
            raise InputDomainError(f"sigma_bar = {sig!r} must be positive and finite")
        if self.v_pinned:  # tf is multiplied by v_eff = 0
            tf = [0.0] * len(self.dates)
        else:
            tf = [p1_time_factor(t, mat, k) for t, mat, _ in self.dates]
        gs = [factor_exponent(t, k) for t in self.valuation_dates]
        refs = [lo if g > 0.0 else hi for g, (lo, hi) in zip(gs, self.day_refs)]
        rho = [math.exp((refs[j] - two_r) * gs[j]) for j, two_r in self.date_rates]
        rho_tf = [p * f for p, f in zip(rho, tf)]
        day_pairs, sums = [], []
        for group in self.groups:
            pairs = []
            bb = bs = bm = ss = sm = 0.0
            for c, d, mid in group:
                call, dd = call_and_d1d2_at(*c, sig)
                bi, si = rho[d] * call, rho_tf[d] * dd
                pairs.append((bi, si))
                bb += bi * bi
                bs += bi * si
                bm += bi * mid
                ss += si * si
                sm += si * mid
            day_pairs.append(pairs)
            sums.append((bb, bs, bm, ss, sm))
        if len(gs) == 1:
            a, level = _level_fit(self.a_pieces, refs[0], gs[0], sums[0], self.v_box)
            levels = [level]
        else:
            a, levels = self._solve_a(refs, gs, day_pairs, sums)
        v = self._profile_levels(levels, sums)
        sse = 0.0
        for level, pairs, mids in zip(levels, day_pairs, self.group_mids):
            for (bi, si), mid in zip(pairs, mids):
                r = (mid - level * bi) - v * (level * si)
                sse += r * r
        if not sse < math.inf:  # NaN too
            raise NumericalOverflowError(f"the misfit overflows (a = {a:g}, k = {k:g}, sigma_bar = {sig:g})")
        return a, v, sse

    def _solve_a(
        self,
        refs: list[float],
        gs: list[float],
        day_pairs: list[list[tuple[float, float]]],
        sums: list[tuple[float, ...]],
    ) -> tuple[float, list[float]]:
        """Over several valuation dates: the least-squares ``a`` of the quotes
        ``M_j (b + v s)`` with ``M_j = exp((a - refs[j]) gs[j])`` and ``v``
        profiled, and the levels ``M_j`` there.

        With ``P_j = b.mids + v s.mids`` and ``Q_j = b.b + 2 v b.s + v^2 s.s``,
        the misfit is ``mids.mids + sum_j M_j (M_j Q_j - 2 P_j)`` and, ``v``
        being optimal, its derivative in ``a`` is ``2 sum_j g_j M_j (M_j Q_j -
        P_j)``: both cost O(dates).  On each a-piece, cut to where every level
        keeps the misfit's sums finite, ``a`` is the bracketed root of the
        derivative (:func:`_bracketed_root`) where the misfit falls from the
        piece's lower end and rises into its upper end, and the ends
        themselves; the candidate with the least misfit wins.

        Raises:
            NumericalOverflowError: when no level keeps the misfit finite.
        """
        # the root is sought in the steepest level X, in which the misfit is
        # close to a quadratic: the derivative in X, signed as the one in a,
        # is 2 sum_j (g_j / |g_X|) (M_j / X) (M_j Q_j - P_j)
        top = max(range(len(gs)), key=lambda j: abs(gs[j]))
        if gs[top] == 0.0:  # M = 1 for every a
            return self.a_pieces[0][0], [1.0] * len(gs)
        # each residual and each term of the misfit's sums is at most
        # mid_abs + sum_j M_j sum (|b| + |v| |s|) in size; keep that bound
        # below sqrt(max float / 8 n), so that n bound^2 stays finite.  Each
        # date's M_j sum (|b| + |v| |s|) may take `room` of it
        room = (math.sqrt(sys.float_info.max / (8.0 * self.n_quotes)) - self.mid_abs) / len(gs)
        if not room > 0.0:
            raise NumericalOverflowError("the mids' sum of squares overflows")
        v_abs = max(-self.v_box[0], self.v_box[1])
        a_lo, a_hi = -math.inf, math.inf
        for ref, g, pairs in zip(refs, gs, day_pairs):
            size = sum(abs(bi) + v_abs * abs(si) for bi, si in pairs)
            if size > 0.0:
                # the largest log level, below half the float range's so that
                # the products of a level stay finite
                log_cap = min(math.log(room) - math.log(size), 0.5 * _LOG_MAX)
                if g > 0.0:
                    a_hi = min(a_hi, ref + log_cap / g)
                elif g < 0.0:
                    a_lo = max(a_lo, ref + log_cap / g)
                elif log_cap < 0.0:
                    a_lo = math.inf
        terms = [(g / abs(gs[top]), *day) for g, day in zip(gs, sums)]
        misfits = {}  # the misfit less mids.mids at each a the derivative was taken

        def slope(a: float) -> float:
            logs = [(a - ref) * g for ref, g in zip(refs, gs)]
            levels = [math.exp(x) for x in logs]
            v = self._profile_levels(levels, sums)
            slope = size = misfit = 0.0
            for x, m, (w, bb, bs, bm, ss, sm) in zip(logs, levels, terms):
                mq, p = m * (bb + v * (2.0 * bs + v * ss)), bm + v * sm
                ratio = w * math.exp(x - logs[top])
                slope += ratio * (mq - p)
                size += abs(ratio) * (abs(mq) + abs(p))
                misfit += m * (mq - 2.0 * p)
            misfits[a] = misfit
            # a difference of its terms' rounding is a root
            return slope if abs(slope) > sys.float_info.epsilon * size else 0.0

        candidates = []
        for p_lo, p_hi in self.a_pieces:
            lo, hi = max(p_lo, a_lo), min(p_hi, a_hi)
            if lo > hi:
                continue
            candidates += [lo, hi]
            d_lo, d_hi = slope(lo), slope(hi)
            if d_lo <= 0.0 < d_hi:
                candidates.append(_bracketed_root(slope, lo, hi, d_lo, d_hi, gs[top]))
        if not candidates:
            raise NumericalOverflowError("every feasible modification factor overflows the misfit")
        a = min(candidates, key=misfits.__getitem__)
        return a, [math.exp((a - ref) * g) for ref, g in zip(refs, gs)]

    def level_objective(self, x: tuple[float, float]) -> float:
        """The price RMSE over (k, sigma_bar), with ``(a, v_eff)`` solved at
        each point (:meth:`fit`).  The fitted ``a`` lies in the box and
        outside every band around ``2r``.  Outside the (k, sigma_bar) box it
        is ``1e6 (1 + excess)``, and at an infeasible point 1e9."""
        k, sig = x
        if not self._in_box(k, sig):
            excess = sum(max(lo - v, 0.0) + max(v - hi, 0.0) for v, (lo, hi) in zip((k, sig), self.box[1:]))
            return 1e6 * (1.0 + excess)
        try:
            _, _, sse = self.fit(k, sig)
        except _INFEASIBLE:
            return 1e9
        return math.sqrt(sse / self.n_quotes)


@dataclass(frozen=True)
class CalibResult:
    """Fit of (a, k, v_eff, sigma_bar); objective is the price RMSE.

    ``a_hat``, ``v_eff_hat`` and ``objective`` come from one evaluation of
    the chain model (:meth:`_ChainModel.fit`) at ``(k_hat, sigma_bar_hat)``.
    ``iterations`` counts the Nelder-Mead iterations of the (k, sigma_bar)
    search, with ``a`` and ``v_eff`` solved exactly inside it, summed over
    the starts that ran, one descent each.  ``evaluations`` counts the
    objective evaluations summed the same way, each start's first vertex
    included; each is one pass over the quotes for the level fit's sums and
    one for the misfit.
    ``restart_objectives`` holds the final objective of each start that ran,
    in order: one for the data-driven start and at most ``n_restarts`` more,
    the far end of the ``k`` box first and then the R2 points (see
    :func:`calibrate_effective`), since the search stops at the first start
    at the rounding floor.
    """

    a_hat: float
    k_hat: float
    v_eff_hat: float
    sigma_bar_hat: float
    objective: float
    iterations: int
    evaluations: int
    converged: bool
    restart_objectives: tuple[float, ...]


def calibrate_effective(
    quotes: list[OptionQuote],
    *,
    n_restarts: int = 1,
) -> CalibResult:
    """Joint fit of ``(a, k, v_eff, sigma_bar)`` to a quote chain.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973;
    Kaufman, BIT 15, 1975): at each valuation date the model is linear in
    ``v_eff`` and in the level of the modification factor, so a
    derivative-free simplex searches only (k, sigma_bar), and for each of its
    points the best ``(a, v_eff)`` is solved from one pass over the quotes
    (:meth:`_ChainModel.level_objective`).  Where ``BOUNDS["k"]`` reaches past
    ``2 / T_max``, at which the longest maturity's time factor has no value,
    the search's upper ``k`` is ``k_hi = (2 - 2 SINGULAR_FLOOR) / T_max``.
    Each start is one adaptive Nelder-Mead descent, and the search stops at
    the first start whose fit is at or below the rounding floor
    ``ROUNDING_FLOOR * max(spot, discounted strike)``, where a fit is exact to
    rounding: a later start could only pick another fit within rounding of
    it.  A chain that no fit takes to the floor, such as any noisy chain,
    runs every start.

    The starts are fixed points of the (k, sigma_bar) box, so the fit is
    deterministic for a given chain.  The data-driven start is ``k = 0.05``
    at ``sigma0``, the ATM implied vol clamped to the box.  The first restart
    is ``(0.9 k_hi, sigma0)``: ``k`` is weakly identified, and a chain whose
    best fit lies on the box's upper ``k`` edge is reached only from there.
    Restart ``i >= 2`` is point ``i - 1`` of the R2 sequence over the box
    (:data:`_R2`).

    Raises:
        InputDomainError: unless ``n_restarts`` is a non-negative integer, or
            when twice a quote's rate overflows or its discount factor is not
            a positive float.
        InsufficientDataError: unless the chain has >= 4 quotes spanning
            >= 2 maturities and >= 2 strikes.
        NoInteriorMinimumError: the best start ends outside the (k,
            sigma_bar) box, where every point inside scores worse than the
            out-of-box score.
    """
    if not isinstance(n_restarts, int) or n_restarts < 0:
        raise InputDomainError(f"n_restarts = {n_restarts!r} must be a non-negative integer")
    n_maturities = len({q.maturity for q in quotes})
    n_strikes = len({q.strike for q in quotes})
    if len(quotes) < 4 or n_maturities < 2 or n_strikes < 2:
        raise InsufficientDataError(
            f"need >= 4 quotes, >= 2 maturities and >= 2 strikes; got "
            f"{len(quotes)} quotes, {n_maturities} maturities, {n_strikes} strikes"
        )

    (k_lo, k_hi), (s_lo, s_hi) = BOUNDS["k"], BOUNDS["sigma_bar"]
    t_max = max(q.maturity for q in quotes)
    if k_hi * t_max > 2.0:  # past 2 / T_max every point is infeasible
        k_hi = (2.0 - 2.0 * SINGULAR_FLOOR) / t_max
    model = _ChainModel(quotes, (BOUNDS["a"][0], k_lo, s_lo), (BOUNDS["a"][1], k_hi, s_hi), BOUNDS["v_eff"])
    evaluations = 0

    def objective(x) -> float:
        nonlocal evaluations
        evaluations += 1
        return model.level_objective(x)

    # a fit whose misfit reaches this is exact to rounding: no later start runs
    floor = ROUNDING_FLOOR * max(max(spot, disc_strike) for spot, _, disc_strike, *_ in model.consts)

    try:
        sigma0 = min(max(_atm_sigma(quotes), s_lo), s_hi)
    except InsufficientDataError:
        sigma0 = 0.2

    def starts():
        yield [0.05, sigma0]
        if n_restarts:
            yield [0.9 * k_hi, sigma0]
        for i in range(1, n_restarts):
            u_k, u_s = ((0.5 + i * step) % 1.0 for step in _R2)
            yield [k_lo + (k_hi - k_lo) * u_k, s_lo + (s_hi - s_lo) * u_s]

    best = None
    total_iters = 0
    restart_objs = []
    for x0 in starts():
        res = minimize(objective, x0, maxiter=SIMPLEX_MAX_ITER, xatol=1e-12, fatol=1e-14)
        total_iters += res.nit
        restart_objs.append(res.fun)
        if best is None or res.fun < best.fun:
            best = res
        if best.fun <= floor:  # exact to rounding: a later start could differ only by rounding
            break
    k_hat, sigma_hat = best.x
    if not model._in_box(k_hat, sigma_hat):
        raise NoInteriorMinimumError(
            f"the best fit (k = {k_hat!r}, sigma_bar = {sigma_hat!r}) lies outside the search box "
            f"k in [{k_lo!r}, {k_hi!r}], sigma_bar in [{s_lo!r}, {s_hi!r}]"
        )
    a_hat, v_hat, _ = model.fit(k_hat, sigma_hat)
    return CalibResult(
        a_hat=a_hat,
        k_hat=k_hat,
        v_eff_hat=v_hat,
        sigma_bar_hat=sigma_hat,
        objective=best.fun,
        iterations=total_iters,
        evaluations=evaluations,
        converged=best.success,
        restart_objectives=tuple(restart_objs),
    )
