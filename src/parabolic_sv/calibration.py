"""Chain loading and calibration of the modification constant and effective terms.

Both fits run on one chain model, :class:`_ChainModel`: each quote is
``M * (Q0 + v_eff * time_factor * D1D2 Q0)`` with ``M = modification_factor(t;
a, r, k)`` and ``v_eff = sqrt(epsilon) * V``; ``v_eff`` is always profiled out
exactly, and :meth:`_ChainModel.fit_a` solves the best ``a`` at fixed
``(k, sigma_bar)``: in closed form at one valuation date, where the quotes are
linear in ``(M, M v_eff)``, and by golden section over several.

* :func:`estimate_a` -- least-squares fit of the empirical constant ``a``
  alone: ``v_eff`` is pinned at 0, ``k`` is given and ``sigma_bar`` is pinned
  from the nearest-the-money implied vol, so the fit is one ``fit_a`` call.
* :func:`calibrate_effective` -- fit of ``(a, k, v_eff, sigma_bar)``.  At one
  valuation date a derivative-free simplex searches ``(k, sigma_bar)`` only
  and ``(a, v_eff)`` is solved exactly at each of its points; over several
  dates the simplex searches ``(a, k, sigma_bar)``.  Seeded random restarts
  inside the box :data:`BOUNDS` keep the search deterministic per seed.

``k`` is weakly identified by a single-date chain (it trades off against ``a``
through the factor level and against ``v_eff`` through the time factor), so
only its box in :data:`BOUNDS` is guaranteed; see the per-strike diagnostic on
:class:`AEstimate` for the corresponding spread in ``a``.
"""
from __future__ import annotations

import csv
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import CallConstants, call_and_d1d2
from .black_scholes import BsInputs, bs_call_price
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
from .pricer import factor_exponent, modification_factor, p1_time_factor

__all__ = [
    "OptionQuote",
    "AEstimate",
    "CalibResult",
    "load_chain",
    "estimate_a",
    "calibrate_effective",
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
#: Log of the largest float: a factor e^x with x beyond it overflows.
_LOG_MAX = math.log(sys.float_info.max)

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
    """Black-Scholes implied volatility by bisection on ``[1e-9, 5]``; NaN when
    the price is NaN or lies outside the call values at the bracket's ends.

    The call value increases with the volatility, so halving the bracket keeps
    the root inside it until its ends are neighbouring floats; the upper end
    is returned.
    """
    f = lambda s: bs_call_price(BsInputs(spot, strike, rate, s, tau)) - price
    lo, hi = 1e-9, 5.0
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


def _golden_pieces(fn, pieces: list[tuple[float, float]]) -> float:
    """The best of the golden-section minima of fn over each piece and of the
    pieces' ends, which the search itself only approaches."""
    found = [_golden_min(fn, lo, hi) for lo, hi in pieces]
    found += [(a, fn(a)) for piece in pieces for a in piece]
    return min(found, key=lambda best: best[1])[0]


def _level_fit(
    pieces: list[tuple[float, float]],
    a_ref: float,
    g: float,
    mids: np.ndarray,
    b: np.ndarray,
    s: np.ndarray,
    v_box: tuple[float, float],
) -> float:
    """Exact least-squares ``a`` of ``mids ~ M (b + v s)`` with ``M = exp((a - a_ref) g)``.

    The model is linear in ``(M, w) = (M, M v)``.  Each a-piece is an interval
    of ``M`` and the ``v`` box is the cone ``v_lo M <= w <= v_hi M``, so the
    optimum is the unconstrained one when it is feasible and otherwise the best
    point on the edges of those regions.  The ends of a piece are taken in log
    space, where they may lie far outside the float range.

    Raises:
        NumericalOverflowError: when no feasible point has a finite misfit.
    """
    if g == 0.0:  # M = 1 for every a
        return pieces[0][0]
    y = np.array([b, s, mids])
    (bb, bs, bm), (_, ss, sm), _ = (y @ y.T).tolist()
    if not bb > 0.0:  # no quote depends on a
        return pieces[0][0]
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
            return a0

    w_den = bb * c * c + ssp
    best_e, best_a = math.inf, None
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
                best_e, best_a = e, a
    if best_a is None:
        raise NumericalOverflowError("every feasible modification factor overflows")
    return best_a


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
    the box ``BOUNDS["a"]`` is not.  ``a`` comes from :meth:`_ChainModel.fit_a`:
    with one valuation date the factor is one scalar ``M`` and the fit is the
    closed form ``M = (Q0 . mid) / (Q0 . Q0)`` clamped to the feasible ``M``;
    with several it is a golden-section search on each side of the band.

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
    lo, hi = np.array([a_lo, k, sigma]), np.array([a_hi, k, sigma])

    def model(chain: list[OptionQuote]) -> _ChainModel:
        return _ChainModel(chain, lo, hi, (0.0, 0.0), rate)

    whole = model(quotes)
    a_hat = whole.fit_a(k, sigma)
    if min(a_hat - a_lo, a_hi - a_hat) < 1e-6 * (a_hi - a_lo):
        raise NoInteriorMinimumError(f"a-fit pinned to bound {a_hat:.6g} of [{a_lo:g}, {a_hi:g}]")
    _, resid = whole.profiled_v(a_hat, k, sigma)

    per_strike = []
    for strike in sorted({q.strike for q in quotes}):
        try:
            a_k = model([q for q in quotes if q.strike == strike]).fit_a(k, sigma)
        except PricingError:
            a_k = math.nan
        per_strike.append((strike, a_k))

    return AEstimate(
        a_hat=a_hat,
        objective=float(resid @ resid),
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


#: What makes a point of the effective fit infeasible (scored 1e9).
_INFEASIBLE = (SingularTimeError, LogDomainError, InputDomainError, NumericalOverflowError)


class _ChainModel:
    """The quote model ``M * (Q0 + v_eff * tf * D1D2 Q0)`` over one chain, with
    ``v_eff`` profiled out, and the least-squares ``a`` for fixed
    ``(k, sigma_bar)``.

    The chain's constants are computed once.  The modification and time
    factors are computed once per distinct (t, T, r) date and broadcast to its
    quotes; the rest is one vector expression.  ``rate``, when given, replaces
    every quote's own rate in the modification factor (``Q0`` keeps the
    quote's).  A ``v_box`` of ``(0, 0)`` pins ``v_eff`` at 0, and then no time
    factor is evaluated, so dates straddling ``2/k`` stay feasible.  The
    Black-Scholes kernel and the time factors of the last ``(k, sigma_bar)``
    are kept, so the ``a`` solve and the objective at its result share them.
    """

    def __init__(
        self,
        quotes: list[OptionQuote],
        lo: np.ndarray,
        hi: np.ndarray,
        v_box: tuple[float, float],
        rate: float | None = None,
    ):
        keys = [(q.t, q.maturity, q.rate if rate is None else rate) for q in quotes]
        for _, _, r in keys:
            if not math.isfinite(2.0 * r):
                raise InputDomainError(f"r = {r!r} is too large: 2r overflows")
        for q in quotes:
            discount_factor(q.rate, q.tau)
        self.mids = np.array([q.mid for q in quotes])
        self.bs = _call_constants(quotes)
        self.dates = list(dict.fromkeys(keys))
        self.date_of = np.array([self.dates.index(key) for key in keys])
        self.two_rs = np.array([2.0 * r for _, _, r in self.dates])
        self.rate_counts = Counter(2.0 * r for _, _, r in keys)
        self.n_quotes = len(quotes)
        self.box = list(zip(lo.tolist(), hi.tolist()))
        self.v_box = v_box
        self.a_pieces = _a_pieces(*self.box[0], self.rate_counts)
        valuation_dates = {q.t for q in quotes}
        self.single_date = valuation_dates.pop() if len(valuation_dates) == 1 else None
        self._kept = None, None

    def _kernel(self, k: float, sig: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Calls, D1D2 and the per-date time factors at (k, sigma_bar)."""
        if self._kept[0] != (k, sig):
            if not 0.0 < sig < math.inf:
                raise InputDomainError(f"sigma_bar = {sig!r} must be positive and finite")
            if self.v_box[0] == self.v_box[1] == 0.0:  # tf is multiplied by v_eff = 0
                tf = np.zeros(len(self.dates))
            else:
                tf = np.array([p1_time_factor(t, mat, k) for t, mat, _ in self.dates])
            call, dd = call_and_d1d2(self.bs, sig)
            self._kept = (k, sig), (call, dd, tf)
        return self._kept[1]

    def profiled_v(self, a: float, k: float, sig: float) -> tuple[float, np.ndarray]:
        """Least-squares v_eff given the nonlinear parameters (model is linear in it)."""
        call, dd, tf = self._kernel(k, sig)
        mod = np.array([modification_factor(t, a, r, k) for t, _, r in self.dates])
        mod_tf = mod * tf
        base = mod[self.date_of] * call
        slope = mod_tf[self.date_of] * dd
        target = self.mids - base
        ss = float(slope @ slope)
        v = float(slope @ target) / ss if ss > 1e-300 else 0.0
        v = min(max(v, self.v_box[0]), self.v_box[1])
        return v, target - v * slope

    def objective(self, theta) -> float:
        """Price RMSE over (a, k, sigma_bar), with penalties outside the box and
        inside the excluded bands, and 1e9 at infeasible points."""
        theta = [float(x) for x in theta]
        a, k, sig = theta
        (a_lo, a_hi), (k_lo, k_hi), (s_lo, s_hi) = self.box
        if a < a_lo or a > a_hi or k < k_lo or k > k_hi or sig < s_lo or sig > s_hi:
            excess = sum(max(lo - x, 0.0) + max(x - hi, 0.0) for x, (lo, hi) in zip(theta, self.box))
            return 1e6 * (1.0 + excess)
        penalty = 0.0
        for two_r, count in self.rate_counts.items():
            gap = abs(a - two_r)
            if gap < A_EXCLUSION:
                penalty += count * 1e3 * (A_EXCLUSION - gap) / A_EXCLUSION
        try:
            _, resid = self.profiled_v(a, k, sig)
        except _INFEASIBLE:
            return 1e9
        return math.sqrt(float(resid @ resid) / self.n_quotes) + penalty

    def fit_a(self, k: float, sig: float) -> float:
        """The least-squares ``a`` at fixed (k, sigma_bar), with ``v_eff`` profiled.

        At one valuation date the factors are one level ``M`` times rate ratios
        known once ``k`` is, taken against the rate whose ratios stay <= 1, and
        ``a`` comes from :func:`_level_fit`.  Over several dates it is the best
        golden-section minimum of the profiled sum of squares on each a-piece.
        Outside the (k, sigma_bar) box ``a`` is the lower a-bound.

        Raises:
            SingularTimeError, LogDomainError, InputDomainError,
            NumericalOverflowError: at a point where the model is infeasible.
        """
        (a_lo, _), (k_lo, k_hi), (s_lo, s_hi) = self.box
        if not (k_lo <= k <= k_hi and s_lo <= sig <= s_hi):
            return a_lo
        if self.single_date is None:

            def sse(a: float) -> float:
                _, resid = self.profiled_v(a, k, sig)
                return float(resid @ resid)

            return _golden_pieces(sse, self.a_pieces)
        call, dd, tf = self._kernel(k, sig)
        g = factor_exponent(self.single_date, k)
        two_ref = min(self.rate_counts) if g > 0.0 else max(self.rate_counts)
        rho = np.exp((two_ref - self.two_rs) * g)
        b = rho[self.date_of] * call
        s = (rho * tf)[self.date_of] * dd
        return _level_fit(self.a_pieces, two_ref, g, self.mids, b, s, self.v_box)


@dataclass(frozen=True)
class CalibResult:
    """Fit of (a, k, v_eff, sigma_bar); objective is the price RMSE.

    ``iterations`` counts the Nelder-Mead iterations summed over starts and
    restarts: of the two-dimensional (k, sigma_bar) search, with ``a`` and
    ``v_eff`` solved exactly inside it, for a chain with one valuation date,
    and of the (a, k, sigma_bar) search otherwise.  ``restart_objectives``
    holds the final objective of each start.
    """

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
    seed: int = 0,
    n_restarts: int = 3,
) -> CalibResult:
    """Joint fit of ``(a, k, v_eff, sigma_bar)`` to a quote chain.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973):
    the model is linear in ``v_eff``, which is profiled out exactly.  With one
    valuation date the simplex searches only (k, sigma_bar), and for each of
    its points the best ``(a, v_eff)`` is solved exactly
    (:meth:`_ChainModel.fit_a`); with several it searches (a, k, sigma_bar).
    Runs the data-driven starts (ATM implied vol, ``a`` either side of the
    band around ``2r``, which are one point when ``a`` is solved) plus
    ``n_restarts`` seeded random starts inside the box ``BOUNDS``; each start
    is a chain of adaptive Nelder-Mead descents restarted on their own result
    until the objective stalls.  Deterministic for fixed (quotes, seed).

    Raises:
        InputDomainError: unless ``seed`` and ``n_restarts`` are non-negative
            integers, or when twice a quote's rate overflows or its discount
            factor is not a positive float.
        InsufficientDataError: unless the chain has >= 4 quotes spanning
            >= 2 maturities and >= 2 strikes.
    """
    for name, value in (("seed", seed), ("n_restarts", n_restarts)):
        if not isinstance(value, int) or value < 0:
            raise InputDomainError(f"{name} = {value!r} must be a non-negative integer")
    n_maturities = len({q.maturity for q in quotes})
    n_strikes = len({q.strike for q in quotes})
    if len(quotes) < 4 or n_maturities < 2 or n_strikes < 2:
        raise InsufficientDataError(
            f"need >= 4 quotes, >= 2 maturities and >= 2 strikes; got "
            f"{len(quotes)} quotes, {n_maturities} maturities, {n_strikes} strikes"
        )

    names = ("a", "k", "sigma_bar")
    lo = np.array([BOUNDS[n][0] for n in names])
    hi = np.array([BOUNDS[n][1] for n in names])
    model = _ChainModel(quotes, lo, hi, BOUNDS["v_eff"])
    if model.single_date is None:  # no closed form for a: the simplex searches it
        free, objective = slice(0, 3), model.objective
        offsets = (0.01, -0.01)
    else:
        free, offsets = slice(1, 3), (0.0,)

        def objective(x: tuple[float, float]) -> float:
            k, sig = x
            try:
                a = model.fit_a(k, sig)
            except _INFEASIBLE:
                return 1e9
            return model.objective((a, k, sig))

    rng = np.random.default_rng(seed)
    try:
        sigma_start = _atm_sigma(quotes)
    except InsufficientDataError:
        sigma_start = 0.2
    sigma_start = min(max(sigma_start, BOUNDS["sigma_bar"][0]), BOUNDS["sigma_bar"][1])
    # near a = 2r the factor is ~1 and the ATM implied vol alone reproduces the
    # chain, so both sides of the excluded band make strong data-driven starts
    r_mean = float(np.mean([q.rate for q in quotes]))
    starts = [[2.0 * r_mean + off, 0.05, sigma_start][free] for off in offsets]
    for _ in range(n_restarts):
        starts.append((lo + (hi - lo) * rng.random(3))[free].tolist())

    best = None
    total_iters = 0
    restart_objs = []
    converged = False
    for idx, x0 in enumerate(starts):
        x, fval = x0, objective(x0)
        success = False
        for _round in range(6):
            res = minimize(objective, x, maxiter=SIMPLEX_MAX_ITER, xatol=1e-12, fatol=1e-14)
            total_iters += res.nit
            improved = fval - res.fun
            x, fval, success = res.x, res.fun, res.success
            if improved <= 1e-15 * max(1.0, abs(fval)):
                break
        restart_objs.append(fval)
        if best is None or fval < best[1]:
            best = (x, fval, idx)
            converged = success
    theta, obj, _ = best
    if model.single_date is None:
        a_hat, k_hat, sigma_hat = theta
    else:
        k_hat, sigma_hat = theta
        a_hat = model.fit_a(k_hat, sigma_hat)
    v_best, _ = model.profiled_v(a_hat, k_hat, sigma_hat)
    return CalibResult(
        a_hat=a_hat,
        k_hat=k_hat,
        v_eff_hat=v_best,
        sigma_bar_hat=sigma_hat,
        objective=obj,
        iterations=total_iters,
        converged=converged,
        restart_objectives=tuple(restart_objs),
    )
