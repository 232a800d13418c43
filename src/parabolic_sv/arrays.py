"""The package's numpy code outside Monte Carlo and calibration.

Importing this module loads numpy, which the scalar pricing path (``price``)
never does, so neither ``averaging`` nor ``black_scholes`` imports it.

* :func:`vol_values` -- the vol function f(y, z) on arrays of y, which Monte
  Carlo steps with;
* :class:`CallConstants` and :func:`call_and_d1d2` -- the Black-Scholes call
  value and D1D2 of a whole chain at one volatility, for calibration;
* :func:`solve_phi_derivative` and :func:`phi_residual_check` -- the
  dense-grid Poisson oracle that ``diagnose`` and the tests set against the
  exact averages: the integrating-factor form ``phi'(y) = (1 / (nu^2 p(y)))
  * integral_{-inf}^{y} (f^2 - sigma_bar^2) p du`` by Simpson's rule, and
  the residual of the Poisson equation on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .averaging import VolFunction, _check_state, sigma_bar
from .errors import CenteringFailureError

__all__ = [
    "CallConstants",
    "PhiSolution",
    "call_and_d1d2",
    "phi_residual_check",
    "solve_phi_derivative",
    "vol_values",
]

#: Half-width of the oracle's dense grid in units of nu.
GRID_WIDTH = 8.0
#: Default point count of the oracle's grid up to nu = 1; wider grids get more
#: points, so the spacing never exceeds that of the same kind's grid at nu = 1.
ORACLE_POINTS = 32769
#: Ceiling on the default point count, which keeps the grid's memory bounded.
ORACLE_MAX_POINTS = 2**20 + 1
#: Ceiling on the oracle's centering integral, relative to sigma_bar^2.
CENTERING_TOL = 1e-8
#: Half-width, in units of nu, of the window on which the residual is measured.
RESIDUAL_WIDTH = 6.0
#: A table knot closer than this fraction of a cell to a grid point already
#: lies on the grid; inserting it would leave a cell too narrow to difference.
_KNOT_SNAP = 1e-9

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def vol_values(vol: VolFunction, y, z):
    """f(y, z) for a scalar or an array of y; a float for scalar arguments."""
    y = np.asarray(y, dtype=float)
    if vol.kind == "y_constant":
        out = np.broadcast_to(np.asarray(z, dtype=float), np.broadcast_shapes(y.shape, np.shape(z)))
        return out.copy() if out.shape else float(out)
    if vol.kind == "separable_exp":
        out = z * np.exp(y)
        return out if out.shape else float(out)
    out = np.interp(y, np.asarray(vol.y_nodes), np.asarray(vol.f_values))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# the Black-Scholes kernel over a chain
# ---------------------------------------------------------------------------


class CallConstants(NamedTuple):
    """Per-contract constants of :func:`call_and_d1d2`: everything but sigma.

    Build with :meth:`of`; the inputs are taken as already validated
    (positive spot and strike, positive finite ``tau``).
    """

    spot: np.ndarray
    log_moneyness: np.ndarray  # log(spot / strike)
    rate: np.ndarray
    tau: np.ndarray
    sqrt_tau: np.ndarray
    disc_strike: np.ndarray  # strike * exp(-rate * tau)

    @classmethod
    def of(cls, spot, strike, rate, tau) -> "CallConstants":
        spot, strike, rate, tau = (np.asarray(v, dtype=float) for v in (spot, strike, rate, tau))
        return cls(
            spot=spot,
            log_moneyness=np.log(spot / strike),
            rate=rate,
            tau=tau,
            sqrt_tau=np.sqrt(tau),
            disc_strike=strike * np.exp(-rate * tau),
        )


def call_and_d1d2(c: CallConstants, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Call value and D1D2 of every contract in ``c`` at volatility ``sigma``.

    Array form of :func:`~parabolic_sv.black_scholes.bs_call_price` and
    :func:`~parabolic_sv.black_scholes.d1d2_call` sharing one ``d1``; defined
    on interior inputs only (``sigma > 0``, ``tau > 0``), so the caller rules
    out the boundary cases.  The call value applies the formula of
    :func:`~parabolic_sv.black_scholes.norm_cdf` element by element
    (``math.erfc`` has no array form), so it is the one ``bs_call_price``
    gives from the same ``d1`` and ``d2``.
    """
    st = sigma * c.sqrt_tau
    d1 = (c.log_moneyness + (c.rate + 0.5 * sigma**2) * c.tau) / st
    call = np.array([
        x * (0.5 * math.erfc(-a / _SQRT2)) - k * (0.5 * math.erfc(-b / _SQRT2))
        for x, a, k, b in zip(c.spot.tolist(), d1.tolist(), c.disc_strike.tolist(), (d1 - st).tolist())
    ])
    d1d2 = c.spot * (np.exp(-0.5 * d1 * d1) / _SQRT_2PI) / st * (1.0 - d1 / st)
    return call, d1d2


# ---------------------------------------------------------------------------
# the dense-grid oracle: phi' and the Poisson residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiSolution:
    """phi' sampled on the dense quadrature grid."""

    y: np.ndarray
    phi_prime: np.ndarray
    rhs: np.ndarray
    centering_residual: float
    n_points: int


def _grid_ends(vol: VolFunction, m: float, nu: float) -> tuple[float, float]:
    hi = m + GRID_WIDTH * nu
    if vol.kind == "separable_exp":
        # f^2 p is a multiple of the N(m + 2 nu^2, nu^2) density, so the right
        # end follows that mean to keep the mass of E[f^2] on the grid
        hi += 2.0 * nu * nu
    return m - GRID_WIDTH * nu, hi


def _default_points(vol: VolFunction, m: float, nu: float) -> int:
    """Grid points that keep the spacing at or below the nu = 1 grid's.

    f, and the table's knots, vary on a fixed scale in y, so the quadrature
    and central-difference errors of the oracle follow the absolute spacing.
    """
    lo, hi = _grid_ends(vol, m, nu)
    lo_1, hi_1 = _grid_ends(vol, m, 1.0)
    cells = (ORACLE_POINTS - 1) * (hi - lo) / (hi_1 - lo_1)
    return min(max(ORACLE_POINTS, math.ceil(cells) + 1), ORACLE_MAX_POINTS)


def _inner_knots(vol: VolFunction, y: np.ndarray) -> np.ndarray:
    knots = np.asarray(vol.y_nodes)
    return knots[(knots > y[0]) & (knots < y[-1])]


def _nearest(y: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Index of the grid point nearest each knot; knots lie strictly inside the grid."""
    i = np.searchsorted(y, knots)
    return np.where(knots - y[i - 1] < y[i] - knots, i - 1, i)


def _grid(vol: VolFunction, m: float, nu: float, n_points: int) -> np.ndarray:
    y = np.linspace(*_grid_ends(vol, m, nu), n_points)
    if vol.kind == "tabulated":
        knots = _inner_knots(vol, y)
        knots = knots[np.abs(y[_nearest(y, knots)] - knots) > _KNOT_SNAP * (y[1] - y[0])]
        if knots.size:
            y = np.unique(np.concatenate([y, knots]))
    return y


def _density(y: np.ndarray, m: float, nu: float) -> np.ndarray:
    s = (y - m) / nu
    return np.exp(-0.5 * s * s) / (nu * _SQRT_2PI)


def solve_phi_derivative(
    vol: VolFunction,
    z: float,
    m: float,
    nu: float,
    *,
    sigma_bar_sq: float | None = None,
    n_points: int | None = None,
) -> PhiSolution:
    """Integrating-factor solution of the Poisson equation on the dense grid.

    The source f^2 - sigma_bar^2 must integrate to zero against the invariant
    density (mean-square centering); ``sigma_bar_sq`` defaults to the exact
    E[f^2] and is validated either way.  ``n_points`` defaults to
    ``ORACLE_POINTS``, raised with the grid's width beyond nu = 1.

    Raises:
        CenteringFailureError: if the source fails to center to CENTERING_TOL
            relative to sigma_bar^2, signalling an inconsistent sigma_bar.
    """
    _check_state(z, m, nu)
    if sigma_bar_sq is None:
        sigma_bar_sq = sigma_bar(vol, z, m, nu) ** 2
    y = _grid(vol, m, nu, _default_points(vol, m, nu) if n_points is None else n_points)
    p = _density(y, m, nu)
    f = np.asarray(vol_values(vol, y, z), dtype=float)
    rhs = f * f - sigma_bar_sq
    # Simpson's rule on each cell, through its midpoint: a table's knots are
    # grid points (to within _KNOT_SNAP of a cell), so every cell lies within
    # one piece, where the integrand is smooth and the rule is fourth order.
    # The second-order trapezoid rule misses CENTERING_TOL on steep tables.
    sixth = np.diff(y) / 6.0
    y_mid = 0.5 * (y[:-1] + y[1:])
    p_mid = _density(y_mid, m, nu)
    f_mid = np.asarray(vol_values(vol, y_mid, z), dtype=float)

    def cells(g: np.ndarray, g_mid: np.ndarray) -> np.ndarray:
        return sixth * (g[:-1] + 4.0 * g_mid + g[1:])

    p_cells = cells(p, p_mid)
    source_cells = cells(rhs * p, (f_mid * f_mid - sigma_bar_sq) * p_mid)
    mass = float(np.sum(source_cells))
    if abs(mass) > CENTERING_TOL * sigma_bar_sq:
        raise CenteringFailureError(
            f"source integrates to {mass:.3e} against the density, {abs(mass) / sigma_bar_sq:.3e} "
            f"of sigma_bar^2 (tol {CENTERING_TOL:g}); sigma_bar inconsistent with (f, z, m, nu)"
        )
    # remove the sub-tolerance remainder so the antiderivative decays cleanly
    source_cells -= mass / float(np.sum(p_cells)) * p_cells
    cum = np.concatenate(([0.0], np.cumsum(source_cells)))
    phi_prime = cum / (nu * nu * p)
    return PhiSolution(y=y, phi_prime=phi_prime, rhs=rhs, centering_residual=mass, n_points=y.size)


def _difference_at_knots(y: np.ndarray, g: np.ndarray, k: np.ndarray, out: np.ndarray) -> None:
    """Second-order ``g'`` at the grid indices ``k`` of knots and at their neighbours.

    A table knot is a corner of phi'', so a difference across it is only
    first-order.  Each stencil here stays within one piece: the three-point
    formula for unequal spacing at each neighbour, and a one-sided stencil
    from the right piece at the knot itself.  Writes into ``out``.
    """
    for i in (k - 1, k + 1):
        h1, h2 = y[i] - y[i - 1], y[i + 1] - y[i]
        out[i] = (h1 * h1 * (g[i + 1] - g[i]) + h2 * h2 * (g[i] - g[i - 1])) / (h1 * h2 * (h1 + h2))
    h1, h2 = y[k + 1] - y[k], y[k + 2] - y[k + 1]
    out[k] = ((h1 + h2) ** 2 * (g[k + 1] - g[k]) - h1 * h1 * (g[k + 2] - g[k])) / (h1 * h2 * (h1 + h2))


def phi_residual_check(vol: VolFunction, z: float, m: float, nu: float) -> float:
    """Sup-norm relative residual of the Poisson equation on the grid.

    Applies the generator ``(m - y) d/dy + nu^2 d^2/dy^2`` to the computed
    solution, approximating the second derivative by differences of phi'
    (numerics independent of the construction): central differences, and
    stencils that keep to one piece at the knots of a table.  Returns
    ``max |L0 phi - rhs| / max |rhs|`` over the window ``|y - m| <=
    RESIDUAL_WIDTH * nu``.  Exactly zero for y-constant f.
    """
    if vol.kind == "y_constant":
        return 0.0
    sol = solve_phi_derivative(vol, z, m, nu)
    y, pp = sol.y, sol.phi_prime
    phi_dd = np.empty_like(pp)
    phi_dd[1:-1] = (pp[2:] - pp[:-2]) / (y[2:] - y[:-2])
    phi_dd[0], phi_dd[-1] = phi_dd[1], phi_dd[-2]
    if vol.kind == "tabulated":
        k = _nearest(y, _inner_knots(vol, y))
        _difference_at_knots(y, pp, k[(k >= 2) & (k <= y.size - 3)], phi_dd)
    residual = (m - y) * pp + nu * nu * phi_dd - sol.rhs
    window = np.abs(y - m) <= RESIDUAL_WIDTH * nu
    window[:2] = window[-2:] = False
    scale = float(np.max(np.abs(sol.rhs[window])))
    return float(np.max(np.abs(residual[window])) / max(scale, 1e-300))
