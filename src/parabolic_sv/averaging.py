"""Fast-factor averaging: effective volatility and the correlation coefficient V.

The fast factor Y has invariant law N(m, nu^2) with density p.  For a vol
function f(y, z) the module computes

* ``sigma_bar(z)``   -- effective volatility, the root mean square
  ``sqrt(E_p[f^2])`` (the centering condition of the Poisson equation below
  forces the mean-square convention),
* ``V``              -- ``(nu * rho_xy / sqrt(2)) * E_p[f * phi']``, the
  coefficient of the first-order price correction, where phi solves the
  Poisson equation ``(m - y) phi' + nu^2 phi'' = f^2 - sigma_bar^2``.

Integrating by parts with ``F' = f`` removes the Poisson solve:
``E_p[f phi'] = -(1/nu^2) E_p[F (f^2 - sigma_bar^2)]``.  Every vol kind then
has an exact expression, one code path per quantity:

* ``y_constant``     ``sigma_bar = z`` and ``V = 0``;
* ``separable_exp``  lognormal moments: ``sigma_bar = z e^{m + nu^2}`` and
  ``V = rho_xy z^3 / (sqrt(2) nu) e^{3m + 5nu^2/2} (1 - e^{2nu^2})``;
* ``tabulated``      f is piecewise linear and F piecewise quadratic, so each
  expectation is a sum over the pieces of Gaussian partial moments of order
  at most 4.  The clamped ends are pieces that run out to -inf and +inf.

The integrating-factor form ``phi'(y) = (1 / (nu^2 p(y))) * integral_{-inf}^{y}
(f^2 - sigma_bar^2) p du`` by Simpson's rule on a dense grid
(:func:`solve_phi_derivative`) and the residual of the Poisson equation on it
(:func:`phi_residual_check`) remain as an independent oracle for ``diagnose``
and the tests; pricing never runs them.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    CenteringFailureError,
    InputDomainError,
    NumericalOverflowError,
)
from .params import ModelParams

__all__ = [
    "VolFunction",
    "EffectiveParams",
    "AveragingCache",
    "sigma_bar",
    "solve_phi_derivative",
    "PhiSolution",
    "effective_params",
    "phi_residual_check",
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


#: The vol function kinds, in the order messages list them.
VOL_KINDS = ("y_constant", "separable_exp", "tabulated")


@dataclass(frozen=True)
class VolFunction:
    """Positive volatility function f(y, z) of the two factors.

    Kinds:
        ``y_constant``     f(y, z) = z
        ``separable_exp``  f(y, z) = z * exp(y)
        ``tabulated``      two-column table (y, f) at fixed z, linear
                           interpolation, clamped to the end values outside
                           the table range; the z argument is ignored.
    """

    kind: str
    y_nodes: tuple[float, ...] | None = None
    f_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in VOL_KINDS:
            raise InputDomainError(f"unknown vol function kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.y_nodes is None or self.f_values is None:
                raise InputDomainError("tabulated vol function needs y_nodes and f_values")
            y = np.asarray(self.y_nodes, dtype=float)
            f = np.asarray(self.f_values, dtype=float)
            if y.size != f.size or y.size < 2:
                raise InputDomainError("table needs >= 2 matching (y, f) rows")
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(f))):
                raise InputDomainError("table contains non-finite entries")
            if np.any(np.diff(y) <= 0):
                raise InputDomainError("table y nodes must be strictly increasing")
            if np.any(f <= 0):
                raise InputDomainError("table f values must be positive")

    # -- constructors -------------------------------------------------------
    @classmethod
    def y_constant(cls) -> "VolFunction":
        return cls(kind="y_constant")

    @classmethod
    def separable_exp(cls) -> "VolFunction":
        return cls(kind="separable_exp")

    @classmethod
    def tabulated(cls, y_nodes, f_values) -> "VolFunction":
        return cls(
            kind="tabulated",
            y_nodes=tuple(float(v) for v in y_nodes),
            f_values=tuple(float(v) for v in f_values),
        )

    @classmethod
    def from_table_file(cls, path) -> "VolFunction":
        """Read a two-column text table; '#' starts a comment, blank lines skipped."""
        try:
            lines = Path(path).read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputDomainError(f"cannot read vol table {path}: {exc}") from exc
        ys, fs = [], []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise InputDomainError(f"{path}: line {lineno}: expected two columns, got {raw!r}")
            try:
                ys.append(float(parts[0]))
                fs.append(float(parts[1]))
            except ValueError as exc:
                raise InputDomainError(f"{path}: line {lineno}: {exc}") from None
        if not ys:
            raise InputDomainError(f"{path}: empty table")
        return cls.tabulated(ys, fs)

    # -- evaluation ---------------------------------------------------------
    def __call__(self, y, z):
        y = np.asarray(y, dtype=float)
        if self.kind == "y_constant":
            out = np.broadcast_to(np.asarray(z, dtype=float), np.broadcast_shapes(y.shape, np.shape(z)))
            return out.copy() if out.shape else float(out)
        if self.kind == "separable_exp":
            out = z * np.exp(y)
            return out if out.shape else float(out)
        out = np.interp(y, np.asarray(self.y_nodes), np.asarray(self.f_values))
        return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# exact averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveParams:
    """Averaged quantities at one slow-factor level and how they were computed.

    ``method`` names the exact expression used (``closed_form`` or
    ``piecewise_gaussian``), ``n_nodes`` counts the pieces it sums (1 for a
    closed form) and ``refine_delta`` is the error estimate, 0.0 for an exact
    result.
    """

    sigma_bar: float
    v: float
    z: float
    n_nodes: int
    refine_delta: float
    method: str


def _check_state(z: float, m: float, nu: float) -> None:
    for name, val in (("z", z), ("m", m), ("nu", nu)):
        if not math.isfinite(val):
            raise InputDomainError(f"{name} = {val!r} is not finite")
    if z <= 0.0:
        raise InputDomainError(f"z = {z:g} must be > 0")
    if nu <= 0.0:
        raise InputDomainError(f"nu = {nu:g} must be > 0")


def _tabulated_moments(vol: VolFunction, m: float, nu: float) -> tuple[float, float]:
    """Exact ``(E[f^2], E[f phi'])`` of the clamped linear interpolant.

    Pieces: the clamped left end (-inf, y_0), the table intervals, and the
    clamped right end (y_last, +inf).  Each piece is anchored at its left
    table node (the left end at y_0).  In ``s = (y - m) / nu`` the piece has
    ``f = c0 + c1 s`` and ``F = d0 + d1 s + d2 s^2``, with ``F`` the
    antiderivative of ``f`` from y_0.  ``J[n]``, the integral of ``s^n
    phi(s)`` over the piece with ``phi`` the standard normal density, follows
    ``J[n] = (n-1) J[n-2] + sa^(n-1) phi(sa) - sb^(n-1) phi(sb)``.

    A plain loop: tables have a few rows, where numpy's per-call overhead
    outweighs the arithmetic (an array form wins from about 50 rows).
    """
    ys, fs = vol.y_nodes, vol.f_values
    n = len(ys)
    pieces = []
    mean_f2 = mean_big_f = big_f = 0.0
    for i in range(n + 1):
        lo, hi = max(i - 1, 0), min(i, n - 1)  # anchor and right node; equal on the clamped ends
        y_a, f_a = ys[lo], fs[lo]
        h = ys[hi] - y_a
        slope = (fs[hi] - f_a) / h if lo < hi else 0.0
        sa = (y_a - m) / nu if i > 0 else -math.inf
        sb = (ys[i] - m) / nu if i < n else math.inf
        pdf_a = math.exp(-0.5 * sa * sa) / _SQRT_2PI
        pdf_b = math.exp(-0.5 * sb * sb) / _SQRT_2PI
        # pieces right of the mean take the difference of upper tails, which
        # does not cancel where both edges lie far out
        if sa >= 0.0:
            j0 = 0.5 * (math.erfc(sa / _SQRT2) - math.erfc(sb / _SQRT2))
        else:
            j0 = 0.5 * (math.erfc(-sb / _SQRT2) - math.erfc(-sa / _SQRT2))
        # an infinite edge contributes nothing; zero it so s^n * 0 stays 0
        a = sa if i > 0 else 0.0
        b = sb if i < n else 0.0
        j1 = pdf_a - pdf_b
        edge_a, edge_b = pdf_a * a, pdf_b * b
        j2 = j0 + edge_a - edge_b
        edge_a, edge_b = edge_a * a, edge_b * b
        j3 = 2.0 * j1 + edge_a - edge_b
        edge_a, edge_b = edge_a * a, edge_b * b
        j4 = 3.0 * j2 + edge_a - edge_b

        u0 = m - y_a  # y - y_a = u0 + nu s
        c0 = f_a + slope * u0
        c1 = slope * nu
        d0 = big_f + u0 * (f_a + 0.5 * slope * u0)
        d1 = nu * c0
        d2 = 0.5 * nu * c1
        mean_f2 += c0 * c0 * j0 + 2.0 * c0 * c1 * j1 + c1 * c1 * j2
        mean_big_f += d0 * j0 + d1 * j1 + d2 * j2
        pieces.append((c0, c1, d0, d1, d2, j0, j1, j2, j3, j4))
        if lo < hi:
            big_f += 0.5 * (f_a + fs[hi]) * h

    cov = 0.0
    for c0, c1, d0, d1, d2, j0, j1, j2, j3, j4 in pieces:
        # centre F at its mean so that its constant part cancels to rounding only
        d0 -= mean_big_f
        e0, e1, e2 = c0 * c0 - mean_f2, 2.0 * c0 * c1, c1 * c1  # f^2 - sigma_bar^2
        cov += (
            d0 * e0 * j0
            + (d0 * e1 + d1 * e0) * j1
            + (d0 * e2 + d1 * e1 + d2 * e0) * j2
            + (d1 * e2 + d2 * e1) * j3
            + d2 * e2 * j4
        )
    return mean_f2, -cov / (nu * nu)


def _averages(vol: VolFunction, z: float, m: float, nu: float, rho_xy: float) -> EffectiveParams:
    """sigma_bar and V at slow-factor level ``z``; the one path behind every public entry.

    V is exactly zero when rho_xy = 0 or f does not depend on y.
    """
    _check_state(z, m, nu)
    if vol.kind == "y_constant":
        return EffectiveParams(sigma_bar=z, v=0.0, z=z, n_nodes=1, refine_delta=0.0, method="closed_form")
    if vol.kind == "separable_exp":
        # lognormal moments, with z inside the exponentials so that a result
        # beyond the float range raises there instead of turning into inf:
        #   sigma_bar = z e^{m + nu^2}
        #   V = (rho_xy / sqrt 2) z^3 e^{3m + 9nu^2/2} (e^{-2nu^2} - 1) / nu
        var = nu * nu
        log_z = math.log(z)
        try:
            sb = math.exp(log_z + m + var)
            v = 0.0
            if rho_xy != 0.0:
                v = rho_xy / _SQRT2 * math.exp(3.0 * (log_z + m) + 4.5 * var) * math.expm1(-2.0 * var) / nu
        except OverflowError:
            raise NumericalOverflowError(
                f"separable_exp moments overflow at z = {z:g}, m = {m:g}, nu = {nu:g}"
            ) from None
        return EffectiveParams(sigma_bar=sb, v=v, z=z, n_nodes=1, refine_delta=0.0, method="closed_form")
    mean_f2, e_f_phi = _tabulated_moments(vol, m, nu)
    return EffectiveParams(
        sigma_bar=math.sqrt(mean_f2),
        v=nu * rho_xy / _SQRT2 * e_f_phi if rho_xy != 0.0 else 0.0,
        z=z,
        n_nodes=len(vol.y_nodes) + 1,
        refine_delta=0.0,
        method="piecewise_gaussian",
    )


def sigma_bar(vol: VolFunction, z: float, m: float, nu: float) -> float:
    """Effective volatility ``sqrt(E[f^2])`` at slow-factor level ``z``."""
    return _averages(vol, z, m, nu, 0.0).sigma_bar


class AveragingCache:
    """Memo table for averaged quantities, keyed by (f, z, m, nu, rho_xy).

    Reads and writes are serialized by a lock, so concurrent pricing threads
    can share one instance.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._data: dict[tuple, EffectiveParams] = {}

    def get_or_compute(self, key: tuple, fn: Callable[[], EffectiveParams]) -> EffectiveParams:
        with self._lock:
            hit = self._data.get(key)
        if hit is not None:
            return hit
        val = fn()
        with self._lock:
            self._data[key] = val
        return val


def effective_params(
    vol: VolFunction,
    z: float,
    model: ModelParams,
    *,
    cache: AveragingCache | None = None,
) -> EffectiveParams:
    """sigma_bar and V for the pricer at slow-factor level ``z``.

    V is ``(nu * rho_xy / sqrt(2)) * E[f * phi']``, exactly zero when
    rho_xy = 0 or f does not depend on y (phi' vanishes).
    """

    def compute() -> EffectiveParams:
        return _averages(vol, z, model.m, model.nu, model.rho_xy)

    if cache is None:
        return compute()
    key = (vol, z, model.m, model.nu, model.rho_xy)
    return cache.get_or_compute(key, compute)


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
    f = np.asarray(vol(y, z), dtype=float)
    rhs = f * f - sigma_bar_sq
    # Simpson's rule on each cell, through its midpoint: a table's knots are
    # grid points (to within _KNOT_SNAP of a cell), so every cell lies within
    # one piece, where the integrand is smooth and the rule is fourth order.
    # The second-order trapezoid rule misses CENTERING_TOL on steep tables.
    sixth = np.diff(y) / 6.0
    y_mid = 0.5 * (y[:-1] + y[1:])
    p_mid = _density(y_mid, m, nu)
    f_mid = np.asarray(vol(y_mid, z), dtype=float)

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