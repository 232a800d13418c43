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

Every expression is plain :mod:`math`, so pricing loads no numpy.  The
integrating-factor solution of the Poisson equation on a dense grid and its
residual remain as an independent oracle for ``diagnose`` and the tests;
pricing never runs them.  They live in :mod:`parabolic_sv.arrays`
(``solve_phi_derivative``, ``phi_residual_check``), beside ``vol_values``,
which evaluates ``f`` on arrays of ``y``.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import InputDomainError, NumericalOverflowError
from .params import ModelParams

__all__ = [
    "VolFunction",
    "EffectiveParams",
    "AveragingCache",
    "sigma_bar",
    "effective_params",
]

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
            y = [float(v) for v in self.y_nodes]
            f = [float(v) for v in self.f_values]
            if len(y) != len(f) or len(y) < 2:
                raise InputDomainError("table needs >= 2 matching (y, f) rows")
            # finiteness first: every comparison with a NaN is False, so the
            # order and sign tests below would pass one
            if not all(map(math.isfinite, y + f)):
                raise InputDomainError("table contains non-finite entries")
            if any(b <= a for a, b in zip(y, y[1:])):
                raise InputDomainError("table y nodes must be strictly increasing")
            if any(v <= 0.0 for v in f):
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
