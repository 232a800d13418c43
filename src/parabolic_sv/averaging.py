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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

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

_T = TypeVar("_T")


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

    The hash is computed on first use and kept on the instance (not a
    field), so a cache key holding the vol function hashes in O(1).  It hashes
    the kind's index in ``VOL_KINDS`` and the table's floats, never a ``str``
    or ``None``, whose hashes change from process to process: a pickled
    instance carries the kept value.
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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((VOL_KINDS.index(self.kind), self.y_nodes or (), self.f_values or ()))

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


class EffectiveParams(NamedTuple):
    """Averaged quantities at one slow-factor level and how they were computed.

    ``method`` names the exact expression used (``closed_form`` or
    ``piecewise_gaussian``), ``n_nodes`` counts the pieces it sums (1 for a
    closed form) and ``refine_delta`` is the error estimate, 0.0 for an exact
    result.  An immutable named tuple.
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

    Raises:
        NumericalOverflowError: when ``nu^2``, which ``E[f phi']`` divides
            by, underflows to 0, or when the pieces' sum of ``E[f^2]`` comes
            out negative (from about ``nu = 1e9`` on the sample table, its
            large terms cancel below rounding).
    """
    nu2 = nu * nu
    if nu2 == 0.0:
        raise NumericalOverflowError(f"table moments: nu^2 underflows to 0 at nu = {nu:g}")
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
    if mean_f2 < 0.0:
        raise NumericalOverflowError(
            f"table moments: E[f^2] = {mean_f2:g} is negative at m = {m:g}, nu = {nu:g}; its pieces overflow or cancel"
        )

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
    return mean_f2, -cov / nu2


def _averages(
    vol: VolFunction, z: float, m: float, nu: float, rho_xy: float, cache: AveragingCache | None = None
) -> EffectiveParams:
    """sigma_bar and V at slow-factor level ``z``; the one path behind every public entry.

    V is exactly zero when rho_xy = 0 or f does not depend on y.  A table's
    moments do not depend on ``z``, so with a ``cache`` they are computed
    once per ``(vol, m, nu)``.
    """
    _check_state(z, m, nu)
    if vol.kind == "y_constant":
        return EffectiveParams(z, 0.0, z, 1, 0.0, "closed_form")
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
        return EffectiveParams(sb, v, z, 1, 0.0, "closed_form")
    if cache is None:
        mean_f2, e_f_phi = _tabulated_moments(vol, m, nu)
    else:
        mean_f2, e_f_phi = cache.get_or_compute((vol, m, nu), lambda: _tabulated_moments(vol, m, nu))
    return EffectiveParams(
        math.sqrt(mean_f2),
        nu * rho_xy / _SQRT2 * e_f_phi if rho_xy != 0.0 else 0.0,
        z,
        len(vol.y_nodes) + 1,
        0.0,
        "piecewise_gaussian",
    )


def sigma_bar(vol: VolFunction, z: float, m: float, nu: float) -> float:
    """Effective volatility ``sqrt(E[f^2])`` at slow-factor level ``z``."""
    return _averages(vol, z, m, nu, 0.0).sigma_bar


class AveragingCache:
    """Memo table of deterministic values, each under a key that fixes it.

    Three kinds of entry share one table; their keys cannot compare equal:

    * ``(vol, model, t)`` -- the pricer's terms of one valuation date (its
      arc level ``z``, the averaged :class:`EffectiveParams` and the
      modification factor), so a date is averaged once however many
      contracts it prices;
    * ``(vol, m, nu)`` -- a table's moments, which do not depend on ``z``;
    * ``(vol, z, m, nu, rho_xy)`` -- :func:`effective_params` called with a
      cache.

    The vol function and the model keep their hashes, so a key hashes in
    O(1).  A hit is one dict lookup, with no lock: a single ``dict.get`` or
    item store is atomic in CPython (free-threaded builds lock each dict), and
    a miss computes a deterministic value, so threads that race on one key
    store equal values.  A computation that raises stores nothing.
    Concurrent pricing threads can share one instance.
    """

    def __init__(self):
        self._data: dict[tuple, object] = {}

    def get_or_compute(self, key: tuple, fn: Callable[[], _T]) -> _T:
        hit = self._data.get(key)
        if hit is None:
            hit = self._data[key] = fn()
        return hit


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
    if cache is None:
        return _averages(vol, z, model.m, model.nu, model.rho_xy)
    key = (vol, z, model.m, model.nu, model.rho_xy)
    return cache.get_or_compute(key, lambda: _averages(*key, cache))
