"""The simplex minimiser and the bracketing root finder of calibration.

Ports of the two scipy routines calibration ran, so that no process loads
scipy.  Each follows scipy 1.17.1 step for step on the path kept here, so
the iterates, and therefore calibration's reports, are the same bits:

* :func:`minimize` -- ``scipy.optimize.minimize(method="Nelder-Mead")`` with
  ``adaptive=True`` (Gao & Han, *Comput. Optim. Appl.* 51(1), 2012): the
  default initial simplex, ``xatol``/``fatol``/``maxiter``, no bounds and no
  callback.
* :func:`brentq` -- scipy's ``Zeros/brentq.c``: Brent's method (Brent,
  *Algorithms for Minimization without Derivatives*, 1973) with scipy's
  extrapolation step.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["SimplexResult", "brentq", "minimize"]


class SimplexResult(NamedTuple):
    """The best vertex of a simplex search and its value."""

    x: tuple[float, ...]
    fun: float
    nit: int
    success: bool  # stopped on xatol and fatol, before maxiter


def _ordered(sim: list, fsim: list) -> tuple[list, list]:
    # scipy orders the vertices with np.argsort, which does not keep tied
    # values in their order for 4 vertices; the search path depends on it
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(
    fun: Callable[[tuple[float, ...]], float],
    x0: Sequence[float],
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> SimplexResult:
    """Adaptive Nelder-Mead minimum of ``fun`` from ``x0``.

    The simplex starts at ``x0`` and at one point per coordinate, that
    coordinate scaled by 1.05, or set to 0.00025 when it is zero.  Its
    coefficients depend on the dimension ``n``: reflection 1, expansion
    ``1 + 2/n``, contraction ``0.75 - 1/(2n)`` and shrink ``1 - 1/n``.  The
    search stops when every vertex lies within ``xatol`` of the best in each
    coordinate and within ``fatol`` of it in value (``success``), or after
    ``maxiter`` iterations.  ``fun`` gets each vertex as a tuple of floats.
    """
    best = tuple(float(v) for v in x0)
    n = len(best)
    dim = float(n)
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim

    sim = [best]
    for k in range(n):
        y = list(best)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(tuple(y))
    fsim = [fun(x) for x in sim]
    sim, fsim = _ordered(sim, fsim)

    iterations = 1
    while iterations < maxiter:
        best, f_best = sim[0], fsim[0]
        if all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)) and all(
            abs(f_best - f) <= fatol for f in fsim[1:]
        ):
            break
        # the centroid of all but the worst vertex, summed in vertex order
        xbar = sim[0]
        for x in sim[1:-1]:
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / n for s in xbar]
        worst = sim[-1]

        xr = tuple([2 * b - w for b, w in zip(xbar, worst)])
        fxr = fun(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = tuple([(1 + chi) * b - chi * w for b, w in zip(xbar, worst)])
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = tuple([(1 + psi) * b - psi * w for b, w in zip(xbar, worst)])
            fxc = fun(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:  # inside contraction
            xcc = tuple([(1 - psi) * b + psi * w for b, w in zip(xbar, worst)])
            fxcc = fun(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = tuple([b + sigma * (v - b) for b, v in zip(best, sim[j])])
                fsim[j] = fun(sim[j])
        iterations += 1
        sim, fsim = _ordered(sim, fsim)

    return SimplexResult(
        x=sim[0], fun=float(np.min(fsim)), nit=iterations, success=iterations < maxiter
    )


def _div(num: float, den: float) -> float:
    """``num / den`` as C divides doubles: by zero it gives an infinity or NaN."""
    if den:
        return num / den
    if num == 0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _value(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"the function value at x = {x!r} is NaN")
    return fx


def brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    *,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in the bracket ``[xa, xb]`` by Brent's method.

    Stops when the bracket's half-width falls below ``(xtol + rtol |x|) / 2``
    or ``f(x)`` is zero.

    Raises:
        ValueError: ``f(xa)`` and ``f(xb)`` have the same sign, ``f`` returns
            NaN, or ``maxiter`` iterations do not converge.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # divided as in C: a zero divisor gives an infinite or NaN step,
            # which the test below turns into a bisection
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise ValueError(f"no convergence in {maxiter} iterations")
