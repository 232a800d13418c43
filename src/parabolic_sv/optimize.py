"""The simplex minimiser of calibration.

A port of the scipy routine calibration ran, so that no process loads scipy.
It follows scipy 1.17.1 step for step on the path kept here, so the iterates,
and therefore calibration's reports, are the same bits:
``scipy.optimize.minimize(method="Nelder-Mead")`` with ``adaptive=True``
(Gao & Han, *Comput. Optim. Appl.* 51(1), 2012): the default initial simplex,
``xatol``/``fatol``/``maxiter``, no bounds and no callback.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["SimplexResult", "minimize"]


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
