"""Reference values computed apart from the program.

Nothing here imports ``parabolic_sv``.  Every quantity the benchmark checks
is rebuilt from closed forms and the standard library's ``math.erfc``:

* Black-Scholes call value and the ``x d/dx (x^2 d^2/dx^2)`` operator applied
  to it, both in closed form;
* the effective volatility ``sigma_bar`` and the correlation coefficient
  ``V``: closed forms for ``separable_exp`` and ``y_constant``, and an exact
  piecewise-Gaussian integration for ``tabulated`` (``V`` by parts,
  ``E[f phi'] = -(1/nu^2) E[F (f^2 - sigma_bar^2)]`` with ``F' = f``);
* the modification factor, the time factor, the parabolic arc and the
  assembled first-order price ``(1+g)[Q0 + sqrt(eps) tf V D1D2 Q0]``;
* the effective quote model used to generate calibration chains.
"""
from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_2PI


def _d1(spot, strike, rate, sigma, tau):
    st = sigma * math.sqrt(tau)
    return (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / st, st


def bs_call(spot: float, strike: float, rate: float, sigma: float, tau: float) -> float:
    """Black-Scholes call value; sigma = 0 or tau = 0 give the forward bound."""
    disc_k = strike * math.exp(-rate * tau)
    if tau == 0.0 or sigma == 0.0:
        return max(spot - disc_k, 0.0)
    d1, st = _d1(spot, strike, rate, sigma, tau)
    return spot * norm_cdf(d1) - disc_k * norm_cdf(d1 - st)


def d1d2(spot: float, strike: float, rate: float, sigma: float, tau: float) -> float:
    """``x d/dx (x^2 C_xx)`` = ``x n(d1) / (sigma sqrt(tau)) (1 - d1 / (sigma sqrt(tau)))``."""
    d1, st = _d1(spot, strike, rate, sigma, tau)
    return spot * norm_pdf(d1) / st * (1.0 - d1 / st)


def mod_factor(t: float, a: float, r: float, k: float) -> float:
    """``|kt-2|^((a-2r)/k) exp((2r-a)/(k|kt-2|)) / exp((2r-a) t/2)``."""
    q = abs(k * t - 2.0)
    e = a - 2.0 * r
    return math.exp(e / k * math.log(q) - e / (k * q) + e * t / 2.0)


def time_factor(t: float, maturity: float, k: float) -> float:
    """``2 [ (1/k) log((kT-2)/(kt-2)) + (T-t)/((kT-2)(kt-2)) ]``."""
    dt_, dT = k * t - 2.0, k * maturity - 2.0
    return 2.0 * (math.log(dT / dt_) / k + (maturity - t) / (dT * dt_))


def arc_z(t: float, z0: float, m_prime: float, k: float) -> float:
    """Second-order Taylor arc of the slow factor's OU mean path."""
    gap = z0 - m_prime
    return z0 - gap * k * t + 0.5 * gap * k * k * t * t


# ---------------------------------------------------------------------------
# averaging


def _gauss_moments(sa: float, sb: float, order: int) -> list[float]:
    """``J_n = integral_sa^sb s^n phi(s) ds`` for n = 0..order (sa, sb may be infinite)."""
    if sa >= 0.0:
        j0 = 0.5 * (math.erfc(sa / SQRT2) - math.erfc(sb / SQRT2))
    elif sb <= 0.0:
        j0 = 0.5 * (math.erfc(-sb / SQRT2) - math.erfc(-sa / SQRT2))
    else:
        j0 = 1.0 - 0.5 * (math.erfc(-sa / SQRT2) + math.erfc(sb / SQRT2))

    def edge(s: float, n: int) -> float:  # s^n phi(s), zero at infinity
        return 0.0 if math.isinf(s) else s**n * norm_pdf(s)

    out = [j0, edge(sa, 0) - edge(sb, 0)]
    for n in range(2, order + 1):
        out.append((n - 1) * out[n - 2] + edge(sa, n - 1) - edge(sb, n - 1))
    return out[: order + 1]


def _polymul(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _table_pieces(y_nodes, f_values, m: float, nu: float):
    """Pieces ``(sa, sb, f, F)`` of the clamped linear interpolant in ``s = (y-m)/nu``.

    ``f`` and its antiderivative ``F`` (in y) are polynomials in ``s`` given by
    coefficient lists, lowest order first.
    """
    ys = [float(v) for v in y_nodes]
    fs = [float(v) for v in f_values]
    pieces = []
    # left tail: f = f0, F = f0 (y - y0)
    pieces.append((-math.inf, ys[0], [fs[0]], [fs[0] * (m - ys[0]), fs[0] * nu]))
    big_f = 0.0  # F at the left end of the current piece
    for i in range(len(ys) - 1):
        slope = (fs[i + 1] - fs[i]) / (ys[i + 1] - ys[i])
        # with u = y - y_i = (m - y_i) + nu s
        u = [m - ys[i], nu]
        f_poly = [fs[i] + slope * u[0], slope * u[1]]
        u2 = _polymul(u, u)
        F_poly = [big_f + fs[i] * u[0] + 0.5 * slope * u2[0],
                  fs[i] * u[1] + 0.5 * slope * u2[1],
                  0.5 * slope * u2[2]]
        pieces.append((ys[i], ys[i + 1], f_poly, F_poly))
        h = ys[i + 1] - ys[i]
        big_f += fs[i] * h + 0.5 * slope * h * h
    pieces.append((ys[-1], math.inf, [fs[-1]], [big_f + fs[-1] * (m - ys[-1]), fs[-1] * nu]))
    out = []
    for a, b, f_poly, F_poly in pieces:
        sa = -math.inf if math.isinf(a) else (a - m) / nu
        sb = math.inf if math.isinf(b) else (b - m) / nu
        out.append((sa, sb, f_poly, F_poly))
    return out


def _expect(pieces, integrand) -> float:
    total = 0.0
    for sa, sb, f_poly, F_poly in pieces:
        poly = integrand(f_poly, F_poly)
        moments = _gauss_moments(sa, sb, len(poly) - 1)
        total += sum(c * j for c, j in zip(poly, moments))
    return total


def averaged(kind: str, z: float, m: float, nu: float, rho_xy: float, table=None) -> tuple[float, float]:
    """``(sigma_bar, V)`` of the root-mean-square averaging at slow level ``z``."""
    if kind == "y_constant":
        return z, 0.0
    if kind == "separable_exp":
        sb = z * math.exp(m + nu * nu)
        v = (rho_xy * z**3 / (SQRT2 * nu) * math.exp(3.0 * m + 2.5 * nu * nu)
             * -math.expm1(2.0 * nu * nu))
        return sb, v
    if kind != "tabulated":
        raise ValueError(f"unknown vol kind {kind!r}")
    pieces = _table_pieces(table[0], table[1], m, nu)
    sb2 = _expect(pieces, lambda f, F: _polymul(f, f))
    # centre F at y = m so the constant part of F cancels to rounding only
    shift = _expect(pieces, lambda f, F: F)
    e_f_phi = -_expect(
        pieces,
        lambda f, F: _polymul([F[0] - shift] + F[1:], [c - (sb2 if i == 0 else 0.0)
                                                       for i, c in enumerate(_polymul(f, f))]),
    ) / (nu * nu)
    return math.sqrt(sb2), nu * rho_xy / SQRT2 * e_f_phi


# ---------------------------------------------------------------------------
# first-order price


def first_order(spot, strike, t, maturity, model: dict, kind: str, table=None) -> dict:
    """Every component of ``(1+g)[Q0 + sqrt(eps) tf V D1D2 Q0]`` for ``t < maturity``."""
    z = arc_z(t, model["z0"], model["m_prime"], model["k"])
    sb, v = averaged(kind, z, model["m"], model["nu"], model["rho_xy"], table)
    tau = maturity - t
    r = model["r"]
    q0 = bs_call(spot, strike, r, sb, tau)
    dd = d1d2(spot, strike, r, sb, tau)
    tf = time_factor(t, maturity, model["k"])
    mod = mod_factor(t, model["a"], r, model["k"])
    total = mod * (q0 + math.sqrt(model["epsilon"]) * tf * v * dd)
    return dict(z=z, sigma_bar=sb, v=v, q0=q0, d1d2=dd, time_factor=tf, mod_factor=mod,
                p0=mod * q0, total=total)


def effective_quote(t, maturity, strike, spot, rate, a, k, v_eff, sigma_bar) -> float:
    """Quote model of the effective calibration: ``M (Q0 + v_eff tf D1D2 Q0)``."""
    tau = maturity - t
    return mod_factor(t, a, rate, k) * (
        bs_call(spot, strike, rate, sigma_bar, tau)
        + v_eff * time_factor(t, maturity, k) * d1d2(spot, strike, rate, sigma_bar, tau)
    )


def deterministic_variance(model: dict, t: float, maturity: float, steps_per_year: int) -> float:
    """Total variance of log X_T when f = z and Z follows its OU mean path (eta = 0).

    Mirrors the simulation grid: the volatility is frozen at each step's left
    end, and Z starts from the OU mean at the valuation date.
    """
    horizon = maturity - t
    n_steps = max(1, round(steps_per_year * horizon))
    dt = horizon / n_steps
    decay = math.exp(-model["k"] * dt)
    z = model["m_prime"] + (model["z0"] - model["m_prime"]) * math.exp(-model["k"] * t)
    var = 0.0
    for _ in range(n_steps):
        var += z * z * dt
        z = model["m_prime"] + (z - model["m_prime"]) * decay
    return var


def implied_vol(price: float, spot: float, strike: float, rate: float, tau: float) -> float:
    """Black-Scholes implied volatility by bisection on [1e-9, 5]."""
    lo, hi = 1e-9, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bs_call(spot, strike, rate, mid, tau) < price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def a_fit_sse(quotes, a: float, k: float, rate: float, sigma: float) -> float:
    """Least-squares objective of the one-parameter fit: quotes priced as ``M(t; a) Q0(sigma)``."""
    total = 0.0
    for t, maturity, strike, mid, spot, q_rate in quotes:
        resid = mid - mod_factor(t, a, rate, k) * bs_call(spot, strike, q_rate, sigma, maturity - t)
        total += resid * resid
    return total
