"""Acceptance gate: the package's top-level obligations, one printed line each.

Each test covers one numbered criterion and ends in ``report(...)``, which
prints a single pass/fail line (visible under ``pytest -s``) and asserts.
The Monte Carlo criterion runs a million paths per epsilon; the whole module
stays under a few minutes on commodity hardware.
"""
import math

import numpy as np
import pytest

from parabolic_sv import (
    BsInputs,
    ModelParams,
    OptionSpec,
    SimConfig,
    VolFunction,
    bs_call_price,
    bs_greeks,
    build_model,
    calibrate_effective,
    d1d2_call,
    effective_params,
    epsilon_sweep,
    estimate_a,
    l2_time_coefficient_check,
    modification_factor,
    p1_time_factor,
    phi_residual_check,
    price_first_order,
    sigma_bar,
)
from parabolic_sv.calibration import OptionQuote
from parabolic_sv.cli import main
from parabolic_sv.monte_carlo import BLOCK_SIZE

EXP = VolFunction.separable_exp()


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


# -- independent numeric helpers (no package internals) ----------------------

def quadrature_call(spot, strike, rate, sigma, tau):
    """Lognormal-density quadrature for the call value."""
    from scipy.integrate import quad

    st = sigma * math.sqrt(tau)
    mu = math.log(spot) + (rate - 0.5 * sigma * sigma) * tau

    def integrand(u):
        return (math.exp(u) - strike) * math.exp(-0.5 * ((u - mu) / st) ** 2)

    u_star = math.log(strike)
    val, err = quad(integrand, u_star, max(u_star, mu + 14.0 * st) + 14.0,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return math.exp(-rate * tau) * val / (st * math.sqrt(2.0 * math.pi))


def diff4(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def diff4_second(f, x, h):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
            - f(x - 2 * h)) / (12 * h * h)


def brute_v_pipeline(f_of_y, z, m, nu, rho, n=400_001):
    """Dense-grid rerun of the averaging construction, module-free."""
    y = np.linspace(m - 8.0 * nu, m + 8.0 * nu, n)
    h = y[1] - y[0]
    p = np.exp(-0.5 * ((y - m) / nu) ** 2) / (nu * math.sqrt(2.0 * math.pi))
    f = f_of_y(y)

    def trap(vals):
        return float(h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1])))

    mass = trap(p)
    sb2 = trap(f * f * p) / mass
    src = (f * f - sb2) * p
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (src[1:] + src[:-1]) * h)])
    phi_p = cum / (nu * nu * p)
    return nu * rho / math.sqrt(2.0) * (trap(f * phi_p * p) / mass)


# -- criteria -----------------------------------------------------------------

def test_criterion_1_modification_factor_value():
    vals = [modification_factor(t, 0.05, 0.0264, 0.008) for t in (0.0, 0.25, 0.5)]
    worst = max(abs(v - 0.934) for v in vals)
    report(1, worst <= 1e-3, f"factor within 0.934 +/- 0.001, worst gap {worst:.2e}")


def test_criterion_2_boundary_exactness():
    rng = np.random.default_rng(42)
    bad = 0
    for _ in range(1000):
        x = float(rng.uniform(50.0, 150.0))
        strike = float(rng.uniform(50.0, 150.0))
        model = build_model(
            z0=float(rng.uniform(0.05, 0.4)),
            k=float(rng.uniform(0.001, 0.5)),
            r=float(rng.uniform(0.0, 0.05)),
            epsilon=float(rng.uniform(0.001, 0.09)),
            rho_xy=float(rng.uniform(-0.5, 0.5)),
        )
        maturity = float(rng.uniform(0.1, 2.0))
        res = price_first_order(OptionSpec(x, strike, maturity, maturity), model, EXP)
        if res.total != max(x - strike, 0.0) or p1_time_factor(maturity, maturity, model.k) != 0.0:
            bad += 1
    report(2, bad == 0, f"1000 tuples priced exactly at expiry, {bad} mismatches")


def test_criterion_3_degenerate_correction():
    rng = np.random.default_rng(7)
    spec = OptionSpec(100.0, 105.0, 0.0, 0.5)
    worst_v, worst_rel = 0.0, 0.0
    for _ in range(50):
        model = build_model(rho_xy=0.0, z0=float(rng.uniform(0.1, 0.35)),
                            epsilon=float(rng.uniform(0.005, 0.08)))
        b = price_first_order(spec, model, EXP)
        worst_v = max(worst_v, abs(b.v))
        worst_rel = max(worst_rel, abs(b.total - b.mod_factor * b.q0) / abs(b.total))
    flat = price_first_order(spec, build_model(), VolFunction.y_constant())
    worst_v = max(worst_v, abs(flat.v))
    worst_rel = max(worst_rel, abs(flat.total - flat.mod_factor * flat.q0) / abs(flat.total))
    ok = worst_v <= 1e-12 and worst_rel <= 1e-12
    report(3, ok, f"uncorrelated and y-constant cases collapse to (1+g) Q0; "
                  f"max |V| {worst_v:.1e}, max rel gap {worst_rel:.1e}")


def test_criterion_4_black_scholes_kernel():
    worst_price = 0.0
    for mny in (0.8, 0.9, 1.0, 1.1, 1.25):
        for sigma in (0.1, 0.2, 0.3, 0.5, 0.8):
            for tau in (0.1, 0.5, 2.0):
                inp = BsInputs(100.0, 100.0 * mny, 0.0264, sigma, tau)
                gap = abs(bs_call_price(inp) - quadrature_call(100.0, 100.0 * mny, 0.0264, sigma, tau))
                worst_price = max(worst_price, gap)

    def fd_ok(got, want):
        return abs(got - want) <= 1e-6 * abs(want) + 1e-10

    greeks_ok = True
    for spot, rate, sigma, tau in (
        (90.0, 0.0264, 0.3, 0.5),
        (100.0, 0.0, 0.15, 1.0),
        (115.0, 0.0264, 0.8, 2.0),
        (100.0, 0.0264, 0.3, 0.25),
    ):
        g = bs_greeks(BsInputs(spot, 100.0, rate, sigma, tau))
        hx = 1e-3 * spot * min(max(sigma * math.sqrt(tau), 1e-2), 1.0)
        price_x = lambda x: bs_call_price(BsInputs(x, 100.0, rate, sigma, tau))
        price_s = lambda s: bs_call_price(BsInputs(spot, 100.0, rate, s, tau))
        price_t = lambda u: bs_call_price(BsInputs(spot, 100.0, rate, sigma, u))
        greeks_ok &= fd_ok(g.delta, diff4(price_x, spot, hx))
        greeks_ok &= fd_ok(g.gamma, diff4_second(price_x, spot, 10 * hx))
        greeks_ok &= fd_ok(g.vega, diff4(price_s, sigma, 1e-4 * sigma))
        greeks_ok &= fd_ok(g.theta, -diff4(price_t, tau, 1e-4 * tau))

    d1d2_ok = True
    for spot, sigma, tau in ((100.0, 0.3, 0.5), (90.0, 0.5, 1.0)):
        inp = BsInputs(spot, 100.0, 0.0264, sigma, tau)
        hx = 1e-3 * spot * min(max(sigma * math.sqrt(tau), 1e-2), 1.0)

        def d2_scaled(x):
            px = lambda u: bs_call_price(BsInputs(u, 100.0, 0.0264, sigma, tau))
            return x * x * diff4_second(px, x, hx)

        want = spot * diff4(d2_scaled, spot, hx)
        d1d2_ok &= abs(d1d2_call(inp) - want) <= 1e-4 * abs(want)

    ok = worst_price <= 1e-8 and greeks_ok and d1d2_ok
    report(4, ok, f"price vs quadrature worst {worst_price:.1e} (tol 1e-8); "
                  f"greeks FD {'ok' if greeks_ok else 'FAIL'}; d1d2 FD {'ok' if d1d2_ok else 'FAIL'}")


def test_criterion_5_averaging_oracles():
    worst_sb = worst_phi = worst_v = 0.0
    for z, m, nu in ((0.2, 0.0, 0.3), (0.35, -0.1, 0.2), (0.1, 0.1, 0.5)):
        closed = z * math.exp(m + nu * nu)
        worst_sb = max(worst_sb, abs(sigma_bar(EXP, z, m, nu) - closed) / closed)
        worst_phi = max(worst_phi, phi_residual_check(EXP, z, m, nu))
        brute = brute_v_pipeline(lambda y: z * np.exp(y), z, m, nu, -0.2)
        v = effective_params(EXP, z, build_model(m=m, nu=nu, rho_xy=-0.2)).v
        worst_v = max(worst_v, abs(v - brute) / abs(brute))
    ok = worst_sb <= 1e-10 and worst_phi <= 1e-6 and worst_v <= 1e-6
    report(5, ok, f"sigma_bar rel {worst_sb:.1e} (tol 1e-10); phi residual "
                  f"{worst_phi:.1e} (tol 1e-6); V vs brute force rel {worst_v:.1e} (tol 1e-6)")


def test_criterion_6_parabolic_bound_and_time_coefficient():
    rng = np.random.default_rng(6)
    bound_bad = l2_bad = 0
    worst_l2 = 0.0
    for _ in range(100):
        z0 = float(rng.uniform(0.05, 0.4))
        m_prime = z0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.02, 0.2))
        k = float(rng.uniform(0.01, 2.0))
        t = float(rng.uniform(0.05, 0.95)) / k
        model = build_model(z0=z0, m_prime=max(m_prime, 1e-3), k=k)
        from parabolic_sv import parabolic_coefficients

        arc = parabolic_coefficients(model)
        exact = model.m_prime + (z0 - model.m_prime) * math.exp(-k * t)
        bound = abs(z0 - model.m_prime) * (k * t) ** 3 / 6.0
        if abs(arc.value(t) - exact) > bound:
            bound_bad += 1
        direct, gamma_form = l2_time_coefficient_check(model, t)
        rel = abs(direct - gamma_form) / abs(gamma_form)
        worst_l2 = max(worst_l2, rel)
        if rel > 1e-10:
            l2_bad += 1
    ok = bound_bad == 0 and l2_bad == 0
    report(6, ok, f"100 draws: truncation bound violations {bound_bad}; "
                  f"time-coefficient forms agree, worst rel {worst_l2:.1e} (tol 1e-10)")


def test_criterion_7_monte_carlo_cross_validation():
    model = build_model(
        a=2 * 0.0264 + 1e-6, epsilon=0.01, eta=0.0, z0=0.2, m_prime=0.1,
        k=0.008, nu=0.25, rho_xy=-0.2, r=0.0264,
    )
    spec = OptionSpec(100.0, 100.0, 0.0, 0.5)
    sim = SimConfig(n_paths=10**6, steps_per_year=2000, seed=11,
                    z_scheme="parabolic", antithetic=True, n_workers=4)
    rows = epsilon_sweep(model, spec, EXP, sim, [0.04, 0.01, 0.0025])

    mid = rows[1]
    assert mid.epsilon == 0.01
    q0 = price_first_order(spec, model, EXP).q0
    tol = max(3.0 * mid.std_error, 0.005 * q0)
    point_ok = mid.abs_error <= tol

    trend_ok = all(
        b.abs_error <= a.abs_error + 3.0 * math.hypot(a.std_error, b.std_error)
        for a, b in zip(rows, rows[1:])
    )
    errs = ", ".join(f"{row.epsilon:g}: {row.abs_error:.4f}" for row in rows)
    report(7, point_ok and trend_ok,
           f"at eps 0.01 gap {mid.abs_error:.4f} <= {tol:.4f}; "
           f"sweep errors non-increasing within noise ({errs})")


def test_criterion_8_calibration_round_trip():
    # desk-scale regime: modification factor near 1, so the ATM-pinned noisy
    # estimator is not asked to absorb a large price-level distortion
    model = build_model(a=0.05, r=0.0264, k=0.008, epsilon=0.04, rho_xy=-0.4)
    b = price_first_order(OptionSpec(100.0, 100.0, 0.0, 1.0), model, EXP)
    v_eff_true = math.sqrt(model.epsilon) * b.v
    quotes = [
        OptionQuote(0.0, maturity, strike,
                    price_first_order(OptionSpec(100.0, strike, 0.0, maturity), model, EXP).total,
                    100.0, model.r)
        for maturity in (0.5, 1.0, 2.0)
        for strike in (90.0, 95.0, 100.0, 110.0)
    ]
    fit = calibrate_effective(quotes)
    a_gap = abs(fit.a_hat - 0.05)
    sb_gap = abs(fit.sigma_bar_hat - b.sigma_bar)
    v_rel = abs(fit.v_eff_hat - v_eff_true) / abs(v_eff_true)
    clean_ok = a_gap <= 0.01 and sb_gap <= 1e-3 and v_rel <= 0.10

    rng = np.random.default_rng(0)
    noisy = [
        OptionQuote(q.t, q.maturity, q.strike,
                    q.mid * (1.0 + 0.01 * float(rng.standard_normal())),
                    q.spot, q.rate)
        for q in quotes
    ]
    noisy_gap = abs(estimate_a(noisy, k=model.k).a_hat - 0.05)
    noisy_ok = noisy_gap <= 0.02
    report(8, clean_ok and noisy_ok,
           f"zero noise: |a-0.05| {a_gap:.1e} (tol 0.01), sigma_bar gap {sb_gap:.1e} "
           f"(tol 1e-3), v_eff rel {v_rel:.1e} (tol 0.10); 1% noise: |a-0.05| "
           f"{noisy_gap:.1e} (tol 0.02)")


def test_criterion_9_simulate_determinism(tmp_path, capsys):
    base = dict(spot=100.0, strike=100.0, maturity=0.02,
                n_paths=2 * BLOCK_SIZE + 777, steps_per_year=100, seed=9)

    def run(name, **extra):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, **extra}.items()))
        out = tmp_path / f"{name}.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        return out.read_bytes()

    repeat_ok = run("first") == run("second")
    workers_ok = run("w1", n_workers=1) == run("w4", n_workers=4)
    report(9, repeat_ok and workers_ok,
           "byte-identical reports across reruns and across 1 vs 4 workers")
