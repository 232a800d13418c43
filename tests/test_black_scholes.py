"""Call pricing checked against direct lognormal quadrature, greeks against
finite differences, and the x d/dx (x^2 d^2/dx^2) operator against nested
differencing of the price itself."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from parabolic_sv import BsInputs, InputDomainError, NumericalOverflowError, bs_call_price, bs_greeks, d1d2_call
from parabolic_sv.black_scholes import bs_call_and_d1d2, call_and_d1d2_at, call_constants
from parabolic_sv.black_scholes import norm_cdf, norm_pdf


def call_by_quadrature(spot, strike, rate, sigma, tau):
    """Discounted payoff integrated against the terminal lognormal law."""
    st = sigma * math.sqrt(tau)
    drift = (rate - 0.5 * sigma**2) * tau
    u_star = (math.log(strike / spot) - drift) / st  # exercise boundary

    def integrand(u):
        return (spot * math.exp(drift + st * u) - strike) * norm_pdf(u)

    # the integrand is negligible a few sigmas past max(u_star, st)
    hi = max(u_star, st) + 14.0
    val, est_err = quad(integrand, u_star, hi, limit=300, epsabs=1e-12, epsrel=1e-12)
    assert est_err < 1e-9
    return math.exp(-rate * tau) * val


def price(spot, strike, rate, sigma, tau):
    return bs_call_price(BsInputs(spot, strike, rate, sigma, tau))


def spot_step(spot, sigma, tau):
    # the price profile varies on the scale spot * sigma * sqrt(tau), so
    # differencing steps must shrink with it to keep the truncation error down
    return 1e-3 * spot * min(max(sigma * math.sqrt(tau), 1e-2), 1.0)


def diff4(f, x, h):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def diff4_second(f, x, h):
    """Fourth-order central second derivative."""
    return (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)


class TestNormCdf:
    # Phi(x) to 16 digits, computed once offline with mpmath (ncdf, 40 digits)
    @pytest.mark.parametrize(
        "x,want,rel",
        [
            (-30.0, 4.906713927148187e-198, 1e-12),  # erfc's error grows like x^2 ulp
            (-8.0, 6.220960574271784e-16, 1e-14),
            (-1.0, 0.15865525393145705, 1e-14),
            (0.5, 0.6914624612740131, 1e-14),
        ],
    )
    def test_matches_high_precision_values(self, x, want, rel):
        assert norm_cdf(x) == pytest.approx(want, rel=rel, abs=0.0)


class TestPrice:
    def test_frozen_at_the_money_value(self):
        assert price(100.0, 100.0, 0.0264, 0.2, 0.5) == pytest.approx(
            6.2802357505251, abs=1e-10
        )

    def test_against_quadrature_grid(self):
        spots = [80.0, 90.0, 100.0, 110.0, 125.0]
        strikes = [70.0, 90.0, 100.0, 105.0, 120.0]
        regimes = [(0.2, 0.5), (0.45, 1.5), (0.08, 0.1)]
        for sigma, tau in regimes:
            for x in spots:
                for k in strikes:
                    want = call_by_quadrature(x, k, 0.0264, sigma, tau)
                    assert price(x, k, 0.0264, sigma, tau) == pytest.approx(
                        want, abs=1e-8
                    ), (x, k, sigma, tau)

    def test_zero_tau_is_intrinsic(self):
        assert price(105.0, 100.0, 0.0264, 0.2, 0.0) == 5.0
        assert price(95.0, 100.0, 0.0264, 0.2, 0.0) == 0.0

    def test_zero_sigma_is_forward_intrinsic(self):
        assert price(100.0, 100.0, 0.0264, 0.0, 1.0) == pytest.approx(
            2.60545664907, abs=1e-9
        )
        assert price(50.0, 100.0, 0.0264, 0.0, 1.0) == 0.0

    def test_underflowing_sigma_sqrt_tau_is_forward_intrinsic(self):
        # 1e-200 * sqrt(1e-300) underflows to 0, which d1 would divide by
        assert price(101.0, 100.0, 0.0264, 1e-200, 1e-300) == 101.0 - 100.0 * math.exp(-0.0264e-300)
        assert price(99.0, 100.0, 0.0264, 1e-200, 1e-300) == 0.0

    def test_monotonicity_weak_everywhere(self):
        # far from the money the sigma/tau sensitivities underflow, so only
        # weak ordering can hold in floating point
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.uniform(50.0, 150.0)
            k = rng.uniform(50.0, 150.0)
            r = rng.uniform(0.0, 0.08)
            sig = rng.uniform(0.05, 0.8)
            tau = rng.uniform(0.05, 2.0)
            base = price(x, k, r, sig, tau)
            assert price(x * 1.01, k, r, sig, tau) > base
            assert price(x, k * 1.01, r, sig, tau) < base
            assert price(x, k, r, sig * 1.01, tau) >= base
            assert price(x, k, r, sig, tau * 1.01) >= base  # r >= 0

    def test_monotonicity_strict_near_the_money(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            x = rng.uniform(50.0, 150.0)
            k = x * rng.uniform(0.9, 1.1)
            r = rng.uniform(0.0, 0.08)
            sig = rng.uniform(0.15, 0.8)
            tau = rng.uniform(0.25, 2.0)
            base = price(x, k, r, sig, tau)
            assert price(x, k, r, sig * 1.01, tau) > base
            assert price(x, k, r, sig, tau * 1.01) > base

    def test_arbitrage_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            x = rng.uniform(50.0, 150.0)
            k = rng.uniform(50.0, 150.0)
            r = rng.uniform(0.0, 0.08)
            sig = rng.uniform(0.05, 0.8)
            tau = rng.uniform(0.05, 2.0)
            c = price(x, k, r, sig, tau)
            assert max(x - k * math.exp(-r * tau), 0.0) <= c <= x

    @pytest.mark.parametrize(
        "kw",
        [
            dict(spot=0.0, strike=100.0, rate=0.0, sigma=0.2, tau=1.0),
            dict(spot=100.0, strike=-5.0, rate=0.0, sigma=0.2, tau=1.0),
            dict(spot=100.0, strike=100.0, rate=0.0, sigma=-0.2, tau=1.0),
            dict(spot=100.0, strike=100.0, rate=0.0, sigma=0.2, tau=-1.0),
            dict(spot=math.nan, strike=100.0, rate=0.0, sigma=0.2, tau=1.0),
            dict(spot=100.0, strike=90.0, rate=-2000.0, sigma=0.2, tau=0.5),  # exp(-r tau) overflows
        ],
    )
    def test_bad_inputs_rejected(self, kw):
        with pytest.raises(InputDomainError):
            BsInputs(**kw)


class TestGreeks:
    def test_match_finite_differences(self):
        for x in (90.0, 100.0, 115.0):
            for r in (0.0, 0.0264):
                for sig in (0.05, 0.3, 0.8):
                    for tau in (0.05, 0.5, 2.0):
                        g = bs_greeks(BsInputs(x, 100.0, r, sig, tau))
                        ctx = (x, r, sig, tau)
                        hx = spot_step(x, sig, tau)

                        fd_delta = diff4(lambda s: price(s, 100.0, r, sig, tau), x, hx)
                        # second differences divide by h^2, so the roundoff
                        # floor needs a larger step than the first derivative
                        fd_gamma = diff4_second(
                            lambda s: price(s, 100.0, r, sig, tau), x, 10.0 * hx
                        )
                        fd_vega = diff4(
                            lambda s_: price(x, 100.0, r, s_, tau), sig, 1e-4 * sig
                        )
                        # calendar theta: derivative in the valuation date, so
                        # a positive bump in t shortens tau
                        fd_theta = diff4(
                            lambda dt: price(x, 100.0, r, sig, tau - dt), 0.0, 1e-4 * tau
                        )

                        for got, want in (
                            (g.delta, fd_delta),
                            (g.gamma, fd_gamma),
                            (g.vega, fd_vega),
                            (g.theta, fd_theta),
                        ):
                            # 1e-10 absolute floor: differencing the O(10)
                            # price cannot resolve smaller magnitudes
                            assert abs(got - want) <= 1e-6 * abs(want) + 1e-10, ctx

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InputDomainError):
            bs_greeks(BsInputs(100.0, 100.0, 0.0264, 0.0, 1.0))
        with pytest.raises(InputDomainError):
            bs_greeks(BsInputs(100.0, 100.0, 0.0264, 0.2, 0.0))
        with pytest.raises(InputDomainError, match="underflows to 0"):
            bs_greeks(BsInputs(100.0, 100.0, 0.0264, 1e-200, 1e-300))


class TestOperatorD1D2:
    def test_frozen_at_the_money_value(self):
        got = d1d2_call(BsInputs(100.0, 100.0, 0.0264, 0.2, 0.5))
        assert got == pytest.approx(-44.531895790019, rel=1e-10)

    def test_matches_nested_differencing(self):
        # x d/dx of g(x) = x^2 d^2 price/dx^2, both layers by central steps
        for x in (90.0, 100.0, 110.0):
            for sig in (0.15, 0.3):
                for tau in (0.25, 1.0):

                    def squared_curvature(s):
                        h = spot_step(s, sig, tau)
                        c = lambda v: price(v, 100.0, 0.0264, sig, tau)
                        return s * s * (c(s + h) - 2 * c(s) + c(s - h)) / (h * h)

                    h_out = spot_step(x, sig, tau)
                    fd = x * (squared_curvature(x + h_out) - squared_curvature(x - h_out)) / (
                        2 * h_out
                    )
                    got = d1d2_call(BsInputs(x, 100.0, 0.0264, sig, tau))
                    if abs(got) > 1e-8:
                        assert got == pytest.approx(fd, rel=1e-4), (x, sig, tau)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InputDomainError):
            d1d2_call(BsInputs(100.0, 100.0, 0.0264, 0.0, 1.0))
        with pytest.raises(InputDomainError):
            d1d2_call(BsInputs(100.0, 100.0, 0.0264, 0.2, 0.0))
        with pytest.raises(InputDomainError) as exc:
            d1d2_call(BsInputs(100.0, 100.0, 0.0264, 1e-200, 1e-300))
        assert str(exc.value) == (
            "d1d2_call undefined at sigma = 1e-200, tau = 1e-300 (sigma * sqrt(tau) underflows to 0)"
        )


class TestScalarKernel:
    """call_and_d1d2_at: the one scalar formula behind bs_call_and_d1d2,
    bs_call_price, d1d2_call and calibration's chain kernel."""

    MONEYNESS = (0.2, 0.5, 0.8, 0.95, 1.0, 1.05, 1.25, 2.0, 5.0)  # strike / spot

    def test_same_bits_as_the_formula_written_out(self):
        # d1 once, then the call value and D1D2 in the order of the formulas:
        # x N(d1) - (K e^{-r tau}) N(d2), and x n(d1) / st * (1 - d1 / st)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            spot, strike = float(rng.uniform(50.0, 150.0)), float(rng.uniform(20.0, 400.0))
            rate, sigma = float(rng.uniform(-0.02, 0.1)), float(rng.uniform(0.01, 2.0))
            tau = float(10.0 ** rng.uniform(-4.0, math.log10(5.0)))
            st = sigma * math.sqrt(tau)
            d1 = (math.log(spot / strike) + (rate + 0.5 * sigma**2) * tau) / st
            disc_k = strike * math.exp(-rate * tau)
            want_call = spot * norm_cdf(d1) - disc_k * norm_cdf(d1 - st)
            want_dd = spot * norm_pdf(d1) / st * (1.0 - d1 / st)
            args = (spot, strike, rate, sigma, tau)
            assert bs_call_and_d1d2(*args) == (want_call, want_dd), args
            assert bs_call_price(BsInputs(*args)) == want_call, args
            assert d1d2_call(BsInputs(*args)) == want_dd, args

    def test_matches_scalar_functions_on_a_grid(self):
        spot = 100.0
        for strike in (spot * m for m in self.MONEYNESS):
            for rate in (0.0, 0.0264, 0.08):
                for tau in (0.01, 0.25, 1.0, 5.0):
                    consts = call_constants(spot, strike, rate, tau)
                    for sigma in (0.02, 0.2, 0.8, 2.0):
                        inp = BsInputs(spot, strike, rate, sigma, tau)
                        want = (bs_call_price(inp), d1d2_call(inp))
                        assert call_and_d1d2_at(*consts, sigma) == want, (strike, rate, tau, sigma)

    def test_call_applies_the_scalar_cdf_exactly(self):
        # the same bits as norm_cdf, deep into the lower tail, where formulas
        # of the normal CDF part by tens of ulps
        rng = np.random.default_rng(3)
        lowest = math.inf
        for _ in range(400):
            spot, strike = float(rng.uniform(50.0, 150.0)), float(rng.uniform(20.0, 400.0))
            rate, tau = float(rng.uniform(-0.02, 0.1)), float(rng.uniform(0.01, 5.0))
            consts = call_constants(spot, strike, rate, tau)
            _, log_moneyness, disc_k, _, _, sqrt_tau = consts
            for sigma in (0.01, 0.2, 1.5):
                st = sigma * sqrt_tau
                d1 = (log_moneyness + (rate + 0.5 * sigma**2) * tau) / st
                call, _ = call_and_d1d2_at(*consts, sigma)
                assert call == spot * norm_cdf(d1) - disc_k * norm_cdf(d1 - st), (consts, sigma)
                lowest = min(lowest, d1)
        assert lowest < -30.0

    def test_frozen_at_the_money_values(self):
        for call, dd in (
            call_and_d1d2_at(*call_constants(100.0, 100.0, 0.0264, 0.5), 0.2),
            bs_call_and_d1d2(100.0, 100.0, 0.0264, 0.2, 0.5),
        ):
            assert call == pytest.approx(6.2802357505251, abs=1e-10)
            assert dd == pytest.approx(-44.531895790019, rel=1e-10)

    @pytest.mark.parametrize("sigma", [1e-155, 1e-200, 1e-300, 9.4e-323])
    def test_d1d2_is_its_zero_limit_where_the_density_underflows(self, sigma):
        # n(d1) underflows to 0 while d1 / st overflows: the product would be
        # 0 * -inf; D1D2 is 0 with the sign of 1 - d1 / st, as at every
        # finite ratio
        call, dd = bs_call_and_d1d2(100.0, 100.0, 0.0264, sigma, 0.5)
        assert call == 100.0 - 100.0 * math.exp(-0.0264 * 0.5)
        assert dd == 0.0 and math.copysign(1.0, dd) == -1.0
        # below the money d1 is large and negative: 1 - d1 / st is +inf
        _, dd = bs_call_and_d1d2(100.0, 150.0, 0.0264, sigma, 0.5)
        assert dd == 0.0 and math.copysign(1.0, dd) == 1.0

    def test_underflowed_density_at_a_finite_ratio_keeps_the_product(self):
        # deep out of the money at an ordinary sigma: n(d1) is 0 and the
        # product spot * 0 / st * (1 - d1 / st) is an exact signed zero already
        for strike in (1e-6, 1e12):
            consts = call_constants(100.0, strike, 0.0264, 0.5)
            _, dd = call_and_d1d2_at(*consts, 0.05)
            st = 0.05 * consts[-1]
            d1 = (consts[1] + (0.0264 + 0.5 * 0.05**2) * 0.5) / st
            assert norm_pdf(d1) == 0.0 and math.isfinite(d1 / st)
            assert math.copysign(1.0, dd) == math.copysign(1.0, 100.0 * 0.0 / st * (1.0 - d1 / st))

    def test_underflowing_moneyness_is_refused(self):
        # spot / strike = 1e-330 rounds to 0, and log(0) raised a ValueError
        with pytest.raises(InputDomainError) as exc:
            call_constants(1e-30, 1e300, 0.0264, 1.0)
        assert str(exc.value) == "spot / strike = 1e-30 / 1e+300 underflows to 0; the log-moneyness is undefined"
        # a subnormal ratio still has its log
        assert call_constants(1e-20, 1e300, 0.0264, 1.0)[1] == math.log(1e-20 / 1e300)

    @pytest.mark.parametrize("fn", [bs_call_price, d1d2_call, bs_greeks], ids=lambda f: f.__name__)
    def test_overflowing_sigma_squared_is_refused(self, fn):
        # d1 takes sigma**2, which raised an OverflowError from about 1.34e154
        what = {"bs_greeks": "greeks"}.get(fn.__name__, fn.__name__)
        with pytest.raises(NumericalOverflowError) as exc:
            fn(BsInputs(100.0, 100.0, 0.0264, 1e160, 1.0))
        assert str(exc.value) == f"{what} undefined at sigma = 1e+160, tau = 1 (sigma^2 overflows)"
        assert math.isfinite(bs_call_price(BsInputs(100.0, 100.0, 0.0264, 1.3e154, 1.0)))
        # at tau = 0 the call value is the payoff, whatever sigma
        assert bs_call_price(BsInputs(120.0, 100.0, 0.0264, 1e160, 0.0)) == 20.0
