"""The simplex minimiser and Brent root finder against scipy, bit for bit."""
import math

import numpy as np
import pytest
import scipy.optimize

from parabolic_sv import BsInputs, bs_call_price
from parabolic_sv.optimize import brentq, minimize

SIMPLEX_OPTIONS = {"maxiter": 400, "xatol": 1e-10, "fatol": 1e-12}


def simplex_problem(seed):
    """A seeded 2-D or 3-D objective and start.

    The families are smooth (a weighted quadratic, Rosenbrock's valley),
    kinked (abs sums, a max) and quantised: a staircase whose plateaus tie
    vertex values, so the simplex ends on tied vertices.  Every seventh
    start has a zero coordinate and every eleventh is all zeros, which the
    initial simplex treats apart.
    """
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    kind = seed % 5
    centre = rng.normal(size=n).tolist()
    weight = rng.uniform(0.5, 10.0, n).tolist()

    def fun(x):
        x = [float(v) for v in x]
        if kind == 0:
            return sum(w * (v - c) * (v - c) for v, c, w in zip(x, centre, weight))
        if kind == 1:
            return sum(100.0 * (x[i + 1] - x[i] * x[i]) ** 2 + (1.0 - x[i]) ** 2 for i in range(n - 1))
        if kind == 2:
            return math.floor(8.0 * sum(abs(v - c) for v, c in zip(x, centre))) / 8.0
        if kind == 3:
            return sum(abs(v - c) for v, c in zip(x, centre)) + 0.1 * math.sin(5.0 * x[0])
        return max(abs(v - c) for v, c in zip(x, centre))

    x0 = rng.normal(size=n)
    if seed % 7 == 0:
        x0[0] = 0.0
    if seed % 11 == 0:
        x0[:] = 0.0
    return fun, x0


def scipy_simplex(fun, x0, **options):
    return scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options={**options, "adaptive": True})


class TestSimplex:
    def test_matches_scipy_bit_for_bit(self):
        tied_ends = zero_starts = 0
        for seed in range(400):
            fun, x0 = simplex_problem(seed)
            want = scipy_simplex(fun, x0, **SIMPLEX_OPTIONS)
            got = minimize(fun, x0, **SIMPLEX_OPTIONS)
            assert list(got.x) == want.x.tolist(), seed
            assert (got.fun, got.nit, got.success) == (want.fun, want.nit, want.success), seed
            fsim = want.final_simplex[1].tolist()
            tied_ends += len(set(fsim)) < len(fsim)
            zero_starts += 0.0 in x0
        # the cases the port must order and start as scipy does are covered
        assert tied_ends >= 50 and zero_starts >= 80

    def test_iteration_cap(self):
        fun, x0 = simplex_problem(1)
        want = scipy_simplex(fun, x0, maxiter=7, xatol=1e-12, fatol=1e-12)
        got = minimize(fun, x0, maxiter=7, xatol=1e-12, fatol=1e-12)
        assert (got.nit, got.success) == (want.nit, want.success) == (7, False)
        assert list(got.x) == want.x.tolist()


def implied_vol_bracket(rng):
    """The bracketing problem implied_vol hands to brentq, for a random contract
    and a price within 2% of its Black-Scholes value."""
    strike = float(rng.uniform(50.0, 150.0))
    rate = float(rng.uniform(-0.02, 0.1))
    tau = float(rng.uniform(0.01, 5.0))
    sigma = float(rng.uniform(0.01, 2.0))
    price = bs_call_price(BsInputs(100.0, strike, rate, sigma, tau)) * float(rng.uniform(0.98, 1.02))
    return lambda s: bs_call_price(BsInputs(100.0, strike, rate, s, tau)) - price


class TestBrentq:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(0)
        compared = 0
        while compared < 1200:
            f = implied_vol_bracket(rng)
            if f(1e-9) > 0 or f(5.0) < 0:  # implied_vol returns NaN without a search
                continue
            want = scipy.optimize.brentq(f, 1e-9, 5.0, xtol=1e-12, rtol=8.9e-16)
            assert brentq(f, 1e-9, 5.0, xtol=1e-12, rtol=8.9e-16) == want
            compared += 1

    @pytest.mark.parametrize("maxiter", [1, 3, 8])
    def test_iteration_cap(self, maxiter):
        # scipy converges here in 8 iterations and raises RuntimeError in fewer
        f = lambda x: math.atan(x - 1.3)
        args = dict(xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=maxiter)
        try:
            want = scipy.optimize.brentq(f, 0.0, 7.0, **args)
        except RuntimeError:
            with pytest.raises(ValueError):
                brentq(f, 0.0, 7.0, **args)
        else:
            assert brentq(f, 0.0, 7.0, **args) == want

    def test_root_at_an_end_and_no_sign_change(self):
        assert brentq(lambda x: x - 1.0, 1.0, 2.0, xtol=1e-12, rtol=1e-15) == 1.0
        with pytest.raises(ValueError):
            brentq(lambda x: x + 1.0, 1.0, 2.0, xtol=1e-12, rtol=1e-15)
        with pytest.raises(ValueError):
            brentq(lambda x: math.nan, 1.0, 2.0, xtol=1e-12, rtol=1e-15)
