"""Assembled first-order price: frozen component values, exact reductions,
scaling laws, and the operator-residual diagnostics."""
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from parabolic_sv import pricer, slow_factor
from parabolic_sv import (
    AveragingCache,
    BsInputs,
    EffectiveParams,
    InputDomainError,
    LogDomainError,
    NumericalOverflowError,
    OptionSpec,
    SingularTimeError,
    ParabolicSlowFactor,
    PriceBreakdown,
    VolFunction,
    bs_call_price,
    build_model,
    d1d2_call,
    effective_params,
    modification_factor,
    p0_pde_residual,
    p1_time_factor,
    parabolic_coefficients,
    price_first_order,
)

EXP = VolFunction.separable_exp()
FLAT = VolFunction.y_constant()
SAMPLE_TABLE = Path(__file__).resolve().parents[1] / "configs" / "vol_table_sample.txt"

ATM = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)

# all components of the default at-the-money half-year valuation, frozen from
# the closed forms (sigma_bar, V, d1d2) and independent arithmetic
FROZEN = dict(
    z=0.2,
    sigma_bar=0.2188348567410421,
    q0=6.804524923603466,
    mod_factor=0.9346328382337245,
    p0=6.359732442179625,
    time_factor=-0.24999966566426185,
    v=0.0009314190932600949,
    d1d2=-13.046564308437928,
    correction=0.0002839368496179162,
    total=6.3600163790292426,
)


class TestModificationFactor:
    def test_frozen_values(self):
        for t, want in (
            (0.0, 0.93463283823372),
            (0.25, 0.93479674074451),
            (0.5, 0.9349613281105),
        ):
            assert modification_factor(t, 0.05, 0.0264, 0.008) == pytest.approx(
                want, abs=1e-12
            )

    def test_neutral_when_a_equals_twice_rate(self):
        assert modification_factor(0.3, 0.0528, 0.0264, 0.008) == 1.0

    def test_start_value_identity(self):
        # at t = 0 the log of the factor is (log 2 - 1/2) (a - 2r) / k
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rng.uniform(-0.2, 0.2)
            r = rng.uniform(0.0, 0.08)
            k = rng.uniform(0.005, 0.5)
            want = math.exp((math.log(2.0) - 0.5) * (a - 2.0 * r) / k)
            assert modification_factor(0.0, a, r, k) == pytest.approx(want, rel=1e-12)

    def test_singular_time_rejected(self):
        with pytest.raises(SingularTimeError):
            modification_factor(2.0, 0.05, 0.0264, 1.0)


class TestP1TimeFactor:
    def test_frozen_values(self):
        assert p1_time_factor(0.0, 0.5, 0.008) == pytest.approx(
            -0.24999966566426, abs=1e-12
        )
        assert p1_time_factor(0.25, 0.5, 0.008) == pytest.approx(
            -0.1249997073935, abs=1e-12
        )

    def test_exactly_zero_at_maturity(self):
        assert p1_time_factor(0.7, 0.7, 0.008) == 0.0
        assert p1_time_factor(0.5, 0.5, 0.9) == 0.0

    def test_small_rate_limit_is_half_the_horizon(self):
        # k -> 0 collapses the factor to -(T - t)/2
        assert p1_time_factor(0.0, 0.5, 1e-8) == pytest.approx(-0.25, rel=1e-6)
        assert p1_time_factor(1.0, 3.0, 1e-8) == pytest.approx(-1.0, rel=1e-6)

    @pytest.mark.parametrize("k", [1e-12, 1e-17])
    @pytest.mark.parametrize("t, maturity", [(0.0, 0.5), (1.0, 3.0)])
    def test_small_rate_limit_keeps_full_accuracy(self, k, t, maturity):
        # log((kT-2)/(kt-2)) of a ratio near 1 loses every digit here (at
        # k = 1e-17 it flips the sign); the factor is -(T - t)/2 + O(k)
        assert p1_time_factor(t, maturity, k) == pytest.approx(-(maturity - t) / 2, rel=1e-12)

    def test_singular_denominators_rejected(self):
        with pytest.raises(SingularTimeError):
            p1_time_factor(2.0, 2.5, 1.0)
        with pytest.raises(SingularTimeError):
            p1_time_factor(0.5, 2.0, 1.0)

    def test_straddling_the_singular_time_rejected(self):
        with pytest.raises(LogDomainError):
            p1_time_factor(1.5, 2.5, 1.0)


class TestBreakdownFrozen:
    def test_default_at_the_money_components(self):
        got = price_first_order(ATM, build_model(), EXP)
        assert got.z == pytest.approx(FROZEN["z"], rel=1e-12)
        assert got.sigma_bar == pytest.approx(FROZEN["sigma_bar"], rel=1e-10)
        assert got.q0 == pytest.approx(FROZEN["q0"], rel=1e-10)
        assert got.mod_factor == pytest.approx(FROZEN["mod_factor"], rel=1e-10)
        assert got.p0 == pytest.approx(FROZEN["p0"], rel=1e-10)
        assert got.time_factor == pytest.approx(FROZEN["time_factor"], rel=1e-10)
        assert got.v == pytest.approx(FROZEN["v"], rel=1e-9)
        assert got.d1d2 == pytest.approx(FROZEN["d1d2"], rel=1e-10)
        assert got.correction == pytest.approx(FROZEN["correction"], rel=1e-9)
        assert got.total == pytest.approx(FROZEN["total"], rel=1e-10)

    def test_component_wiring(self):
        model = build_model()
        got = price_first_order(ATM, model, EXP)
        assert got.p0 == pytest.approx(got.mod_factor * got.q0, rel=1e-14)
        core = math.sqrt(model.epsilon) * got.time_factor * got.v * got.d1d2
        assert got.total == pytest.approx(got.mod_factor * (got.q0 + core), rel=1e-14)
        assert got.correction == pytest.approx(got.total - got.p0, abs=1e-12)


class TestOnePass:
    """price_first_order checks its inputs once and takes Q0 and D1D2 from one
    d1; every component stays the composition of the checked public parts."""

    TABLE = VolFunction.tabulated((-1.0, -0.2, 0.3, 1.0), (0.3, 0.2, 0.22, 0.4))

    @staticmethod
    def composed(spec, model, vol):
        z = float(parabolic_coefficients(model).value(spec.t))
        eff = effective_params(vol, z, model)
        inp = BsInputs(spec.spot, spec.strike, model.r, eff.sigma_bar, spec.tau)
        q0, dd = bs_call_price(inp), d1d2_call(inp)
        tf = p1_time_factor(spec.t, spec.maturity, model.k)
        mod = modification_factor(spec.t, model.a, model.r, model.k)
        total = mod * (q0 + math.sqrt(model.epsilon) * tf * eff.v * dd)
        p0 = mod * q0
        return PriceBreakdown(z, eff.sigma_bar, q0, mod, p0, tf, eff.v, dd, total - p0, total)

    @classmethod
    def grid(cls):
        """600 seeded (spec, model, vol) contracts over the three vol kinds."""
        rng = np.random.default_rng(17)
        vols = (FLAT, EXP, cls.TABLE)
        out = []
        for i in range(600):
            model = build_model(
                r=float(rng.uniform(-0.02, 0.1)), nu=float(rng.uniform(0.05, 1.5)),
                rho_xy=float(rng.uniform(-0.9, 0.9)), m=float(rng.uniform(-0.5, 0.5)),
                z0=float(rng.uniform(0.05, 0.5)), k=float(10.0 ** rng.uniform(-4.0, -1.0)),
            )
            t = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            tau = float(10.0 ** rng.uniform(-4.0, math.log10(5.0)))
            spec = OptionSpec(100.0, float(rng.uniform(20.0, 400.0)), t, t + tau)
            out.append((spec, model, vols[i % 3]))
        return out

    @pytest.mark.parametrize("with_cache", [False, True], ids=["no_cache", "cache"])
    def test_components_equal_the_checked_composition(self, with_cache):
        cache = AveragingCache() if with_cache else None
        for i, (spec, model, vol) in enumerate(self.grid()):
            want = self.composed(spec, model, vol)
            for _ in range(2 if with_cache else 1):  # the second price hits the cache
                got = price_first_order(spec, model, vol, cache=cache)
                # == per field: every component bit for bit
                assert got._asdict() == want._asdict(), (i, spec, model)

    def test_threads_sharing_one_cache_match_a_sequential_run(self):
        # the cache takes no lock: racing threads may both miss one key, and
        # then store equal values; a short switch interval makes races likely
        grid = self.grid()
        want = [price_first_order(spec, model, vol) for spec, model, vol in grid]
        cache = AveragingCache()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(price_first_order, spec, model, vol, cache=cache)
                           for _ in range(2) for spec, model, vol in grid]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert got == want + want

    def test_arc_is_built_once_per_model(self, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return parabolic_coefficients(model)

        monkeypatch.setattr(slow_factor, "parabolic_coefficients", counting)
        model = build_model()
        rng = np.random.default_rng(23)
        for i in range(100):
            t = float(rng.uniform(0.0, 1.0))
            # every tenth contract is valued at maturity, on the payoff branch
            maturity = t if i % 10 == 0 else t + float(rng.uniform(0.01, 2.0))
            got = price_first_order(OptionSpec(100.0, float(rng.uniform(50.0, 150.0)), t, maturity), model, EXP)
            assert got.z == parabolic_coefficients(model).value(t)
        assert calls == [model]

    def test_non_finite_sigma_bar_is_refused(self):
        # f^2 overflows in the table's moments, and sigma_bar comes out NaN
        table = VolFunction.tabulated((-1.0, 0.0, 1.0), (1e200, 2e200, 1e200))
        with pytest.raises(InputDomainError) as exc:
            price_first_order(ATM, build_model(), table)
        assert str(exc.value) == "sigma = nan is not a finite number"

    def test_overflowing_discount_factor_is_refused(self):
        with pytest.raises(InputDomainError) as exc:
            price_first_order(ATM, build_model(r=-2000.0), EXP)
        assert str(exc.value) == "discount factor exp(-r * tau) overflows at r = -2000.0, tau = 0.5"

    def test_zero_sigma_bar_is_refused(self):
        # separable_exp's e^(m + nu^2) underflows to 0 at m = -800
        assert effective_params(EXP, 0.2, build_model(m=-800.0)).sigma_bar == 0.0
        with pytest.raises(InputDomainError) as exc:
            price_first_order(ATM, build_model(m=-800.0), EXP)
        assert str(exc.value) == "d1d2_call undefined at sigma = 0, tau = 0.5"

    @pytest.mark.parametrize("m", [-360.0, -700.0, -740.0])
    def test_tiny_sigma_bar_prices_without_a_correction(self, m):
        # separable_exp's sigma_bar is below ~1e-155 here: n(d1) underflows
        # to 0 while d1 / (sigma sqrt(tau)) overflows, and D1D2 is its limit 0
        got = price_first_order(ATM, build_model(m=m), EXP)
        assert 0.0 < got.sigma_bar < 1e-155
        assert got.d1d2 == 0.0 and got.correction == 0.0
        assert got.total == got.p0 and math.isfinite(got.total)

    @pytest.mark.parametrize(
        "keys, maturity, message",
        [
            # sigma_bar ~ 2.7e-233 times sqrt(tau) = 1e-150 underflows to 0,
            # which d1 divided by
            (dict(m=-534.0), 1e-300,
             "d1d2_call undefined at sigma = 2.67216e-233, tau = 1e-300 "
             "(sigma * sqrt(tau) underflows to 0)"),
            # x n(d1) / (sigma sqrt(tau)) times d1 / (sigma sqrt(tau)) overflows
            (dict(m=-200.0), 1e-300,
             "D1D2 = -inf is not finite at sigma = 3.02845e-88, tau = 1e-300; "
             "the first-order correction is undefined"),
            # at r = 0 an at-the-money n(d1) stays near 0.4 while sigma sqrt(tau) ~ 7e-323
            (dict(r=0.0, m=-740.0), 0.5,
             "D1D2 = inf is not finite at sigma = 9.38725e-323, tau = 0.5; "
             "the first-order correction is undefined"),
        ],
        ids=["sigma_sqrt_tau_underflows", "d1d2_minus_inf", "d1d2_inf"],
    )
    def test_undefined_kernel_is_refused(self, keys, maturity, message):
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=maturity)
        with pytest.raises(InputDomainError) as exc:
            price_first_order(spec, build_model(**keys), EXP)
        assert str(exc.value) == message

    def test_checks_run_in_the_order_of_bs_inputs(self):
        # with two faults at once, the first check of BsInputs names the fault:
        # finiteness, then the discount factor, then d1d2_call's interior
        nan_table = VolFunction.tabulated((-1.0, 0.0, 1.0), (1e200, 2e200, 1e200))
        with pytest.raises(InputDomainError, match="^sigma = nan is not a finite number$"):
            price_first_order(ATM, build_model(r=-2000.0), nan_table)
        with pytest.raises(InputDomainError, match="^discount factor exp"):
            price_first_order(ATM, build_model(r=-2000.0, m=-800.0), EXP)

    @pytest.mark.parametrize(
        "record",
        [
            price_first_order(ATM, build_model(), EXP),
            effective_params(EXP, 0.2, build_model()),
            parabolic_coefficients(build_model()),
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_records_are_immutable(self, record):
        assert isinstance(record, (PriceBreakdown, EffectiveParams, ParabolicSlowFactor))
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)


class TestDateTerms:
    """With a cache, the terms that depend only on the model and the valuation
    date (z, the averaging and the modification factor) are computed once per
    (vol, model, t); each contract keeps its own checks in their order."""

    TABLE = VolFunction.tabulated((-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5), (0.12, 0.14, 0.17, 0.22, 0.28, 0.34, 0.40))

    @staticmethod
    def ladder(t):
        return [OptionSpec(100.0, strike, t, t + mat) for strike in (90.0, 100.0, 110.0) for mat in (0.25, 1.0)]

    @staticmethod
    def count(monkeypatch, module, name):
        calls = []
        orig = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("vol", [FLAT, EXP, TABLE], ids=lambda v: v.kind)
    def test_a_ladder_computes_its_date_once(self, monkeypatch, vol):
        model = build_model(rho_xy=-0.4)
        want = [price_first_order(spec, model, vol) for spec in self.ladder(0.3)]
        factors = self.count(monkeypatch, pricer, "_pricing_factor")
        averages = self.count(monkeypatch, pricer, "effective_params")
        cache = AveragingCache()
        for _ in range(2):
            assert [price_first_order(spec, model, vol, cache=cache) for spec in self.ladder(0.3)] == want
        assert len(factors) == 1 and len(averages) == 1
        # another date computes its terms once more; an equal model finds the stored date
        price_first_order(self.ladder(0.4)[0], model, vol, cache=cache)
        price_first_order(self.ladder(0.3)[0], build_model(rho_xy=-0.4), vol, cache=cache)
        assert len(factors) == 2 and len(averages) == 2
        # without a cache every contract computes its date
        for spec in self.ladder(0.3):
            price_first_order(spec, model, vol)
        assert len(factors) == 8 and len(averages) == 8

    def test_two_dates_of_a_table_average_its_moments_once(self, monkeypatch):
        from parabolic_sv import averaging

        moments = self.count(monkeypatch, averaging, "_tabulated_moments")
        model, cache = build_model(rho_xy=-0.4), AveragingCache()
        got = [price_first_order(spec, model, self.TABLE, cache=cache) for spec in self.ladder(0.3) + self.ladder(0.6)]
        assert len(moments) == 1
        assert got[0].z != got[6].z and got[0].sigma_bar == got[6].sigma_bar
        assert got == [price_first_order(spec, model, self.TABLE) for spec in self.ladder(0.3) + self.ladder(0.6)]

    @pytest.mark.parametrize("with_cache", [False, True], ids=["no_cache", "cache"])
    def test_a_refused_factor_keeps_its_place_in_the_check_order(self, with_cache):
        # r = -2000: the discount factor overflows at tau = 0.5, and so does
        # the modification factor e^((a - 2r) * 24.1); the discount is checked first
        cache = AveragingCache() if with_cache else None
        model = build_model(r=-2000.0)
        for _ in range(2):  # the second price finds the date's refusal stored
            with pytest.raises(InputDomainError, match="^discount factor exp"):
                price_first_order(ATM, model, EXP, cache=cache)
        # a contract whose own checks pass raises the factor's refusal, after
        # tf: at tau = 1e-3 the discount factor is e^2
        short = OptionSpec(100.0, 100.0, 0.0, 1e-3)
        with pytest.raises(NumericalOverflowError, match="^modification factor e\\^.* overflows"):
            price_first_order(short, model, EXP, cache=cache)

    def test_a_refused_averaging_stores_nothing(self, monkeypatch):
        # sigma_bar is NaN: the refusal repeats for every contract of the date
        nan_table = VolFunction.tabulated((-1.0, 0.0, 1.0), (1e200, 2e200, 1e200))
        averages = self.count(monkeypatch, pricer, "effective_params")
        cache = AveragingCache()
        for spec in self.ladder(0.0)[:3]:
            with pytest.raises(InputDomainError, match="^sigma = nan is not a finite number$"):
                price_first_order(spec, build_model(), nan_table, cache=cache)
        assert len(averages) == 3


class TestKernelRange:
    """Inputs whose terms leave the float range are refused with a typed
    error before the operation that would raise."""

    def test_overflowing_sigma_squared_is_refused(self):
        # y_constant's sigma_bar is z0 = 1e160 at t = 0, and the kernel's
        # sigma**2 raised an OverflowError
        spec = OptionSpec(100.0, 100.0, 0.0, 1.0)
        with pytest.raises(NumericalOverflowError) as exc:
            price_first_order(spec, build_model(z0=1e160), FLAT)
        assert str(exc.value) == "d1d2_call undefined at sigma = 1e+160, tau = 1 (sigma^2 overflows)"
        # the largest sigma whose square is finite still prices
        bd = price_first_order(spec, build_model(z0=1.3e154), FLAT)
        assert math.isfinite(bd.total)

    def test_underflowing_moneyness_is_refused(self):
        spec = OptionSpec(1e-30, 1e300, 0.0, 1.0)
        with pytest.raises(InputDomainError, match="^spot / strike = 1e-30 / 1e\\+300 underflows to 0"):
            price_first_order(spec, build_model(), EXP)

    @pytest.mark.parametrize(
        "keys, fragment",
        [(dict(nu=1e-170), "nu^2 underflows to 0"), (dict(nu=1e300, m=-800.0), "E[f^2] = -inf is negative")],
        ids=["nu_tiny", "nu_huge"],
    )
    def test_unrepresentable_table_moments_are_refused(self, keys, fragment):
        table = VolFunction.from_table_file(SAMPLE_TABLE)
        spec = OptionSpec(100.0, 100.0, 0.0, 1.0)
        for cache in (None, AveragingCache()):
            with pytest.raises(NumericalOverflowError) as exc:
                price_first_order(spec, build_model(**keys), table, cache=cache)
            assert fragment in str(exc.value)


class TestReductions:
    def test_payoff_at_maturity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.uniform(50.0, 150.0)
            strike = rng.uniform(50.0, 150.0)
            mat = rng.uniform(0.1, 2.0)
            spec = OptionSpec(spot=x, strike=strike, t=mat, maturity=mat)
            got = price_first_order(spec, build_model(), EXP)
            assert got.total == max(x - strike, 0.0)
            assert got.correction == 0.0

    def test_uncorrelated_fast_factor_drops_correction(self):
        got = price_first_order(ATM, build_model(rho_xy=0.0), EXP)
        assert got.v == 0.0
        assert got.correction == 0.0
        assert got.total == got.p0

    def test_flat_vol_function_drops_correction(self):
        got = price_first_order(ATM, build_model(), FLAT)
        assert got.v == 0.0
        assert got.sigma_bar == got.z
        assert got.total == got.p0


class TestScaling:
    def test_price_homogeneous_in_spot_and_strike(self):
        base = price_first_order(ATM, build_model(), EXP).total
        for c in (2.0, 10.0):
            spec = OptionSpec(spot=100.0 * c, strike=100.0 * c, t=0.0, maturity=0.5)
            assert price_first_order(spec, build_model(), EXP).total == pytest.approx(
                c * base, rel=1e-8
            )

    def test_correction_scales_as_square_root_of_epsilon(self):
        c1 = price_first_order(ATM, build_model(epsilon=0.01), EXP).correction
        c4 = price_first_order(ATM, build_model(epsilon=0.04), EXP).correction
        assert c4 == pytest.approx(2.0 * c1, rel=1e-12)

    def test_epsilon_ordering_of_totals(self):
        # correction sign fixed by (rho_xy, time_factor), so totals are
        # monotone along an epsilon sweep
        totals = [
            price_first_order(ATM, build_model(epsilon=e), EXP).total
            for e in (0.0025, 0.01, 0.04)
        ]
        sign = math.copysign(1.0, price_first_order(ATM, build_model(), EXP).correction)
        diffs = np.diff(totals) * sign
        assert np.all(diffs > 0.0)


class TestAssembly:
    def test_pricing_never_runs_the_grid_oracle(self, monkeypatch):
        def oracle(*args, **kwargs):
            raise AssertionError("solve_phi_derivative called while pricing")

        monkeypatch.setattr("parabolic_sv.arrays.solve_phi_derivative", oracle)
        table = VolFunction.tabulated((-1.0, 0.0, 1.0), (0.15, 0.22, 0.35))
        for vol in (EXP, table):
            got = price_first_order(ATM, build_model(nu=1.5, rho_xy=-0.5), vol)
            assert math.isfinite(got.total) and got.v != 0.0

    def test_cache_reuse_is_bit_identical(self):
        cache = AveragingCache()
        first = price_first_order(ATM, build_model(), EXP, cache=cache)
        second = price_first_order(ATM, build_model(), EXP, cache=cache)
        assert second == first


class TestHorizonGuards:
    def test_maturity_beyond_singular_time_rejected(self):
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=2.5)
        with pytest.raises(SingularTimeError):
            price_first_order(spec, build_model(k=1.0), EXP)


class TestFactorRange:
    # at t = 0 the factor is e^((a - 2r) * 24.1) at the default k = 0.008
    @pytest.mark.parametrize("r", [2000.0, 14.96], ids=["zero", "subnormal"])
    def test_underflowing_modification_factor_is_refused(self, r):
        # r = 2000 sends the factor to 0, which priced the call at 0 against a
        # discounted intrinsic value of 100; r = 14.96 leaves a subnormal ~e^-720
        model = build_model(r=r)
        assert modification_factor(0.0, model.a, r, model.k) < sys.float_info.min
        with pytest.raises(NumericalOverflowError, match="underflows"):
            price_first_order(ATM, model, EXP)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.25, maturity=0.5)
        eff = effective_params(EXP, 0.2, model)
        with pytest.raises(NumericalOverflowError, match="underflows"):
            p0_pde_residual(spec, model, eff)
        assert math.isfinite(p0_pde_residual(spec, model, eff, classical=True))

    @pytest.mark.parametrize(
        "k, a, message",
        [
            # (a - 2r) * factor_exponent is inf, and exp(inf) is inf without an error
            (1e-10, 1e300, "modification factor inf is not finite (a = 1e+300, r = 0.0264, k = 1e-10, t = 0)"),
            # log(q) / k and 1 / (k q) are both inf: the exponent is inf - inf = nan
            (1e-320, 0.05, "modification factor nan is not finite (a = 0.05, r = 0.0264, k = 9.99989e-321, t = 0)"),
        ],
        ids=["inf", "nan"],
    )
    def test_non_finite_modification_factor_is_refused(self, k, a, message):
        model = build_model(k=k, a=a)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=1.0)
        for cache in (None, AveragingCache()):
            with pytest.raises(NumericalOverflowError) as exc:
                price_first_order(spec, model, EXP, cache=cache)
            assert str(exc.value) == message

    def test_factor_just_above_the_underflow_prices(self):
        # a normal factor ~e^-703 still prices: the factor times the classical price
        model = build_model(r=14.6)
        bd = price_first_order(ATM, model, EXP)
        assert sys.float_info.min < bd.mod_factor < 1e-300
        assert bd.p0 == bd.mod_factor * bd.q0 > 0.0


class TestOperatorResidual:
    def make(self, t=0.25):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=t, maturity=0.5)
        z = 0.2  # arc value, flat to 7 digits at k = 0.008
        eff = effective_params(EXP, z, model)
        return spec, model, eff

    def test_forced_classical_operator_annihilates_p0(self):
        spec, model, eff = self.make()
        resid = p0_pde_residual(spec, model, eff, classical=True)
        assert abs(resid) <= 1e-4  # pure finite-difference error

    def test_modified_operator_residual_reported(self):
        # the assembled leading order does not annihilate the modified
        # operator; the residual is a diagnostic and is expected to be large
        spec, model, eff = self.make()
        resid = p0_pde_residual(spec, model, eff)
        assert math.isfinite(resid)
        assert abs(resid) > 1e-2

    def test_residual_continuous_in_valuation_date(self):
        spec_a, model, eff = self.make(0.25)
        spec_b = OptionSpec(spot=100.0, strike=100.0, t=0.2505, maturity=0.5)
        ra = p0_pde_residual(spec_a, model, eff)
        rb = p0_pde_residual(spec_b, model, eff)
        assert abs(ra - rb) <= 1e-2 * max(1.0, abs(ra))

    def test_boundary_dates_rejected(self):
        spec, model, eff = self.make()
        with pytest.raises(InputDomainError):
            p0_pde_residual(OptionSpec(100.0, 100.0, 0.0, 0.5), model, eff)
        with pytest.raises(InputDomainError):
            p0_pde_residual(OptionSpec(100.0, 100.0, 0.5, 0.5), model, eff)
