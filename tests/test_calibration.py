"""Chain IO, implied vol, and both fitting modes on synthetic chains."""
import logging
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from parabolic_sv import (
    BsInputs,
    ChainParseError,
    EmptyChainError,
    InputDomainError,
    InsufficientDataError,
    ModelParams,
    NoInteriorMinimumError,
    OptionQuote,
    PricingError,
    bs_call_price,
    calibrate_effective,
    d1d2_call,
    estimate_a,
    implied_vol,
    load_chain,
    modification_factor,
    p1_time_factor,
)
import parabolic_sv.calibration as calibration
from parabolic_sv.black_scholes import bs_call_and_d1d2
from parabolic_sv.calibration import A_EXCLUSION, BOUNDS, _ChainModel
from parabolic_sv.errors import LogDomainError, NumericalOverflowError, SingularTimeError
from parabolic_sv.pricer import factor_exponent


def model_mid(t, maturity, strike, spot, r, a, k, sigma, v_eff):
    inp = BsInputs(spot, strike, r, sigma, maturity - t)
    mod = modification_factor(t, a, r, k)
    return mod * (
        bs_call_price(inp) + v_eff * p1_time_factor(t, maturity, k) * d1d2_call(inp)
    )


def synth_quotes(
    a=0.05,
    k=0.008,
    r=0.0264,
    sigma=0.2,
    v_eff=0.0,
    spot=100.0,
    maturities=(0.25, 0.5, 1.0),
    strikes=(90.0, 100.0, 110.0),
    noise_rel=0.0,
    seed=0,
):
    rng = np.random.default_rng(seed)
    out = []
    for maturity in maturities:
        for strike in strikes:
            mid = model_mid(0.0, maturity, strike, spot, r, a, k, sigma, v_eff)
            if noise_rel:
                mid *= 1.0 + noise_rel * rng.standard_normal()
            out.append(
                OptionQuote(t=0.0, maturity=maturity, strike=strike, mid=mid, spot=spot, rate=r)
            )
    return out


class TestOptionQuote:
    def test_tau_and_intrinsic(self):
        q = OptionQuote(t=0.25, maturity=1.25, strike=90.0, mid=15.0, spot=100.0, rate=0.03)
        assert q.tau == 1.0
        assert q.intrinsic() == pytest.approx(100.0 - 90.0 * math.exp(-0.03), rel=1e-14)

    @pytest.mark.parametrize("rate", [-2000.0, -8e307])
    def test_intrinsic_is_zero_where_the_discounted_strike_overflows(self, rate):
        q = OptionQuote(t=0.0, maturity=0.5, strike=90.0, mid=10.0, spot=100.0, rate=rate)
        assert q.intrinsic() == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(t=0.5, maturity=0.5, strike=100.0, mid=1.0, spot=100.0, rate=0.0),
            dict(t=0.0, maturity=1.0, strike=-1.0, mid=1.0, spot=100.0, rate=0.0),
            dict(t=0.0, maturity=1.0, strike=100.0, mid=1.0, spot=0.0, rate=0.0),
            dict(t=0.0, maturity=1.0, strike=100.0, mid=math.nan, spot=100.0, rate=0.0),
        ],
    )
    def test_bad_quote_rejected(self, kw):
        with pytest.raises(InputDomainError):
            OptionQuote(**kw)


class TestLoadChain:
    HEADER = "t,T,K,mid,x,r\n"

    def test_happy_path(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(
            self.HEADER
            + "0.0,0.5,100.0,6.28,100.0,0.0264\n"
            + "\n"
            + "0.0,1.0,110.0,4.10,100.0,0.0264\n"
        )
        quotes = load_chain(path)
        assert len(quotes) == 2
        assert quotes[0].maturity == 0.5
        assert quotes[1].strike == 110.0

    def test_invalid_rows_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "chain.csv"
        path.write_text(
            self.HEADER
            + "0.0,0.5,100.0,6.28,100.0,0.0264\n"
            + "0.5,0.5,100.0,6.28,100.0,0.0264\n"  # T == t
            + "0.0,0.5,100.0,0.01,120.0,0.0264\n"  # mid below intrinsic
        )
        with caplog.at_level(logging.WARNING, logger="parabolic_sv.calibration"):
            quotes = load_chain(path)
        assert len(quotes) == 1
        assert sum("rejected" in rec.message for rec in caplog.records) == 2
        assert any("line 3" in rec.getMessage() for rec in caplog.records)

    def test_all_rows_rejected_raises_empty(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(self.HEADER + "0.5,0.5,100.0,6.28,100.0,0.0264\n")
        with pytest.raises(EmptyChainError):
            load_chain(path)

    def test_empty_file_raises_empty(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("")
        with pytest.raises(EmptyChainError):
            load_chain(path)

    def test_missing_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ChainParseError):
            load_chain(tmp_path / "absent.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("t,T,strike,mid,x,r\n0.0,0.5,100.0,6.28,100.0,0.0264\n")
        with pytest.raises(ChainParseError, match="header"):
            load_chain(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(self.HEADER + "0.0,0.5,100.0,6.28,100.0\n")
        with pytest.raises(ChainParseError, match="line 2"):
            load_chain(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(self.HEADER + "0.0,0.5,abc,6.28,100.0,0.0264\n")
        with pytest.raises(ChainParseError, match="line 2"):
            load_chain(path)


class TestImpliedVol:
    def test_round_trip(self):
        for sigma in (0.08, 0.23, 0.6):
            for strike in (85.0, 100.0, 115.0):
                p = bs_call_price(BsInputs(100.0, strike, 0.0264, sigma, 0.75))
                got = implied_vol(p, 100.0, strike, 0.0264, 0.75)
                assert got == pytest.approx(sigma, abs=1e-9)

    def test_out_of_range_prices_give_nan(self):
        assert math.isnan(implied_vol(101.0, 100.0, 100.0, 0.0, 0.5))  # above spot
        assert math.isnan(implied_vol(0.0, 100.0, 50.0, 0.0, 0.5))  # below intrinsic
        assert math.isnan(implied_vol(math.nan, 100.0, 100.0, 0.0, 0.5))

    def test_root_resolved_to_neighbouring_floats(self):
        # inside the bracket [1e-9, 5] the call value minus the price changes
        # sign between the returned vol and one of its neighbouring floats; a
        # price outside the call values at the bracket's ends has no root
        # there and gives NaN
        rng = np.random.default_rng(12)
        resolved = 0
        while resolved < 400:
            strike = float(rng.uniform(50.0, 150.0))
            rate = float(rng.uniform(-0.02, 0.1))
            tau = float(rng.uniform(0.01, 5.0))
            sigma = float(rng.uniform(0.01, 2.0))
            price = bs_call_price(BsInputs(100.0, strike, rate, sigma, tau))
            f = lambda s: bs_call_price(BsInputs(100.0, strike, rate, s, tau)) - price
            v = implied_vol(price, 100.0, strike, rate, tau)
            if not f(1e-9) <= 0.0 <= f(5.0):
                assert math.isnan(v)
                continue
            prev, nxt = math.nextafter(v, 0.0), math.nextafter(v, math.inf)
            assert f(prev) <= 0.0 <= f(v) or f(v) <= 0.0 <= f(nxt), (strike, rate, tau, sigma)
            resolved += 1


    def test_same_bits_as_bisecting_the_checked_call(self):
        # one check at the bracket's lower end, then the shared kernel: the
        # root is the one a checked bs_call_price per step gives
        def bisect_checked(price, spot, strike, rate, tau):
            f = lambda s: bs_call_price(BsInputs(spot, strike, rate, s, tau)) - price
            lo, hi = 1e-9, 5.0
            if not f(lo) <= 0.0 <= f(hi):
                return math.nan
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if f(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return hi

        rng = np.random.default_rng(29)
        resolved = 0
        for _ in range(150):
            args = (float(rng.uniform(0.0, 60.0)), float(rng.uniform(50.0, 150.0)), float(rng.uniform(20.0, 400.0)),
                    float(rng.uniform(-0.02, 0.1)), float(10.0 ** rng.uniform(-4.0, math.log10(5.0))))
            want, got = bisect_checked(*args), implied_vol(*args)
            assert got == want or (math.isnan(got) and math.isnan(want)), args
            resolved += not math.isnan(want)
        assert resolved >= 30
        # at tau = 0 the call value is the payoff at every volatility
        assert implied_vol(5.0, 100.0, 95.0, 0.0, 0.0) == bisect_checked(5.0, 100.0, 95.0, 0.0, 0.0)

    def test_bad_inputs_raise_before_the_bisection(self):
        with pytest.raises(InputDomainError, match="discount factor"):
            implied_vol(1.0, 100.0, 100.0, -2000.0, 0.5)
        with pytest.raises(InputDomainError, match="tau = -1 must be >= 0"):
            implied_vol(1.0, 100.0, 100.0, 0.0, -1.0)


class TestEstimateA:
    def test_zero_noise_recovery(self):
        quotes = synth_quotes(a=0.05)
        res = estimate_a(quotes, k=0.008, r=0.0264)
        # the pinned ATM implied vol absorbs part of the factor, leaving a
        # small systematic offset; the tolerance covers it
        assert abs(res.a_hat - 0.05) <= 5e-3
        assert res.n_quotes == 9
        assert res.sigma_bar_used > 0.0

    def test_one_percent_noise_recovery(self):
        for seed in (0, 1, 2):
            quotes = synth_quotes(a=0.05, noise_rel=0.01, seed=seed)
            res = estimate_a(quotes, k=0.008, r=0.0264)
            assert abs(res.a_hat - 0.05) <= 0.02, seed

    def test_objective_at_estimate_beats_truth_neighbourhood(self):
        quotes = synth_quotes(a=0.05)
        res = estimate_a(quotes, k=0.008, r=0.0264)

        def sse(a):
            sig = res.sigma_bar_used
            tot = 0.0
            for q in quotes:
                m = modification_factor(q.t, a, 0.0264, 0.008)
                q0 = bs_call_price(BsInputs(q.spot, q.strike, q.rate, sig, q.tau))
                tot += (q.mid - m * q0) ** 2
            return tot

        assert res.objective == pytest.approx(sse(res.a_hat), rel=1e-10)
        for probe in (res.a_hat - 0.01, res.a_hat + 0.01):
            assert sse(probe) >= res.objective

    def test_per_strike_diagnostic(self):
        quotes = synth_quotes(a=0.05)
        res = estimate_a(quotes, k=0.008, r=0.0264)
        assert [s for s, _ in res.per_strike] == [90.0, 100.0, 110.0]
        for _, a_k in res.per_strike:
            assert math.isfinite(a_k)

    def test_rate_taken_from_quotes_when_unique(self):
        quotes = synth_quotes(a=0.05)
        assert estimate_a(quotes, k=0.008).a_hat == estimate_a(quotes, k=0.008, r=0.0264).a_hat

    def test_k_defaults_to_the_model_default(self):
        quotes = synth_quotes(a=0.05)
        assert estimate_a(quotes).a_hat == estimate_a(quotes, k=ModelParams.k).a_hat

    @pytest.mark.parametrize(
        "k, r",
        [(0.0, 0.0264), (-0.01, 0.0264), (math.nan, 0.0264), (math.inf, 0.0264), (0.008, math.nan)],
        ids=["k_zero", "k_negative", "k_nan", "k_inf", "r_nan"],
    )
    def test_k_and_r_outside_their_domain_raise(self, k, r):
        with pytest.raises(PricingError) as info:
            estimate_a(synth_quotes(a=0.05), k=k, r=r)
        assert info.type is InputDomainError

    def test_rate_whose_double_overflows_raises(self):
        # r = 1e308 is finite but 2r is not; both fits build their model
        # through _ChainModel, which must refuse it before any arithmetic
        with pytest.raises(PricingError) as info:
            estimate_a(synth_quotes(a=0.05), r=1e308)
        assert info.type is InputDomainError
        quotes = synth_quotes(a=0.05)
        quotes.append(OptionQuote(t=0.0, maturity=2.0, strike=100.0, mid=100.0, spot=100.0, rate=1e308))
        with pytest.raises(PricingError) as info:
            calibrate_effective(quotes, n_restarts=0)
        assert info.type is InputDomainError

    def test_mixed_rates_need_explicit_rate(self):
        quotes = synth_quotes(a=0.05)
        shifted = OptionQuote(
            t=0.0, maturity=2.0, strike=100.0, mid=10.0, spot=100.0, rate=0.03
        )
        with pytest.raises(InputDomainError):
            estimate_a(quotes + [shifted], k=0.008)

    def test_insufficient_data(self):
        quotes = synth_quotes(a=0.05)
        with pytest.raises(InsufficientDataError):
            estimate_a(quotes[:1], k=0.008)
        single_maturity = synth_quotes(a=0.05, maturities=(0.5,))
        with pytest.raises(InsufficientDataError):
            estimate_a(single_maturity, k=0.008)

    @pytest.mark.parametrize("p", range(504, 508))
    def test_power_of_two_rescaling_is_exact(self, p):
        # spot, strikes and mids times 2^p, which takes the sums of squares
        # near the float range's end: every price scales exactly, so a and
        # sigma_bar keep their bits and the sum of squares scales by 2^2p
        quotes = synth_quotes(a=0.05)
        want = estimate_a(quotes, k=0.008)
        scale = 2.0**p
        got = estimate_a(
            [OptionQuote(q.t, q.maturity, q.strike * scale, q.mid * scale, q.spot * scale, q.rate) for q in quotes],
            k=0.008,
        )
        assert got.a_hat == want.a_hat
        assert got.sigma_bar_used == want.sigma_bar_used
        assert got.objective == want.objective * 2.0 ** (2 * p)
        assert [a for _, a in got.per_strike] == [a for _, a in want.per_strike]

    def test_pinned_to_bound_raises(self):
        # truth a = -0.8 sits below the box [-0.5, 0.5], so the fit slides onto
        # its lower edge and must refuse rather than report the edge as an optimum
        quotes = synth_quotes(a=-0.8, k=0.05)
        with pytest.raises(NoInteriorMinimumError, match="bound -0.5 "):
            estimate_a(quotes, k=0.05, r=0.0264)


class TestCalibrateEffective:
    TRUTH = dict(a=0.06, k=0.008, sigma=0.21, v_eff=0.003)

    def test_zero_noise_round_trip(self):
        quotes = synth_quotes(
            a=self.TRUTH["a"], k=self.TRUTH["k"], sigma=self.TRUTH["sigma"], v_eff=self.TRUTH["v_eff"]
        )
        res = calibrate_effective(quotes, seed=0)
        assert res.objective <= 1e-8
        assert abs(res.sigma_bar_hat - self.TRUTH["sigma"]) <= 1e-4
        assert abs(res.v_eff_hat - self.TRUTH["v_eff"]) <= 1e-4
        assert abs(res.a_hat - self.TRUTH["a"]) <= 1e-3
        assert abs(res.k_hat - self.TRUTH["k"]) <= 1e-3
        # price-space check: the fitted tuple reprices the chain
        for q in quotes:
            fit = model_mid(q.t, q.maturity, q.strike, q.spot, q.rate,
                            res.a_hat, res.k_hat, res.sigma_bar_hat, res.v_eff_hat)
            assert abs(fit - q.mid) <= 1e-6

    def test_zero_correction_chain_recovers_zero(self):
        quotes = synth_quotes(a=0.06, k=0.008, sigma=0.21, v_eff=0.0)
        res = calibrate_effective(quotes, seed=0)
        assert res.objective <= 1e-8
        assert abs(res.v_eff_hat) <= 1e-3

    def test_deterministic_for_fixed_seed(self):
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        assert calibrate_effective(quotes, seed=7) == calibrate_effective(quotes, seed=7)

    def test_restart_bookkeeping(self):
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        res = calibrate_effective(quotes, seed=0, n_restarts=3)
        # one data-driven start: with a solved exactly, the two starts either
        # side of the band around 2r are the same (k, sigma_bar) point.  It
        # fits the exact chain to rounding, so no seeded start runs
        assert len(res.restart_objectives) == 1
        assert res.objective == min(res.restart_objectives) <= TestRestarts.floor(quotes)
        assert res.iterations > 0

    def test_two_valuation_dates_round_trip(self):
        # over several dates a is solved inside the (k, sigma_bar) search as
        # at one, from the one data-driven start
        quotes = two_date_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        res = calibrate_effective(quotes, seed=0)
        assert res.objective <= 1e-8
        assert abs(res.sigma_bar_hat - 0.21) <= 1e-4
        assert abs(res.v_eff_hat - 0.003) <= 1e-4
        assert abs(res.a_hat - 0.06) <= 1e-3
        # the data-driven start fits to rounding, and the search stops there
        assert len(res.restart_objectives) == 1
        assert res.objective <= TestRestarts.floor(quotes)

    def test_insufficient_data(self):
        quotes = synth_quotes(a=0.06)
        with pytest.raises(InsufficientDataError):
            calibrate_effective(quotes[:3])
        with pytest.raises(InsufficientDataError):
            calibrate_effective(synth_quotes(maturities=(0.5,)))
        with pytest.raises(InsufficientDataError):
            calibrate_effective(synth_quotes(strikes=(100.0,)))


def loop_objective(quotes, theta, lo, hi, v_box):
    """The profiled RMSE objective, one quote at a time from the scalar functions."""
    a, k, sig = theta
    if np.any(theta < lo) or np.any(theta > hi):
        return 1e6 * (1.0 + float(np.sum(np.maximum(lo - theta, 0) + np.maximum(theta - hi, 0))))
    penalty = 0.0
    for q in quotes:
        gap = abs(a - 2.0 * q.rate)
        if gap < A_EXCLUSION:
            penalty += 1e3 * (A_EXCLUSION - gap) / A_EXCLUSION
    base, slope = [], []
    try:
        for q in quotes:
            inp = BsInputs(q.spot, q.strike, q.rate, sig, q.tau)
            mod = modification_factor(q.t, a, q.rate, k)
            base.append(mod * bs_call_price(inp))
            slope.append(mod * p1_time_factor(q.t, q.maturity, k) * d1d2_call(inp))
    except (SingularTimeError, LogDomainError, InputDomainError, NumericalOverflowError):
        return 1e9
    mids = np.array([q.mid for q in quotes])
    base, slope = np.array(base), np.array(slope)
    ss = float(slope @ slope)
    v = float(slope @ (mids - base)) / ss if ss > 1e-300 else 0.0
    v = min(max(v, v_box[0]), v_box[1])
    resid = mids - base - v * slope
    return float(np.sqrt(np.mean(resid**2))) + penalty


def box(**over):
    bounds = {**BOUNDS, **over}
    names = ("a", "k", "sigma_bar")
    return (np.array([bounds[n][0] for n in names]), np.array([bounds[n][1] for n in names]),
            bounds["v_eff"])


def quotes_at(t, maturities, rate=0.0264, strikes=(90.0, 100.0, 110.0)):
    return [
        OptionQuote(t=t, maturity=mat, strike=strike, mid=12.0 - 0.1 * strike + 2.0 * mat,
                    spot=100.0, rate=rate)
        for mat in maturities for strike in strikes
    ]


class TestVectorObjective:
    """The chain model's one evaluation, :meth:`_ChainModel.fit`: its kernel,
    the fit it reports and its infeasible points against a per-quote loop."""

    CHAINS = {
        "single_date": synth_quotes(a=0.06, sigma=0.21, v_eff=0.003),
        # two valuation dates and two rates: factors per (t, T, r), penalty per rate
        "mixed": synth_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        + quotes_at(0.4, (0.9, 1.6), rate=0.03),
    }
    THETAS = (
        (0.06, 0.008, 0.21),
        (0.03, 0.2, 0.5),
        (-0.3, 0.9, 0.05),
        (0.4, 1e-3, 1.9),
        (2 * 0.0264 + 5e-5, 0.05, 0.2),  # inside the excluded band around 2r
        (2 * 0.03 - 2e-5, 0.05, 0.2),
        (-0.27, 1.4e-4, 0.2),  # the factor is ~e^-444: finite in log space
        (0.7, 0.5, 0.2),  # outside the box
        (0.1, 0.5, 0.001),
    )

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_fit_is_the_reported_fit(self, chain):
        # a_hat, v_eff_hat and the objective come from one evaluation at the
        # fitted (k, sigma_bar), bit for bit
        quotes = self.CHAINS[chain]
        res = calibrate_effective(quotes, seed=0)
        a, v, sse = _ChainModel(quotes, *box()).fit(res.k_hat, res.sigma_bar_hat)
        assert (a, v) == (res.a_hat, res.v_eff_hat)
        assert math.sqrt(sse / len(quotes)) == res.objective

    def test_kernel_is_the_scalar_formula(self, monkeypatch):
        # mixed spots, strikes, rates and maturities in one chain: fit's pass
        # takes each quote's call and D1D2 once, the bits of the one-contract
        # formula
        quotes = [
            OptionQuote(t, t + tau, strike, 5.0, spot, rate)
            for t, tau, spot, strike, rate in (
                (0.0, 0.1, 80.0, 100.0, 0.0),
                (0.0, 1.0, 100.0, 90.0, 0.0264),
                (0.4, 3.0, 125.0, 140.0, 0.05),
                (0.4, 0.5, 100.0, 20.0, -0.01),
            )
        ]
        seen = []
        real = calibration.call_and_d1d2_at

        def recording(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(calibration, "call_and_d1d2_at", recording)
        for sig in (0.01, 0.3, 2.0):
            seen.clear()
            _ChainModel(quotes, *box()).fit(0.01, sig)
            assert seen == [bs_call_and_d1d2(q.spot, q.strike, q.rate, sig, q.tau) for q in quotes], sig

    @pytest.mark.parametrize(
        "quotes, theta, why",
        [
            (quotes_at(2.5, (3.0, 3.5)), (0.06, 0.8, 0.2), "k t = 2"),
            (quotes_at(2.5 - 1e-13, (3.0, 3.5)), (0.06, 0.8, 0.2), "k t within the floor of 2"),
            (quotes_at(1.5, (2.2, 2.5)), (0.06, 1.0, 0.2), "t and T straddle 2/k"),
        ],
        ids=lambda x: x if isinstance(x, str) else "",
    )
    def test_infeasible_points_score_1e9(self, quotes, theta, why):
        # the model refuses each (k, sigma_bar) point where the loop scores
        # every a 1e9, which TestLevelObjective scores
        lo, hi, v_box = box()
        assert loop_objective(quotes, np.array(theta), lo, hi, v_box) == 1e9, why
        with pytest.raises(calibration._INFEASIBLE):
            _ChainModel(quotes, lo, hi, v_box).fit(*theta[1:])

    @pytest.mark.parametrize("k", [1.22e-4, 1.4e-4, 2.4e-4])
    def test_finite_factor_whose_misfit_overflows_scores_1e9(self, k):
        # at a = 0.5 these factors are e^708 to e^360: finite, but mod * call
        # or the misfit's sums of squares are past the float range.  The
        # a-solve keeps to the levels whose misfit is finite.
        quotes = [
            OptionQuote(t, t + tau, strike, 5.0, 100.0, 0.0264)
            for t in (0.0, 0.4) for tau in (0.5, 1.0) for strike in (90.0, 100.0, 110.0)
        ]
        (value,) = TestLevelObjective.check(quotes, [(k, 0.2)], *box())
        assert math.isfinite(value) and value < 1e6

    def test_zero_sigma_scores_1e9_in_a_widened_box(self):
        # sigma_bar = 0 is outside the kernel's domain, as it is outside d1d2_call's
        quotes = self.CHAINS["single_date"]
        lo, hi, v_box = box(sigma_bar=(0.0, 2.0))
        assert loop_objective(quotes, np.array([0.06, 0.008, 0.0]), lo, hi, v_box) == 1e9
        assert _ChainModel(quotes, lo, hi, v_box).level_objective((0.008, 0.0)) == 1e9


SAMPLE_CHAIN = Path(__file__).resolve().parents[1] / "configs" / "chain_sample.csv"


def a_grid(quotes, lo, hi):
    """A dense a-grid over the box on both sides of every excluded band, with the band edges."""
    two_rs = {2.0 * q.rate for q in quotes}
    edges = [e for two_r in two_rs for e in (two_r - A_EXCLUSION, two_r + A_EXCLUSION)]
    grid = np.concatenate([np.linspace(lo, hi, 2001), edges])
    return [a for a in grid if lo <= a <= hi and all(abs(a - tr) >= A_EXCLUSION for tr in two_rs)]


class TestInnerSolve:
    """The exact a (and profiled v_eff) at fixed (k, sigma_bar) against a dense a-grid of the objective."""

    POINTS = ((0.008, 0.21), (0.05, 0.2), (0.2, 0.5), (1e-3, 1.9), (0.9, 0.05))
    CHAINS = {
        "one_rate": TestVectorObjective.CHAINS["single_date"],
        # factors that differ by rate ratios at one date
        "two_rates": TestVectorObjective.CHAINS["single_date"]
        + quotes_at(0.0, (0.9, 1.6), rate=0.03),
        # two valuation dates, each with its own rate: a is a root of the
        # misfit's derivative, not a closed form
        "two_dates": TestVectorObjective.CHAINS["mixed"],
    }

    @staticmethod
    def check(quotes, k, sig, lo, hi, v_box):
        model = _ChainModel(quotes, lo, hi, v_box)

        def objective(theta):
            return loop_objective(quotes, np.asarray(theta), lo, hi, v_box)

        a = model.fit(k, sig)[0]
        assert lo[0] <= a <= hi[0]
        assert all(abs(a - 2.0 * q.rate) >= A_EXCLUSION for q in quotes)
        value = objective(np.array([a, k, sig]))
        # the grid and the solved a's close neighbours, which a penalty raises
        # where they leave the box or enter a band
        grid = a_grid(quotes, lo[0], hi[0]) + [a - 1e-7, a + 1e-7]
        # at an exact fit both sides are rounding noise of the mids
        noise = 4.0 * math.ulp(max(abs(q.mid) for q in quotes))
        with np.errstate(over="ignore", invalid="ignore"):  # grid points past the float range
            grid_min = min(objective(np.array([x, k, sig])) for x in grid)
        assert value <= grid_min + noise
        return a, value

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_chains_match_the_grid(self, chain):
        quotes = self.CHAINS[chain]
        for k, sig in self.POINTS:
            _, value = self.check(quotes, k, sig, *box())
            assert math.isfinite(value) and value < 1e6, (k, sig)

    def test_best_a_outside_the_box(self):
        # the chain's own a = 0.06 lies below the box, so the fit sits on its edge
        a, _ = self.check(TestVectorObjective.CHAINS["single_date"], 0.008, 0.21, *box(a=(0.1, 0.5)))
        assert a == 0.1

    def test_v_eff_past_its_box(self):
        quotes = TestVectorObjective.CHAINS["single_date"]  # v_eff = 0.003
        lo, hi, v_box = box(v_eff=(-1e-3, 1e-3))
        self.check(quotes, 0.008, 0.21, lo, hi, v_box)
        assert _ChainModel(quotes, lo, hi, v_box).fit(0.008, 0.21)[1] == 1e-3

    @pytest.mark.parametrize("r, offset", [(0.0264, 4e-5), (0.0045, 4e-5), (0.0045, -4e-5)])
    def test_unconstrained_optimum_inside_the_band(self, r, offset):
        # at r = 0.0045, 2r -/+ 1e-4 round to floats less than 1e-4 from 2r
        quotes = synth_quotes(a=2 * r + offset, r=r, sigma=0.21, v_eff=0.003)
        a, _ = self.check(quotes, 0.008, 0.21, *box())
        assert abs(a - 2 * r) == pytest.approx(A_EXCLUSION, rel=1e-9)

    def test_factor_bounds_overflow_at_tiny_k(self):
        # at k = 1e-6 the a-box maps to factors from e^-1e5 to e^8.6e4
        for chain in self.CHAINS.values():
            self.check(chain, 1e-6, 0.21, *box())

    @pytest.mark.parametrize("v_box", [(-5.0, 5.0), (-1e-3, 1e-3)])
    def test_negative_exponent(self, v_box):
        # k t = 1.75: the factor falls as a rises
        assert factor_exponent(2.5, 0.7) < 0.0
        quotes = [
            OptionQuote(t=2.5, maturity=mat, strike=strike, spot=100.0, rate=0.0264,
                        mid=model_mid(2.5, mat, strike, 100.0, 0.0264, 0.06, 0.7, 0.2, 0.003))
            for mat in (2.55, 2.6) for strike in (90.0, 100.0, 110.0)
        ]
        for theta in ((0.7, 0.2), (0.6, 0.3)):
            self.check(quotes, *theta, *box(v_eff=v_box))

    def test_sample_chain_fit(self):
        # the three-parameter simplex over (a, k, sigma_bar) reached
        # 1.482837243299216e-11 on this chain
        res = calibrate_effective(load_chain(SAMPLE_CHAIN), seed=0)
        assert res.objective <= 1.482837243299216e-11 + 1e-12
        assert round(res.a_hat, 7) == 0.0555002

    @pytest.mark.parametrize("chain", ["single_date", "mixed"])
    def test_fit_calls_the_module_optimiser(self, monkeypatch, chain):
        # the benchmark traces the optimiser and its objective through this
        # attribute; a is solved inside the (k, sigma_bar) search at any
        # number of valuation dates
        seen = []
        real = calibration.minimize

        def counting(fun, x0, *args, **kwargs):
            seen.append(len(x0))
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(calibration, "minimize", counting)
        calibrate_effective(TestVectorObjective.CHAINS[chain], n_restarts=0)
        assert seen and set(seen) == {2}

    @pytest.mark.parametrize("chain", ["sample", "mixed"])
    def test_fit_is_the_one_scipy_would_make(self, monkeypatch, chain):
        # the whole fit, restarts included, with the module optimiser swapped
        # for scipy's adaptive Nelder-Mead, of which it is a port
        quotes = load_chain(SAMPLE_CHAIN) if chain == "sample" else TestVectorObjective.CHAINS[chain]
        got = calibrate_effective(quotes, n_restarts=1)

        def scipy_minimize(fun, x0, **options):
            options = dict(options, adaptive=True)
            return scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options=options)

        monkeypatch.setattr(calibration, "minimize", scipy_minimize)
        assert calibrate_effective(quotes, n_restarts=1) == got


class TestLevelObjective:
    """The objective of calibrate_effective, which takes the misfit from the
    level fit's vectors, against the per-quote loop at the solved a."""

    # the (k, sigma_bar) of both classes' points that lie inside the box
    POINTS = tuple(dict.fromkeys(
        [theta[1:] for theta in TestVectorObjective.THETAS if theta[2] >= BOUNDS["sigma_bar"][0]]
        + list(TestInnerSolve.POINTS)
    ))

    @staticmethod
    def check(quotes, points, lo, hi, v_box):
        model = _ChainModel(quotes, lo, hi, v_box)
        # at an exact fit both sides are rounding noise of the mids
        noise = 4.0 * math.ulp(max(abs(q.mid) for q in quotes))
        values = []
        for k, sig in points:
            try:
                want = loop_objective(quotes, np.array((model.fit(k, sig)[0], k, sig)), lo, hi, v_box)
            except calibration._INFEASIBLE:
                want = 1e9
            got = model.level_objective((k, sig))
            assert got == pytest.approx(want, rel=1e-12, abs=noise), (k, sig)
            values.append(got)
        return values

    @pytest.mark.parametrize("chain", sorted(TestInnerSolve.CHAINS))
    def test_matches_the_objective_at_the_solved_a(self, chain):
        values = self.check(TestInnerSolve.CHAINS[chain], self.POINTS, *box())
        assert all(math.isfinite(v) and v < 1e6 for v in values)

    def test_exact_fit(self):
        # (k, sigma_bar) of the chain itself: both are rounding noise
        quotes = TestVectorObjective.CHAINS["single_date"]
        (value,) = self.check(quotes, [(0.008, 0.21)], *box())
        assert value <= 4.0 * math.ulp(max(q.mid for q in quotes))

    def test_v_eff_on_its_box_edge(self):
        quotes = TestVectorObjective.CHAINS["single_date"]  # v_eff = 0.003
        lo, hi, v_box = box(v_eff=(-1e-3, 1e-3))
        self.check(quotes, self.POINTS, lo, hi, v_box)
        model = _ChainModel(quotes, lo, hi, v_box)
        assert model.fit(0.008, 0.21)[1] == 1e-3

    def test_outside_the_box(self):
        points = [(1.5, 0.2), (0.05, 2.5), (-0.1, 0.2), (0.5, 0.001)]
        for value in self.check(TestVectorObjective.CHAINS["single_date"], points, *box()):
            assert value >= 1e6

    @pytest.mark.parametrize(
        "quotes, point",
        [
            (quotes_at(2.5, (3.0, 3.5)), (0.8, 0.2)),  # k t = 2
            (quotes_at(2.5 - 1e-13, (3.0, 3.5)), (0.8, 0.2)),  # k t within the floor of 2
            (quotes_at(1.5, (2.2, 2.5)), (1.0, 0.2)),  # t and T straddle 2/k
        ],
        ids=["singular", "within_the_floor", "straddles_2_over_k"],
    )
    def test_infeasible_points_score_1e9(self, quotes, point):
        assert self.check(quotes, [point], *box()) == [1e9]


class TestRestarts:
    """Each start runs one descent, and no start runs once a fit has reached
    the rounding floor."""

    @staticmethod
    def fit_counting(monkeypatch, quotes, n_restarts):
        """The fit, the objective of each descent, and the evaluations each descent made."""
        descents = []
        real = calibration.minimize

        def counting(fun, x0, *args, **kwargs):
            calls = [0]

            def counted(x):
                calls[0] += 1
                return fun(x)

            res = real(counted, x0, *args, **kwargs)
            descents.append((res.fun, calls[0]))
            return res

        monkeypatch.setattr(calibration, "minimize", counting)
        return calibrate_effective(quotes, seed=0, n_restarts=n_restarts), descents

    @staticmethod
    def floor(quotes):
        return calibration.ROUNDING_FLOOR * max(
            max(q.spot, q.strike * math.exp(-q.rate * q.tau)) for q in quotes
        )

    def test_exact_chain_descends_once_per_start(self, monkeypatch):
        # the data-driven start reaches the floor in one descent; the three
        # seeded starts are neither drawn nor descended
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        res, descents = self.fit_counting(monkeypatch, quotes, 3)
        assert len(descents) == len(res.restart_objectives) == 1
        assert max(res.restart_objectives) <= self.floor(quotes)

    def test_search_stops_at_the_first_start_on_the_floor(self, monkeypatch):
        # from sigma_bar at the box's lower edge the data-driven start stalls
        # far above the floor; the first seeded start reaches it, and the
        # search ends there, as if that start had been the last one drawn
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        monkeypatch.setattr(calibration, "_atm_sigma", lambda quotes: BOUNDS["sigma_bar"][0])
        res, descents = self.fit_counting(monkeypatch, quotes, 3)
        floor = self.floor(quotes)
        assert len(res.restart_objectives) == 2
        assert res.restart_objectives[0] > floor >= res.restart_objectives[1]
        assert res.objective == res.restart_objectives[-1]
        assert descents[-1][0] == res.objective
        assert res == calibrate_effective(quotes, seed=0, n_restarts=1)

    def test_noisy_chain_restarts(self, monkeypatch):
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=1)
        res, descents = self.fit_counting(monkeypatch, quotes, 3)
        assert len(descents) == len(res.restart_objectives) == 1 + 3
        assert res.objective > self.floor(quotes)

    @pytest.mark.parametrize("chain", ["single_date", "mixed"])
    def test_evaluations_count_every_objective_call(self, monkeypatch, chain):
        # the descents' own evaluations, each start's first vertex included
        res, descents = self.fit_counting(monkeypatch, TestVectorObjective.CHAINS[chain], 1)
        assert res.evaluations == sum(calls for _, calls in descents)

    def test_best_fit_outside_the_box_is_refused(self):
        # at spot 1e10 every point inside the box scores above the out-of-box
        # score 1e6, so the simplex ends below the k box: a refusal, not a fit
        quotes = [
            OptionQuote(q.t, q.maturity, q.strike * 1e8, q.mid * 1e8, q.spot * 1e8, q.rate)
            for q in synth_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=1)
        ]
        with pytest.raises(NoInteriorMinimumError, match=r"best fit \(k = 9\.99.*e-07, .* outside the search box"):
            calibrate_effective(quotes, seed=0)


class TestSeededStarts:
    """The seeded starts draw numpy's default_rng(seed).random() stream from
    plain integers, three draws per start, and only for starts that run."""

    @pytest.mark.parametrize(
        "seeds", [range(1000), [True, 2**32 - 1, 2**64 - 1, 2**100 + 17]], ids=["small", "wide"]
    )
    def test_draws_match_numpy(self, seeds):
        for seed in seeds:
            draws = calibration._uniforms(seed)
            got = [next(draws) for _ in range(3 * 10)]
            assert got == np.random.default_rng(seed).random(3 * 10).tolist(), seed

    @staticmethod
    def counting_draws(monkeypatch):
        drawn = []
        real = calibration._uniforms

        def counting(seed):
            for u in real(seed):
                drawn.append(u)
                yield u

        monkeypatch.setattr(calibration, "_uniforms", counting)
        return drawn

    def test_exact_chain_draws_nothing(self, monkeypatch):
        # the data-driven start reaches the floor, so however many restarts
        # are allowed, none is drawn
        drawn = self.counting_draws(monkeypatch)
        res = calibrate_effective(synth_quotes(a=0.06, sigma=0.21, v_eff=0.003), n_restarts=10**6)
        assert drawn == [] and len(res.restart_objectives) == 1

    def test_a_start_draws_when_it_runs(self, monkeypatch):
        # the data-driven start stalls above the floor, the first seeded start
        # reaches it: three draws, the head of the seed's stream
        drawn = self.counting_draws(monkeypatch)
        monkeypatch.setattr(calibration, "_atm_sigma", lambda quotes: BOUNDS["sigma_bar"][0])
        res = calibrate_effective(synth_quotes(a=0.06, sigma=0.21, v_eff=0.003), seed=5, n_restarts=3)
        assert len(res.restart_objectives) == 2
        assert drawn == np.random.default_rng(5).random(3).tolist()

    def test_noisy_chain_draws_every_start(self, monkeypatch):
        drawn = self.counting_draws(monkeypatch)
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=1)
        res = calibrate_effective(quotes, seed=3, n_restarts=3)
        assert len(res.restart_objectives) == 1 + 3
        assert drawn == np.random.default_rng(3).random(3 * 3).tolist()

    def test_fit_runs_with_numpy_blocked(self, monkeypatch):
        quotes = synth_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=1)
        want = calibrate_effective(quotes, seed=7, n_restarts=2)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert calibrate_effective(quotes, seed=7, n_restarts=2) == want


def two_date_quotes(a=0.05, k=0.008, r=0.0264, sigma=0.2, v_eff=0.0, noise_rel=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for t, maturities in ((0.0, (0.25, 0.5, 1.0)), (0.4, (0.9, 1.6))):
        for maturity in maturities:
            for strike in (90.0, 100.0, 110.0):
                mid = model_mid(t, maturity, strike, 100.0, r, a, k, sigma, v_eff)
                if noise_rel:
                    mid *= 1.0 + noise_rel * rng.standard_normal()
                out.append(OptionQuote(t=t, maturity=maturity, strike=strike, mid=mid, spot=100.0, rate=r))
    return out


def factor_quotes(t, maturities, a=0.05, k=0.008, rates=(0.0264,), sigma=0.2):
    """A v_eff = 0 chain, ``modification_factor * Q0`` at each quote's rate, built
    without a time factor; the rates take turns over the strikes."""
    strikes = (90.0, 100.0, 110.0)
    return [
        OptionQuote(t=t, maturity=mat, strike=strike, spot=100.0, rate=r,
                    mid=modification_factor(t, a, r, k)
                    * bs_call_price(BsInputs(100.0, strike, r, sigma, mat - t)))
        for mat in maturities
        for strike, r in zip(strikes, rates * len(strikes))
    ]


def a_fit_sse(quotes, a, k, sig):
    """The sum of squares of estimate_a's model at ``a``, quote by quote; +inf
    past the float range."""
    try:
        return sum(
            (q.mid - modification_factor(q.t, a, 0.0264, k)
             * bs_call_price(BsInputs(q.spot, q.strike, q.rate, sig, q.tau))) ** 2
            for q in quotes
        )
    except (NumericalOverflowError, OverflowError):
        return math.inf


class TestEstimateAGrid:
    """estimate_a, in closed form at one date and by a root of the misfit's
    derivative at two, against a dense a-grid."""

    @pytest.mark.parametrize(
        "quotes, k",
        [
            (synth_quotes(a=0.05, noise_rel=0.01), 0.008),
            (two_date_quotes(), 0.008),
            # Q0 at each quote's rate, the factor at the explicit r = 0.0264
            (factor_quotes(0.0, (0.25, 0.5, 1.0), rates=(0.0264, 0.03)), 0.008),
            # 2/k = 6.67 lies between t and the maturity 9: no time factor
            # exists there, and with v_eff pinned at 0 none is needed
            (factor_quotes(1.5, (2.0, 5.0, 9.0), a=0.06, k=0.3), 0.3),
        ],
        ids=["one_date", "two_dates", "one_date_two_rates", "straddles_2_over_k"],
    )
    def test_minimum_over_the_grid(self, quotes, k):
        res = estimate_a(quotes, k=k, r=0.0264)

        def sse(a):
            return a_fit_sse(quotes, a, k, res.sigma_bar_used)

        assert res.objective == pytest.approx(sse(res.a_hat), rel=1e-10)
        grid = a_grid(quotes, -0.5, 0.5) + [res.a_hat - 1e-7, res.a_hat + 1e-7]
        assert res.objective <= min(sse(a) for a in grid)

    @pytest.mark.parametrize("k", [1e-4, 1.3e-4])
    def test_misfit_past_the_float_range_reads_inf(self, k):
        # at a = 0.5 the factor overflows (k = 1e-4), or the squared misfit
        # does though the factor is finite (k = 1.3e-4): the a-solve keeps to
        # the levels whose misfit is finite, as the one-date closed form does,
        # with no numpy warning (an error in this suite).  The fit stops on
        # the band edge.
        quotes = two_date_quotes()
        res = estimate_a(quotes, k=k, r=0.0264)
        assert res.a_hat == 2 * 0.0264 - A_EXCLUSION
        assert res.objective == pytest.approx(a_fit_sse(quotes, res.a_hat, k, res.sigma_bar_used), rel=1e-10)
        assert res.objective <= min(a_fit_sse(quotes, a, k, res.sigma_bar_used) for a in a_grid(quotes, -0.5, 0.5))

    @pytest.mark.parametrize("k", [0.8, 0.8 + 1e-14])
    def test_singular_valuation_date_raises(self, k):
        # k t = 2 at t = 2.5: the modification factor has no value, so the fit
        # must say so rather than score the point infeasible and slide to a bound
        quotes = factor_quotes(2.5, (2.55, 2.6), a=0.06, k=0.7)
        with pytest.raises(SingularTimeError):
            estimate_a(quotes, k=k)


def exact_two_date_draws(n):
    """The first ``n`` exact two-date chains of a seeded draw of ``(a, k,
    sigma_bar, v_eff)``: valuation dates 0 and 0.2, ``tau`` 0.25/1/2 after
    each, strikes 90/100/110; draws with a mid below the intrinsic bound are
    left out, as load_chain would reject them."""
    rng = np.random.default_rng(20261019)
    chains = []
    while len(chains) < n:
        a, k, sigma, v_eff = rng.uniform((0.054, 0.005, 0.15, -0.01), (0.075, 0.03, 0.3, 0.01)).tolist()
        quotes = [
            OptionQuote(t, t + tau, strike, model_mid(t, t + tau, strike, 100.0, 0.0264, a, k, sigma, v_eff),
                        100.0, 0.0264)
            for t in (0.0, 0.2) for tau in (0.25, 1.0, 2.0) for strike in (90.0, 100.0, 110.0)
        ]
        if all(q.mid > q.intrinsic() - calibration.INTRINSIC_TOL for q in quotes):
            chains.append(quotes)
    return chains


class TestSeveralDates:
    """calibrate_effective over two valuation dates against the objectives the
    three-parameter (a, k, sigma_bar) simplex reached at seed 0."""

    EXACT = exact_two_date_draws(6)
    EXACT_OBJECTIVES = (
        2.2999934130550275e-14,
        1.647242783431814e-14,
        1.6966818514276275e-14,
        1.797178663681103e-14,
        1.1735267311344684e-14,
        1.7820147538215135e-14,
    )
    # two_date_quotes(a=0.06, sigma=0.21, v_eff=0.003) with 1% noise, by seed;
    # and the mixed chain
    NOISY_OBJECTIVES = {1: 0.06676781634680254, 2: 0.09949294558405425, 3: 0.18513301427269196}
    MIXED_OBJECTIVE = 0.7597782122091545

    @pytest.mark.parametrize("i", range(len(EXACT)))
    def test_exact_chain(self, i):
        # no worse than the old fit by more than the rounding floor
        quotes = self.EXACT[i]
        res = calibrate_effective(quotes, seed=0)
        assert res.objective <= self.EXACT_OBJECTIVES[i] + TestRestarts.floor(quotes)

    @pytest.mark.parametrize("seed", sorted(NOISY_OBJECTIVES))
    def test_noisy_chain(self, seed):
        quotes = two_date_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=seed)
        res = calibrate_effective(quotes, seed=0)
        assert res.objective <= self.NOISY_OBJECTIVES[seed] * (1.0 + 1e-9)

    def test_mixed_chain(self):
        res = calibrate_effective(TestVectorObjective.CHAINS["mixed"], seed=0)
        assert res.objective <= self.MIXED_OBJECTIVE * (1.0 + 1e-9)

    def test_k_box_ends_before_the_singular_time(self):
        # T_max = 2.2, so BOUNDS["k"] reaches past 2 / T_max, where every
        # point is infeasible, and seed 6 draws a start at 0.987 of the k box:
        # the search box must end at (2 - 2 SINGULAR_FLOOR) / T_max.  The
        # exact chain stops after the data-driven start, so the seeded starts
        # run on the same chain with 1% noise, which no fit takes to the floor
        quotes = self.EXACT[0]
        res = calibrate_effective(quotes, seed=6)
        assert res.objective <= TestRestarts.floor(quotes)
        rng = np.random.default_rng(1)
        noisy = [OptionQuote(q.t, q.maturity, q.strike, q.mid * (1.0 + 0.01 * rng.standard_normal()),
                             q.spot, q.rate) for q in quotes]
        res = calibrate_effective(noisy, seed=6)
        assert len(res.restart_objectives) == 1 + 3
        assert max(res.restart_objectives) < 1e6


def benchmark_chains(n):
    """The chains of the benchmark's ``effective_chain(random.Random(1000 + i))``
    for ``i < n``, priced by the package's own quote model: exact, 18 quotes
    at spot 100 and t = 0."""
    chains = []
    for i in range(n):
        rng = random.Random(1000 + i)
        a, k = rng.uniform(0.054, 0.075), rng.uniform(0.005, 0.03)
        v_eff, sigma = rng.uniform(-0.004, -0.0005), rng.uniform(0.15, 0.3)
        chains.append([
            OptionQuote(0.0, mat, strike, model_mid(0.0, mat, strike, 100.0, 0.0264, a, k, sigma, v_eff),
                        100.0, 0.0264)
            for mat in (0.25, 1.0, 2.0) for strike in (80.0, 90.0, 95.0, 100.0, 105.0, 110.0)
        ])
    return chains


def random_chains(n):
    """``n`` chains of seeded random parameters, noise and layout.

    Each draws ``a ~ U(-0.1, 0.3)``, ``k = 10^U(-4, -0.3)``, ``v_eff ~
    U(-0.01, 0.01)``, ``sigma_bar ~ U(0.1, 0.5)``, ``r ~ U(0, 0.05)``, a
    relative noise from {0, 1e-4, 1e-3, 1e-2, 5e-2}, the valuation date t = 0
    with T = 0.25/0.5/1 and, with probability 1/2, t = 0.3 with T = 0.8/1.5,
    and the strikes {90, 100, 110} or {80, 90, ..., 120} at spot 100.  Each
    mid is the quote model's times ``1 + noise * gauss``.  A draw is kept only
    when every mid lies between its intrinsic value, as load_chain bounds it,
    and the spot.
    """
    rng = random.Random(20261020)
    chains = []
    while len(chains) < n:
        a = rng.uniform(-0.1, 0.3)
        k = 10.0 ** rng.uniform(-4.0, -0.3)
        v_eff = rng.uniform(-0.01, 0.01)
        sigma = rng.uniform(0.1, 0.5)
        r = rng.uniform(0.0, 0.05)
        noise = rng.choice((0.0, 1e-4, 1e-3, 1e-2, 5e-2))
        dates = [(0.0, (0.25, 0.5, 1.0))]
        if rng.random() < 0.5:
            dates.append((0.3, (0.8, 1.5)))
        strikes = rng.choice(((90.0, 100.0, 110.0), (80.0, 90.0, 100.0, 110.0, 120.0)))
        quotes = []
        try:
            for t, maturities in dates:
                for mat in maturities:
                    for strike in strikes:
                        mid = model_mid(t, mat, strike, 100.0, r, a, k, sigma, v_eff)
                        mid *= 1.0 + noise * rng.gauss(0.0, 1.0)
                        quotes.append(OptionQuote(t, mat, strike, mid, 100.0, r))
        except (PricingError, OverflowError):  # a factor past the float range
            continue
        if all(q.intrinsic() - calibration.INTRINSIC_TOL < q.mid < q.spot for q in quotes):
            chains.append(quotes)
    return chains


class TestChainSet:
    """calibrate_effective at seed 0 over 135 chains, against the objectives
    of the fit that re-ran each start's simplex on its own result until it
    stalled: no chain fits worse by more than its rounding floor or 1e-9
    relative, whichever is larger.  98 random chains keep the test near 5 s;
    the next 98 of the same stream hold too."""

    CHAINS = {
        "sample": [load_chain(SAMPLE_CHAIN)],
        "noisy_one_date": [
            synth_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=seed) for seed in range(1, 7)
        ],
        "noisy_two_dates": [
            two_date_quotes(a=0.06, sigma=0.21, v_eff=0.003, noise_rel=0.01, seed=seed) for seed in range(1, 4)
        ],
        "mixed": [TestVectorObjective.CHAINS["mixed"]],
        "exact_two_dates": TestSeveralDates.EXACT,
        "benchmark": benchmark_chains(20),
        "random": random_chains(98),
    }
    OBJECTIVES = {
        "sample": (
            1.482798698661167e-11,
        ),
        "noisy_one_date": (
            0.06695672176159678, 0.11728763915594118, 0.152581286093627,
            0.07110801349005003, 0.06655109757125255, 0.05542276592776363,
        ),
        "noisy_two_dates": (
            0.06676781634680234, 0.09949294558405641, 0.18513301427268922,
        ),
        "mixed": (
            0.7597782122091548,
        ),
        "exact_two_dates": (
            1.7573827001396296e-14, 2.4557556667725305e-14, 1.4594918351426662e-14,
            1.1538291219165406e-14, 3.4688023613490914e-14, 5.830232857534598e-14,
        ),
        "benchmark": (
            3.3138605788325794e-15, 3.0434001989151558e-15, 8.700939494392859e-15,
            6.301363506339322e-15, 5.378169710828003e-15, 5.0227997689065926e-15,
            9.73226945891845e-15, 6.716360158146314e-15, 3.4243303983147246e-15,
            4.91094676071916e-15, 8.301051878782715e-15, 9.083945400910994e-15,
            6.770009159954526e-15, 1.457988040657813e-15, 1.0026620623675392e-14,
            6.882707724827837e-15, 5.0545065820631095e-15, 3.1462304958206557e-15,
            4.424982395622793e-15, 1.5586435896314301e-15,
        ),
        "random": (
            0.0016227404971260217, 1.07275835376777, 0.11343613222554652,
            0.006002391313783174, 1.677681438327634e-15, 0.7366428728977167,
            2.276729205119354, 0.06439705032010454, 3.312229358431176e-15,
            3.1153393197049e-14, 5.977534715546542e-14, 0.10063227772367637,
            0.0017180541006996796, 0.7154962872939101, 0.01209582093338728,
            0.0016000118233297283, 0.1976747296587799, 0.009820544585636411,
            0.02591041932977736, 0.012586489376880117, 0.07116359126134625,
            0.3983649346775587, 2.527177428057486e-14, 0.1857537253397702,
            0.3682480407100099, 0.8588906013008908, 0.010333127117578254,
            0.31595490973040957, 0.0014920542118749798, 0.08001094599865047,
            0.010156761394078383, 0.0019008236883249646, 0.017745269927819118,
            0.45330925533234584, 4.394150252284441e-15, 0.22190714780262444,
            3.137084920135532e-14, 2.514840793800117e-14, 1.1049216253493268,
            3.4761182595605533e-15, 0.00399948815342457, 3.038172859005136e-15,
            0.14965356073552227, 0.008681007252644804, 0.9430783049692611,
            0.00175970149749114, 0.001314733667001675, 0.132599950015003,
            0.6365826840885994, 1.1115377150624914, 0.02268825309685375,
            0.2815793018151708, 3.527209215024405e-15, 0.012501453545021022,
            2.189021794751972e-14, 0.014492641782588385, 0.0006877981169311453,
            0.013885713169792624, 0.2606608701846806, 0.014857588188885685,
            0.5941761641432112, 0.01397257786766579, 1.268376066852176,
            1.3194548621838116, 0.4631516078870707, 0.008390812229897357,
            1.4657345670472932, 2.9217535097513624e-14, 0.012609919909098452,
            0.0036617302656377876, 0.6725832676171911, 0.032342652578958575,
            0.5065884579393244, 0.007040708274661675, 0.01437031834735536,
            0.6223480669166166, 0.08608863285054547, 0.0020005502622144305,
            0.010397768313065424, 5.3888071332069434e-15, 0.013461840491691296,
            1.9673686232796515e-14, 0.13370906072853353, 2.0061990718733034,
            2.3595867174163054e-15, 0.11930146129036379, 0.41035690948962733,
            0.5783776863146177, 0.954806169568596, 1.204759380228764e-14,
            0.008151781904101625, 0.17031324076977988, 0.014803179831042275,
            2.042842166730382, 0.0014152861722822206, 0.006883318158337941,
            0.7337159335352008, 0.018314061945924685,
        ),
    }

    @pytest.mark.parametrize("group", list(CHAINS))
    def test_no_worse_than_the_re_descending_fit(self, group):
        worse = []
        for i, (quotes, frozen) in enumerate(zip(self.CHAINS[group], self.OBJECTIVES[group], strict=True)):
            got = calibrate_effective(quotes, seed=0).objective
            if not got <= frozen + max(TestRestarts.floor(quotes), 1e-9 * frozen):
                worse.append((i, got, frozen))
        assert worse == []
