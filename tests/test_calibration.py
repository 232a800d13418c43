"""Chain IO, implied vol, and both fitting modes on synthetic chains."""
import logging
import math
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
        # side of the band around 2r are the same (k, sigma_bar) point
        assert len(res.restart_objectives) == 1 + 3
        assert res.objective == min(res.restart_objectives)
        assert res.iterations > 0

    def test_two_valuation_dates_round_trip(self):
        # no closed form for a over several dates: the simplex searches
        # (a, k, sigma_bar) from both data-driven starts
        quotes = two_date_quotes(a=0.06, sigma=0.21, v_eff=0.003)
        res = calibrate_effective(quotes, seed=0)
        assert res.objective <= 1e-8
        assert abs(res.sigma_bar_hat - 0.21) <= 1e-4
        assert abs(res.v_eff_hat - 0.003) <= 1e-4
        assert abs(res.a_hat - 0.06) <= 1e-3
        assert len(res.restart_objectives) == 2 + 3

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
    """The vectorised objective of calibrate_effective against a per-quote loop."""

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
    def test_matches_per_quote_loop(self, chain):
        quotes = self.CHAINS[chain]
        lo, hi, v_box = box()
        objective = _ChainModel(quotes, lo, hi, v_box).objective
        for theta in self.THETAS:
            theta = np.array(theta)
            want = loop_objective(quotes, theta, lo, hi, v_box)
            assert math.isfinite(want) and want != 1e9, theta
            assert objective(theta) == pytest.approx(want, rel=1e-12), theta

    def test_profiled_v_matches_the_fit(self):
        quotes = self.CHAINS["single_date"]
        res = calibrate_effective(quotes, seed=0)
        profiled_v = _ChainModel(quotes, *box()).profiled_v
        v, resid = profiled_v(res.a_hat, res.k_hat, res.sigma_bar_hat)
        assert v == res.v_eff_hat
        assert math.sqrt(float(np.mean(resid**2))) == pytest.approx(res.objective, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize(
        "quotes, theta, why",
        [
            (quotes_at(2.5, (3.0, 3.5)), (0.06, 0.8, 0.2), "k t = 2"),
            (quotes_at(2.5 - 1e-13, (3.0, 3.5)), (0.06, 0.8, 0.2), "k t within the floor of 2"),
            (quotes_at(1.5, (2.2, 2.5)), (0.06, 1.0, 0.2), "t and T straddle 2/k"),
            (synth_quotes(), (0.5, 1e-5, 0.2), "the factor overflows"),
        ],
        ids=lambda x: x if isinstance(x, str) else "",
    )
    def test_infeasible_points_score_1e9(self, quotes, theta, why):
        lo, hi, v_box = box()
        objective = _ChainModel(quotes, lo, hi, v_box).objective
        theta = np.array(theta)
        assert loop_objective(quotes, theta, lo, hi, v_box) == 1e9, why
        assert objective(theta) == 1e9, why

    def test_zero_sigma_scores_1e9_in_a_widened_box(self):
        # sigma_bar = 0 is outside the kernel's domain, as it is outside d1d2_call's
        quotes = self.CHAINS["single_date"]
        lo, hi, v_box = box(sigma_bar=(0.0, 2.0))
        objective = _ChainModel(quotes, lo, hi, v_box).objective
        theta = np.array([0.06, 0.008, 0.0])
        assert loop_objective(quotes, theta, lo, hi, v_box) == 1e9
        assert objective(theta) == 1e9


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
    }

    @staticmethod
    def check(quotes, k, sig, lo, hi, v_box):
        model = _ChainModel(quotes, lo, hi, v_box)
        objective = model.objective
        a = model.fit_a(k, sig)
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
        a, _ = self.check(quotes, 0.008, 0.21, lo, hi, v_box)
        assert _ChainModel(quotes, lo, hi, v_box).profiled_v(a, 0.008, 0.21)[0] == 1e-3

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

    @pytest.mark.parametrize("chain, dims", [("single_date", 2), ("mixed", 3)])
    def test_fit_calls_the_module_optimiser(self, monkeypatch, chain, dims):
        # the benchmark traces the optimiser and its objective through this
        # attribute; a is solved inside the search at one valuation date only
        seen = []
        real = calibration.minimize

        def counting(fun, x0, *args, **kwargs):
            seen.append(len(x0))
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(calibration, "minimize", counting)
        calibrate_effective(TestVectorObjective.CHAINS[chain], n_restarts=0)
        assert seen and set(seen) == {dims}

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


def two_date_quotes(a=0.05, k=0.008, r=0.0264, sigma=0.2, v_eff=0.0):
    out = synth_quotes(a=a, k=k, r=r, sigma=sigma, v_eff=v_eff)
    for maturity in (0.9, 1.6):
        for strike in (90.0, 100.0, 110.0):
            mid = model_mid(0.4, maturity, strike, 100.0, r, a, k, sigma, v_eff)
            out.append(OptionQuote(t=0.4, maturity=maturity, strike=strike, mid=mid, spot=100.0, rate=r))
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


class TestEstimateAGrid:
    """estimate_a, in closed form at one date and by golden section at two, against a dense a-grid."""

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
            sig = res.sigma_bar_used
            return sum(
                (q.mid - modification_factor(q.t, a, 0.0264, k)
                 * bs_call_price(BsInputs(q.spot, q.strike, q.rate, sig, q.tau))) ** 2
                for q in quotes
            )

        assert res.objective == pytest.approx(sse(res.a_hat), rel=1e-10)
        grid = a_grid(quotes, -0.5, 0.5) + [res.a_hat - 1e-7, res.a_hat + 1e-7]
        assert res.objective <= min(sse(a) for a in grid)

    @pytest.mark.parametrize("k", [0.8, 0.8 + 1e-14])
    def test_singular_valuation_date_raises(self, k):
        # k t = 2 at t = 2.5: the modification factor has no value, so the fit
        # must say so rather than score the point infeasible and slide to a bound
        quotes = factor_quotes(2.5, (2.55, 2.6), a=0.06, k=0.7)
        with pytest.raises(SingularTimeError):
            estimate_a(quotes, k=k)
