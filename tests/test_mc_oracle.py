"""Simulation oracle: exact distributional reductions, reproducibility
contract, and the error-sweep plumbing."""
import math

import numpy as np
import pytest

from parabolic_sv import (
    BsInputs,
    ConfigError,
    OptionSpec,
    SimConfig,
    VolFunction,
    bs_call_price,
    build_model,
    epsilon_sweep,
    mc_price,
    parabolic_coefficients,
    simulate_terminal,
)
from parabolic_sv.monte_carlo import BLOCK_SIZE

EXP = VolFunction.separable_exp()
FLAT = VolFunction.y_constant()


def flat_vol_model(**kw):
    # m_prime one ulp-ish above z0 keeps the arc non-degenerate while pinning
    # the volatility f = z to z0 up to 1e-9
    return build_model(z0=0.2, m_prime=0.2 + 1e-9, **kw)


class TestLognormalReduction:
    def test_matches_black_scholes_for_flat_vol(self):
        # f = z with Z glued to z0: X is exactly lognormal and the left-frozen
        # log scheme is exact at any step count
        model = flat_vol_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)
        est = mc_price(model, spec, FLAT, SimConfig(n_paths=1 << 18, steps_per_year=8, seed=3))
        want = bs_call_price(BsInputs(100.0, 100.0, model.r, 0.2, 0.5))
        assert est.std_error < 0.05
        assert abs(est.price - want) <= 3.0 * est.std_error
        assert est.n_effective == 1 << 18

    def test_martingale_property_of_discounted_spot(self):
        model = flat_vol_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)
        sample = simulate_terminal(model, spec, FLAT, SimConfig(n_paths=1 << 18, steps_per_year=8, seed=5))
        disc = math.exp(-model.r * 0.5) * sample.x
        se = float(np.std(disc, ddof=1) / math.sqrt(disc.size))
        assert abs(float(np.mean(disc)) - 100.0) <= 3.0 * se


class TestFactorMarginals:
    def test_fast_factor_transition_from_its_mean(self):
        # Y starts at its long-run mean m, so the exact OU transition keeps the
        # mean at m and grows the variance to nu^2 (1 - e^(-2 tau/epsilon));
        # at tau/epsilon = 0.5 that is 63% of the stationary nu^2
        model = build_model(epsilon=0.01, m=0.1)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.005)
        cfg = SimConfig(n_paths=1 << 16, steps_per_year=2000, seed=7)
        sample = simulate_terminal(model, spec, EXP, cfg)
        decay = math.exp(-0.005 / 0.01)
        want_mean = 0.1
        want_var = 0.3**2 * (1.0 - decay * decay)
        n = sample.y.size
        got_mean = float(np.mean(sample.y))
        got_var = float(np.var(sample.y, ddof=1))
        se_mean = math.sqrt(want_var / n)
        se_var = want_var * math.sqrt(2.0 / (n - 1))
        assert abs(got_mean - want_mean) <= 3.0 * se_mean
        assert abs(got_var - want_var) <= 3.0 * se_var

    def test_slow_factor_transition_moments(self):
        model = build_model(eta=0.1, k=0.5, z0=0.25, m_prime=0.15)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)
        cfg = SimConfig(n_paths=1 << 16, steps_per_year=100, seed=9)
        sample = simulate_terminal(model, spec, EXP, cfg)
        decay = math.exp(-0.5 * 0.5)
        want_mean = 0.15 + 0.1 * decay
        want_var = 0.1**2 * (1.0 - decay * decay) / (2.0 * 0.5)
        n = sample.z.size
        se_mean = math.sqrt(want_var / n)
        se_var = want_var * math.sqrt(2.0 / (n - 1))
        assert abs(float(np.mean(sample.z)) - want_mean) <= 3.0 * se_mean
        assert abs(float(np.var(sample.z, ddof=1)) - want_var) <= 3.0 * se_var

    def test_driving_noise_correlations(self):
        # one step keeps (log X, Y, Z) jointly linear in the raw draws, so the
        # sample correlations estimate the configured matrix directly
        model = build_model(rho_xy=-0.2, rho_xz=0.1, rho_yz=0.3, eta=0.1)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.01)
        cfg = SimConfig(n_paths=1 << 16, steps_per_year=100, seed=11)
        sample = simulate_terminal(model, spec, EXP, cfg)
        n = sample.x.size
        mat = np.corrcoef(np.vstack([np.log(sample.x), sample.y, sample.z]))
        for got, rho in (
            (mat[0, 1], -0.2),
            (mat[0, 2], 0.1),
            (mat[1, 2], 0.3),
        ):
            se = (1.0 - rho * rho) / math.sqrt(n)
            assert abs(got - rho) <= 4.0 * se, (got, rho)


class TestFrozenParabolicScheme:
    def test_z_rides_the_arc_exactly(self):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.1, maturity=0.6)
        cfg = SimConfig(n_paths=64, steps_per_year=100, seed=13, z_scheme="parabolic")
        sample = simulate_terminal(model, spec, EXP, cfg, return_paths=4)
        arc = parabolic_coefficients(model)
        want = arc.value(sample.paths.times)
        assert np.array_equal(sample.paths.z, np.broadcast_to(want, sample.paths.z.shape))
        assert np.all(sample.z == float(arc.value(0.6)))

    def test_path_dump_layout(self):
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.25, maturity=0.5)
        cfg = SimConfig(n_paths=64, steps_per_year=100, seed=13)
        sample = simulate_terminal(build_model(), spec, EXP, cfg, return_paths=5)
        n_steps = round(100 * 0.25)
        assert sample.paths.x.shape == (5, n_steps + 1)
        assert sample.paths.times[0] == 0.25
        assert sample.paths.times[-1] == pytest.approx(0.5, rel=1e-12)
        assert np.all(sample.paths.x[:, 0] == 100.0)
        # dumped rows are the leading paths of the terminal arrays
        assert np.array_equal(sample.paths.x[:, -1], sample.x[:5])


class TestAntithetic:
    def test_pairs_mirror_around_the_one_step_mean(self):
        model = build_model(eta=0.1)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.01)
        cfg = SimConfig(n_paths=1 << 12, steps_per_year=100, seed=17, antithetic=True)
        sample = simulate_terminal(model, spec, EXP, cfg)
        half = (1 << 12) // 2
        # all paths share the deterministic first-step drift, so pair means
        # collapse to it exactly
        pair_log_x = 0.5 * (np.log(sample.x[:half]) + np.log(sample.x[half:]))
        assert np.allclose(pair_log_x, pair_log_x[0], atol=1e-12)
        pair_y = 0.5 * (sample.y[:half] + sample.y[half:])
        assert np.allclose(pair_y, pair_y[0], atol=1e-12)

    def test_estimate_consistent_with_plain_sampling(self):
        model = flat_vol_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)
        plain = mc_price(model, spec, FLAT, SimConfig(n_paths=1 << 16, steps_per_year=8, seed=19))
        anti = mc_price(
            model, spec, FLAT, SimConfig(n_paths=1 << 16, steps_per_year=8, seed=19, antithetic=True)
        )
        gap = abs(plain.price - anti.price)
        assert gap <= 3.0 * math.hypot(plain.std_error, anti.std_error)

    def test_variance_reduction_on_the_call(self):
        model = flat_vol_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)
        plain = mc_price(model, spec, FLAT, SimConfig(n_paths=1 << 16, steps_per_year=8, seed=23))
        anti = mc_price(
            model, spec, FLAT, SimConfig(n_paths=1 << 16, steps_per_year=8, seed=23, antithetic=True)
        )
        assert anti.std_error < plain.std_error

    def test_odd_path_count_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(n_paths=1001, antithetic=True)


class TestStandardErrorScaling:
    def test_quadruple_paths_halve_the_error(self):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.25)
        small = mc_price(model, spec, EXP, SimConfig(n_paths=1 << 14, steps_per_year=200, seed=29))
        big = mc_price(model, spec, EXP, SimConfig(n_paths=1 << 16, steps_per_year=200, seed=29))
        ratio = big.std_error / small.std_error
        assert 0.4 <= ratio <= 0.6


class TestReproducibility:
    def test_bit_identical_across_worker_counts(self):
        model = build_model(eta=0.05)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.02)
        n = 2 * BLOCK_SIZE + 12345
        base = dict(n_paths=n, steps_per_year=100, seed=31)
        one = simulate_terminal(model, spec, EXP, SimConfig(**base, n_workers=1))
        four = simulate_terminal(model, spec, EXP, SimConfig(**base, n_workers=4))
        assert one.block_sizes == (BLOCK_SIZE, BLOCK_SIZE, 12345)
        assert np.array_equal(one.x, four.x)
        assert np.array_equal(one.y, four.y)
        assert np.array_equal(one.z, four.z)
        p1 = mc_price(model, spec, EXP, SimConfig(**base, n_workers=1))
        p4 = mc_price(model, spec, EXP, SimConfig(**base, n_workers=4))
        assert p1 == p4

    def test_same_seed_same_estimate(self):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.1)
        cfg = SimConfig(n_paths=1 << 14, steps_per_year=100, seed=37)
        assert mc_price(model, spec, EXP, cfg) == mc_price(model, spec, EXP, cfg)

    def test_different_seed_different_estimate(self):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.1)
        a = mc_price(model, spec, EXP, SimConfig(n_paths=1 << 14, steps_per_year=100, seed=37))
        b = mc_price(model, spec, EXP, SimConfig(n_paths=1 << 14, steps_per_year=100, seed=38))
        assert a.price != b.price


class TestEpsilonSweep:
    def test_flat_vol_errors_identical_across_epsilon(self):
        # f = z ignores Y entirely: the X paths and the asymptotic price are
        # both epsilon-free, so every row must report the same gap
        model = flat_vol_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.25)
        cfg = SimConfig(n_paths=1 << 14, steps_per_year=200, seed=41)
        rows = epsilon_sweep(model, spec, FLAT, cfg, [0.04, 0.01, 0.0025])
        assert [r.epsilon for r in rows] == [0.04, 0.01, 0.0025]
        assert rows[0].abs_error == rows[1].abs_error == rows[2].abs_error
        assert rows[0].mc_price == rows[1].mc_price == rows[2].mc_price

    def test_rows_are_internally_consistent(self):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.25)
        cfg = SimConfig(n_paths=1 << 14, steps_per_year=200, seed=43)
        rows = epsilon_sweep(model, spec, EXP, cfg, [0.04, 0.01])
        for row in rows:
            assert row.abs_error == abs(row.asymptotic - row.mc_price)
            assert row.std_error > 0.0

    @pytest.mark.parametrize("eps", [[], [0.01, 0.04], [0.04, 0.04], [0.04, -0.01]])
    def test_bad_epsilon_lists_rejected(self, eps):
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.25)
        cfg = SimConfig(n_paths=1 << 12, steps_per_year=100, seed=1)
        with pytest.raises(ConfigError):
            epsilon_sweep(model, spec, EXP, cfg, eps)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_paths=1),
            dict(n_paths=1000, steps_per_year=0),
            dict(n_paths=1000, seed=-1),
            dict(n_paths=1000, z_scheme="euler"),
            dict(n_paths=1000, n_workers=0),
            dict(n_paths=1000, n_workers=2.0),
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            SimConfig(**kw)

    def test_zero_horizon_rejected(self):
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.5, maturity=0.5)
        with pytest.raises(ConfigError):
            simulate_terminal(build_model(), spec, EXP, SimConfig(n_paths=64))
