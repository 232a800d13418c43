"""Simulation oracle: exact distributional reductions, reproducibility
contract, and the error-sweep plumbing."""
import math
import sys
import tracemalloc

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
TABLE = VolFunction.tabulated([-1.0, -0.2, 0.3, 1.0], [0.3, 0.2, 0.22, 0.35])


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

    def test_threads_write_disjoint_slices_of_the_sample(self):
        # more workers than cores, switching threads as often as the
        # interpreter allows: a block writing outside its slice, or a lost
        # write, would break the equality with the one-thread run
        model = build_model(eta=0.05)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.02)
        base = dict(n_paths=6 * BLOCK_SIZE + 10, steps_per_year=100, seed=47)
        one = simulate_terminal(model, spec, EXP, SimConfig(**base))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = simulate_terminal(model, spec, EXP, SimConfig(**base, n_workers=8))
        finally:
            sys.setswitchinterval(interval)
        for name in "xyz":
            assert np.array_equal(getattr(one, name), getattr(many, name)), name

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
            dict(n_paths=2, antithetic=True),  # one pair mean has no spread
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            SimConfig(**kw)

    def test_zero_horizon_rejected(self):
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.5, maturity=0.5)
        with pytest.raises(ConfigError):
            simulate_terminal(build_model(), spec, EXP, SimConfig(n_paths=64))


def reference_sample(model, spec, vol, cfg, collect=0):
    """Terminal (x, y, z) and the dumped leading paths, from a plain step loop.

    The loop allocates each step's arrays afresh and keeps Z as an array of
    paths.  Each block draws from its own Philox substream of ``(seed,
    block)``: ``(3, n)`` normals per step where Z is a random OU path, and
    ``(2, n)`` where Z rides its arc or, at ``eta = 0``, its mean path.
    """
    horizon = spec.maturity - spec.t
    n_steps = max(1, round(cfg.steps_per_year * horizon))
    dt = horizon / n_steps
    frozen_z = cfg.z_scheme == "parabolic"
    dim = 3 if cfg.z_scheme == "ou" and model.eta > 0.0 else 2
    chol = np.linalg.cholesky(np.array([
        [1.0, model.rho_xy, model.rho_xz],
        [model.rho_xy, 1.0, model.rho_yz],
        [model.rho_xz, model.rho_yz, 1.0],
    ]))
    arc = parabolic_coefficients(model)
    decay_y = math.exp(-dt / model.epsilon)
    sd_y = model.nu * math.sqrt(1.0 - decay_y * decay_y)
    decay_z = math.exp(-model.k * dt)
    sd_z = model.eta * math.sqrt((1.0 - decay_z * decay_z) / (2.0 * model.k))

    def f(y, z):
        if vol.kind == "y_constant":
            return np.broadcast_to(z, y.shape).copy()
        if vol.kind == "separable_exp":
            return z * np.exp(y)
        return np.interp(y, np.asarray(vol.y_nodes), np.asarray(vol.f_values))

    sizes = [BLOCK_SIZE] * (cfg.n_paths // BLOCK_SIZE) + [cfg.n_paths % BLOCK_SIZE] * bool(cfg.n_paths % BLOCK_SIZE)
    xs, ys, zs, dump = [], [], [], {"x": [], "y": [], "z": []}
    for block, nb in enumerate(sizes):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(block,))))
        log_x = np.full(nb, math.log(spec.spot))
        y = np.full(nb, model.m)
        z0 = arc.value(spec.t) if frozen_z else model.m_prime + (model.z0 - model.m_prime) * math.exp(-model.k * spec.t)
        z = np.full(nb, float(z0))
        keep = collect if block == 0 else 0
        rows = [(np.full(keep, spec.spot), y[:keep], z[:keep])]
        for j in range(n_steps):
            sigma = f(y, z)
            if cfg.antithetic:
                half = rng.standard_normal((dim, nb // 2))
                raw = np.concatenate([half, -half], axis=1)
            else:
                raw = rng.standard_normal((dim, nb))
            xi_x = chol[0, 0] * raw[0]
            xi_y = chol[1, 0] * raw[0] + chol[1, 1] * raw[1]
            log_x = log_x + ((model.r - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * xi_x)
            y = model.m + (y - model.m) * decay_y + sd_y * xi_y
            if frozen_z:
                z = np.full(nb, float(arc.value(spec.t + (j + 1) * dt)))
            elif dim == 3:
                xi_z = chol[2, 0] * raw[0] + chol[2, 1] * raw[1] + chol[2, 2] * raw[2]
                z = model.m_prime + (z - model.m_prime) * decay_z + sd_z * xi_z
            else:
                z = model.m_prime + (z - model.m_prime) * decay_z
            rows.append((np.exp(log_x[:keep]), y[:keep], z[:keep]))
        xs.append(np.exp(log_x))
        ys.append(y)
        zs.append(z)
        if keep:
            for i, name in enumerate("xyz"):
                dump[name] = np.stack([row[i] for row in rows], axis=1)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs), dump


class TestStepLoopReference:
    """The in-place step loop against the plain loop of :func:`reference_sample`,
    bit for bit, over a block and a remainder."""

    MODEL = dict(rho_xy=-0.3, rho_xz=0.2, rho_yz=0.4, z0=0.2, m_prime=0.15)
    SPEC = OptionSpec(spot=100.0, strike=95.0, t=0.1, maturity=0.12)

    def assert_matches(self, model, vol, cfg):
        sample = simulate_terminal(model, self.SPEC, vol, cfg, return_paths=3)
        x, y, z, dump = reference_sample(model, self.SPEC, vol, cfg, collect=3)
        assert sample.block_sizes == (BLOCK_SIZE, 1002)
        assert np.array_equal(sample.x, x)
        assert np.array_equal(sample.y, y)
        assert np.array_equal(sample.z, z)
        for name in "xyz":
            assert np.array_equal(getattr(sample.paths, name), dump[name]), name

    @pytest.mark.parametrize("scheme, eta", [("parabolic", 0.0), ("ou", 0.1)])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("vol", [FLAT, EXP, TABLE], ids=["y_constant", "separable_exp", "tabulated"])
    def test_bit_identical_to_the_plain_loop(self, scheme, eta, antithetic, vol):
        cfg = SimConfig(n_paths=BLOCK_SIZE + 1002, steps_per_year=400, seed=5, z_scheme=scheme,
                        antithetic=antithetic)
        self.assert_matches(build_model(eta=eta, **self.MODEL), vol, cfg)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("vol", [FLAT, EXP], ids=["y_constant", "separable_exp"])
    def test_deterministic_z_draws_two_normals(self, antithetic, vol):
        # at eta = 0 no W^z is drawn: the (W^x, W^y) draws of each step are
        # the (2, n) normals of the block's substream
        cfg = SimConfig(n_paths=BLOCK_SIZE + 1002, steps_per_year=400, seed=5, antithetic=antithetic)
        self.assert_matches(build_model(**self.MODEL), vol, cfg)


class TestDeterministicSlowFactor:
    """``z_scheme = "ou"`` at ``eta = 0``: Z is its OU mean path."""

    def test_terminal_z_is_the_mean_recursion(self):
        model = build_model(k=0.5, z0=0.25, m_prime=0.15)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.2, maturity=0.5)
        cfg = SimConfig(n_paths=1 << 10, steps_per_year=100, seed=43)
        sample = simulate_terminal(model, spec, EXP, cfg)
        n_steps = round(100 * 0.3)
        decay = math.exp(-model.k * (0.3 / n_steps))
        z = model.m_prime + (model.z0 - model.m_prime) * math.exp(-model.k * spec.t)
        for _ in range(n_steps):
            z = model.m_prime + (z - model.m_prime) * decay
        assert np.all(sample.z == z)

    @pytest.mark.parametrize("scheme", ["ou", "parabolic"])
    def test_terminal_z_is_one_read_only_float(self, scheme):
        model = build_model(k=0.5, z0=0.25, m_prime=0.15)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.2, maturity=0.5)
        cfg = SimConfig(n_paths=BLOCK_SIZE + 10, steps_per_year=100, seed=43, z_scheme=scheme)
        sample = simulate_terminal(model, spec, EXP, cfg)
        want = reference_sample(model, spec, EXP, cfg)[2]
        assert not sample.z.flags.writeable
        assert sample.z.strides == (0,) and np.array_equal(sample.z, want)

    def test_spot_and_fast_factor_correlation(self):
        # as in test_driving_noise_correlations: after one step log X and Y
        # are linear in the (W^x, W^y) draws
        model = build_model(rho_xy=-0.2, rho_xz=0.1, rho_yz=0.3)
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.01)
        cfg = SimConfig(n_paths=1 << 16, steps_per_year=100, seed=11)
        sample = simulate_terminal(model, spec, EXP, cfg)
        got = np.corrcoef(np.log(sample.x), sample.y)[0, 1]
        se = (1.0 - 0.2 * 0.2) / math.sqrt(sample.x.size)
        assert abs(got - (-0.2)) <= 4.0 * se, got


class TestMemory:
    """The blocks write into the sample's arrays, so a run holds few arrays per path."""

    @pytest.mark.parametrize(
        "kw", [{}, {"antithetic": True}, {"n_workers": 2}], ids=["plain", "antithetic", "two_workers"]
    )
    def test_peak_grows_by_four_doubles_per_path(self, kw):
        # what a run keeps per path: x and y, the payoffs and one np.std
        # temporary; an antithetic run keeps the pair means and their
        # temporary at n / 2 in place of the last.  Z is one float here.
        # 4 KiB covers the Python objects of the extra blocks.
        model = build_model()
        spec = OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.01)

        def peak(n_blocks):
            cfg = SimConfig(n_paths=n_blocks * BLOCK_SIZE, steps_per_year=100, seed=3, **kw)
            tracemalloc.start()
            try:
                mc_price(model, spec, EXP, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # first-call imports and caches stay out of the measured runs
        extra_paths = 12 * BLOCK_SIZE
        grown = peak(16) - peak(4)
        assert grown <= 4 * 8 * extra_paths + 4096, grown / extra_paths
