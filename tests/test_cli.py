"""Command-line behavior: reports, exit codes, determinism, dump files."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parabolic_sv import (
    BsInputs,
    OptionSpec,
    VolFunction,
    bs_call_price,
    build_model,
    d1d2_call,
    modification_factor,
    p1_time_factor,
    price_first_order,
)
from parabolic_sv import errors
from parabolic_sv.cli import load_run_config, main
from parabolic_sv.monte_carlo import BLOCK_SIZE
from parabolic_sv.params import SimConfig

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_TABLE = ROOT / "configs" / "vol_table_sample.txt"
SAMPLE_CHAIN = ROOT / "configs" / "chain_sample.csv"

# README's exit-code table: 2 bad input, 3 numerical failure, 4 too little data
README_EXIT_CODES = {
    "ConfigError": 2,
    "ChainParseError": 2,
    "InvalidModelError": 2,
    "InputDomainError": 2,
    "PricingError": 3,
    "SingularTimeError": 3,
    "LogDomainError": 3,
    "NumericalOverflowError": 3,
    "CenteringFailureError": 3,
    "NoInteriorMinimumError": 3,
    "EmptyChainError": 4,
    "InsufficientDataError": 4,
}
ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PricingError)),
    key=lambda c: c.__name__,
)


def write_cfg(tmp_path, name, **pairs):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return str(path)


def assert_one_error_line(err, *fragments):
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    for fragment in fragments:
        assert fragment in err


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, rest = line.split(None, 1)
        out[key] = rest.strip()
    return out


def write_chain(path, a=0.05, k=0.008, r=0.0264, sigma=0.2, v_eff=0.003,
                maturities=(0.25, 0.5, 1.0), strikes=(90.0, 100.0, 110.0)):
    lines = ["t,T,K,mid,x,r"]
    for maturity in maturities:
        for strike in strikes:
            inp = BsInputs(100.0, strike, r, sigma, maturity)
            mid = modification_factor(0.0, a, r, k) * (
                bs_call_price(inp) + v_eff * p1_time_factor(0.0, maturity, k) * d1d2_call(inp)
            )
            lines.append(f"0.0,{maturity},{strike},{format(mid, '.12g')},100.0,{r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestPriceCommand:
    def test_report_matches_library(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.cfg", spot=100.0, strike=100.0, t=0.0, maturity=0.5)
        assert main(["price", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        want = price_first_order(
            OptionSpec(100.0, 100.0, 0.0, 0.5), build_model(), VolFunction.separable_exp()
        )
        assert float(report["total"]) == pytest.approx(want.total, rel=1e-9)
        assert float(report["sigma_bar"]) == pytest.approx(want.sigma_bar, rel=1e-9)
        for key in ("command", "z", "q0", "mod_factor", "p0", "time_factor", "v",
                    "d1d2", "correction", "total"):
            assert key in report

    def test_out_file_is_delimited(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        cfg = write_cfg(tmp_path, "p.cfg", spot=100.0, strike=100.0, maturity=0.5)
        assert main(["price", "--config", cfg, "--out", str(out)]) == 0
        stdout_report = parse_report(capsys.readouterr().out)
        lines = out.read_text().strip().splitlines()
        for line in lines:
            assert "=" in line and " = " not in line
        file_report = dict(line.split("=", 1) for line in lines)
        assert file_report["total"] == stdout_report["total"]
        assert file_report["command"] == "price"

    def test_model_keys_accepted(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "p.cfg", spot=100.0, strike=100.0, maturity=0.5,
            epsilon=0.04, rho_xy=-0.4, z0=0.25, vol_kind="separable_exp",
        )
        assert main(["price", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        want = price_first_order(
            OptionSpec(100.0, 100.0, 0.0, 0.5),
            build_model(epsilon=0.04, rho_xy=-0.4, z0=0.25),
            VolFunction.separable_exp(),
        )
        assert float(report["total"]) == pytest.approx(want.total, rel=1e-9)


class TestExitCodes:
    def good_price_cfg(self, tmp_path, **extra):
        base = dict(spot=100.0, strike=100.0, maturity=0.5)
        base.update(extra)
        return write_cfg(tmp_path, "cfg.cfg", **base)

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["price", "--config", str(tmp_path / "none.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        cfg = self.good_price_cfg(tmp_path, volatility=0.2)
        assert main(["price", "--config", cfg]) == 2

    @pytest.mark.parametrize("key,value", [("definition", "rms"), ("assembly", "combined")])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key, value):
        cfg = self.good_price_cfg(tmp_path, **{key: value})
        assert main(["price", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"unknown keys for price: {key}" in err

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("spot = 100\nstrike = 100\nmaturity = 0.5\nspot = 90\n")
        assert main(["price", "--config", str(path)]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.cfg", spot=100.0, strike=100.0)
        assert main(["price", "--config", cfg]) == 2

    def test_bad_enum_value(self, tmp_path):
        cfg = self.good_price_cfg(tmp_path, vol_kind="median")
        assert main(["price", "--config", cfg]) == 2

    def test_bad_integer_value(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "cfg.cfg", spot=100.0, strike=100.0, maturity=0.5,
            n_paths=4096, seed=1.5,
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_bad_bool_value(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "cfg.cfg", spot=100.0, strike=100.0, maturity=0.5,
            n_paths=4096, antithetic="yes",
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_invalid_model_rejected(self, tmp_path):
        cfg = self.good_price_cfg(tmp_path, z0=0.1, m_prime=0.1)
        assert main(["price", "--config", cfg]) == 2

    def test_tabulated_without_table(self, tmp_path):
        cfg = self.good_price_cfg(tmp_path, vol_kind="tabulated")
        assert main(["price", "--config", cfg]) == 2

    def test_missing_vol_table_file(self, tmp_path, capsys):
        cfg = self.good_price_cfg(tmp_path, vol_kind="tabulated", vol_table=tmp_path / "none.txt")
        assert main(["price", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "none.txt" in err

    @pytest.mark.parametrize("which", ["config", "vol_table", "chain"])
    def test_undecodable_input_file(self, tmp_path, capsys, which):
        binary = tmp_path / "binary"
        binary.write_bytes(b"t,T,K,mid,x,r\n\xd0\xff\xfe\n")
        if which == "config":
            argv = ["price", "--config", str(binary)]
        elif which == "vol_table":
            argv = ["price", "--config", self.good_price_cfg(tmp_path, vol_kind="tabulated", vol_table=binary)]
        else:
            argv = ["calibrate", "--config", write_cfg(tmp_path, "c.cfg", chain=binary)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and len(err.strip().splitlines()) == 1

    def test_unwritable_out_file(self, tmp_path, capsys):
        cfg = self.good_price_cfg(tmp_path)
        out = tmp_path / "no" / "such" / "r.txt"
        assert main(["price", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
        assert "--out" in captured.err and captured.out == ""

    def test_unwritable_paths_dump(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1,
            n_paths=64, steps_per_year=100, seed=5,
        )
        dump = tmp_path / "no" / "paths.csv"
        assert main(["simulate", "--config", cfg, "--paths-dump", str(dump)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--paths-dump" in err

    def test_missing_chain_file(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", chain=str(tmp_path / "none.csv"))
        assert main(["calibrate", "--config", cfg]) == 2

    def test_singular_horizon_is_numerical_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "cfg.cfg", spot=100.0, strike=100.0, maturity=2.5, k=0.9
        )
        assert main(["price", "--config", cfg]) == 3
        assert "error:" in capsys.readouterr().err

    def test_overflowing_modification_factor_is_numerical_error(self, tmp_path, capsys):
        # (a - 2r) / k ~ 4.5e4 puts the factor near e^8638, beyond the float range
        cfg = self.good_price_cfg(tmp_path, k=1e-5, a=0.5)
        assert main(["price", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_overflowing_discount_factor_is_input_error(self, tmp_path, capsys):
        # exp(-r * tau) = e^1000 is beyond the float range
        cfg = self.good_price_cfg(tmp_path, r=-2000.0)
        assert main(["price", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: discount factor") and len(err.strip().splitlines()) == 1

    def test_every_error_class_is_in_the_table(self):
        assert sorted(c.__name__ for c in ERROR_CLASSES) == sorted(README_EXIT_CODES)

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_states_readme_exit_code(self, cls):
        assert cls.exit_code == README_EXIT_CODES[cls.__name__]

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_main_returns_the_error_class_exit_code(self, tmp_path, capsys, monkeypatch, cls):
        import parabolic_sv.cli as cli

        if cls is errors.InvalidModelError:
            exc = cls([errors.Violation("Probe", "raised by the test")])
        else:
            exc = cls("raised by the test")

        def failing(*args):
            raise exc

        monkeypatch.setattr(cli, "cmd_price", failing)
        assert main(["price", "--config", self.good_price_cfg(tmp_path)]) == README_EXIT_CODES[cls.__name__]
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "raised by the test")
        assert captured.out == ""

    def test_bad_z_scheme_names_file_and_key(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1,
            n_paths=64, steps_per_year=100, z_scheme="euler",
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert_one_error_line(capsys.readouterr().err, cfg, "key z_scheme: expected one of ou, parabolic")

    @pytest.mark.parametrize("key,value", [("seed", -1), ("n_restarts", -2)])
    def test_negative_calibrate_count_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, "c.cfg", chain=SAMPLE_CHAIN, **{key: value})
        assert main(["calibrate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, f"{key} = {value} must be a non-negative integer")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "fit, key, value",
        [("a", "seed", 1), ("a", "n_restarts", 2), ("effective", "k", 0.01), ("effective", "r", 0.03)],
    )
    def test_other_fits_key_is_config_error(self, tmp_path, capsys, fit, key, value):
        cfg = write_cfg(tmp_path, "c.cfg", chain=SAMPLE_CHAIN, fit=fit, **{key: value})
        assert main(["calibrate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, cfg, f"keys not read by fit = {fit}: {key}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, value", [("vol_table", "none.txt"), ("vol_kind", "tabulated"), ("z0", 0.1), ("a", 0.05)]
    )
    def test_model_and_vol_keys_are_unknown_to_calibrate(self, tmp_path, capsys, key, value):
        # the chain does not exist either: the keys are rejected before any file is read
        cfg = write_cfg(tmp_path, "c.cfg", chain=tmp_path / "none.csv", fit="a", **{key: value})
        assert main(["calibrate", "--config", cfg]) == 2
        assert_one_error_line(capsys.readouterr().err, f"unknown keys for calibrate: {key}")

    def test_y0_is_unknown_to_simulate(self, tmp_path, capsys):
        # the fast factor always starts at its long-run mean m
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1,
            n_paths=64, steps_per_year=100, y0=0.1,
        )
        assert main(["simulate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "unknown keys for simulate: y0")
        assert captured.out == ""

    def test_empty_eps_sweep_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1,
            n_paths=64, steps_per_year=100, eps_sweep=",",
        )
        assert main(["simulate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "eps_list")
        assert captured.out == ""

    def test_empty_chain_is_data_error(self, tmp_path):
        chain = tmp_path / "chain.csv"
        chain.write_text("t,T,K,mid,x,r\n")
        cfg = write_cfg(tmp_path, "c.cfg", chain=str(chain))
        assert main(["calibrate", "--config", cfg]) == 4

    def test_single_maturity_chain_is_data_error(self, tmp_path):
        chain = write_chain(tmp_path / "chain.csv", maturities=(0.5,))
        cfg = write_cfg(tmp_path, "c.cfg", chain=chain, fit="a")
        assert main(["calibrate", "--config", cfg]) == 4


class TestSimulateCommand:
    def test_point_estimate_report(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.25,
            n_paths=4096, steps_per_year=200, seed=5,
        )
        assert main(["simulate", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert int(report["n_effective"]) == 4096
        assert float(report["std_error"]) > 0.0
        # report values carry 10 significant digits, so re-deriving the gap
        # from the printed fields is only good to the last rounded digit
        gap = abs(float(report["asymptotic"]) - float(report["price"]))
        assert float(report["abs_gap"]) == pytest.approx(gap, abs=5e-9)
        assert "n_workers" not in report

    def test_stdout_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.25,
            n_paths=4096, steps_per_year=200, seed=5,
        )
        assert main(["simulate", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", cfg]) == 0
        assert capsys.readouterr().out == first

    def test_report_independent_of_worker_count(self, tmp_path, capsys):
        paths = 2 * BLOCK_SIZE + 777
        base = dict(
            spot=100.0, strike=100.0, maturity=0.02, n_paths=paths,
            steps_per_year=100, seed=9,
        )
        cfg1 = write_cfg(tmp_path, "w1.cfg", **base, n_workers=1)
        cfg4 = write_cfg(tmp_path, "w4.cfg", **base, n_workers=4)
        assert main(["simulate", "--config", cfg1]) == 0
        out1 = capsys.readouterr().out
        assert main(["simulate", "--config", cfg4]) == 0
        assert capsys.readouterr().out == out1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate", [-2000.0, 2000.0])
    def test_rate_whose_discount_is_not_a_positive_float(self, tmp_path, capsys, monkeypatch, rate):
        # exp(-r * tau) is e^1000 or e^-1000 at tau = 0.5: the horizon is refused
        # with one error line before any path is drawn, with no traceback and
        # no numpy warning (which this test turns into an error)
        import parabolic_sv.monte_carlo as monte_carlo

        def no_paths(*args, **kwargs):
            raise AssertionError("a path block was simulated")

        monkeypatch.setattr(monte_carlo, "_simulate_block", no_paths)
        cfg = write_cfg(tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.5, r=rate, n_paths=64)
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert_one_error_line(err, "discount factor", f"r = {rate!r}")
        assert out == ""

    def test_every_sim_config_field_is_a_key(self, tmp_path, capsys):
        values = dict(
            n_paths=64, steps_per_year=100, seed=5, z_scheme="parabolic",
            antithetic="true", n_workers=2,
        )
        assert set(values) == {f.name for f in dataclasses.fields(SimConfig)}
        cfg = write_cfg(tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1, **values)
        assert main(["simulate", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["z_scheme"] == "parabolic" and report["antithetic"] == "true"
        assert int(report["n_effective"]) == 64

    def test_sweep_report(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.25,
            n_paths=4096, steps_per_year=200, seed=5, vol_kind="y_constant",
            m_prime=0.2000000001, eps_sweep="0.04,0.01,0.0025",
        )
        assert main(["simulate", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        for i in range(3):
            for stem in ("epsilon", "asymptotic", "mc_price", "std_error", "abs_error"):
                assert f"{stem}_{i}" in report
        # flat vol ignores epsilon entirely, so the gap is constant in it
        assert report["abs_error_0"] == report["abs_error_1"] == report["abs_error_2"]
        assert report["trend"] == "non-increasing"

    def test_paths_dump_file(self, tmp_path, capsys):
        dump = tmp_path / "paths.csv"
        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1,
            n_paths=64, steps_per_year=100, seed=5,
        )
        assert main(["simulate", "--config", cfg, "--paths-dump", str(dump)]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "path,time,x,y,z"
        n_steps = round(100 * 0.1)
        assert len(lines) == 1 + 8 * (n_steps + 1)
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[2]) == 100.0

    def test_paths_dump_reuses_the_pricing_run(self, tmp_path, capsys, monkeypatch):
        import parabolic_sv.monte_carlo as monte_carlo

        cfg = write_cfg(
            tmp_path, "s.cfg", spot=100.0, strike=100.0, maturity=0.1,
            n_paths=2 * BLOCK_SIZE + 10, steps_per_year=100, seed=5,
        )
        assert main(["simulate", "--config", cfg]) == 0
        plain = capsys.readouterr().out

        kept = []
        real = monte_carlo.simulate_terminal

        def counting(*args, **kwargs):
            kept.append(kwargs.get("return_paths", 0))
            return real(*args, **kwargs)

        monkeypatch.setattr(monte_carlo, "simulate_terminal", counting)
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--config", cfg, "--paths-dump", str(dump)]) == 0
        assert kept == [8]
        assert capsys.readouterr().out == plain

    def test_sweep_paths_dump_runs_block_zero_only(self, tmp_path, capsys, monkeypatch):
        import parabolic_sv.monte_carlo as monte_carlo

        base = dict(
            spot=100.0, strike=100.0, maturity=0.02, n_paths=BLOCK_SIZE + 2,
            steps_per_year=100, seed=5, antithetic="true",
        )
        plain = tmp_path / "plain.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, "p.cfg", **base), "--paths-dump", str(plain)]) == 0

        sizes = []
        real = monte_carlo.simulate_terminal

        def counting(model, option, vol, sim, **kwargs):
            if kwargs.get("return_paths"):  # the dump's run; the sweep's keep no paths
                sizes.append(sim.n_paths)
            return real(model, option, vol, sim, **kwargs)

        monkeypatch.setattr(monte_carlo, "simulate_terminal", counting)
        swept = tmp_path / "swept.csv"
        cfg = write_cfg(tmp_path, "s.cfg", **base, eps_sweep="0.01")
        assert main(["simulate", "--config", cfg, "--paths-dump", str(swept)]) == 0
        assert swept.read_bytes() == plain.read_bytes()
        assert len(sizes) == 1 and sizes[0] <= BLOCK_SIZE


class TestCalibrateCommand:
    def test_fit_a_with_twice_r_at_the_default_a(self, tmp_path, capsys):
        # 2r = 0.05 is ModelParams' default a, which the fit estimates, not reads
        cfg = write_cfg(tmp_path, "c.cfg", chain=SAMPLE_CHAIN, fit="a", k=0.008, r=0.025)
        assert main(["calibrate", "--config", cfg]) == 0
        assert math.isfinite(float(parse_report(capsys.readouterr().out)["a_hat"]))

    def test_fit_a_with_overflowing_twice_r(self, tmp_path):
        # 2r overflows to inf: one error line, no numpy warning before it
        cfg = write_cfg(tmp_path, "c.cfg", chain=SAMPLE_CHAIN, fit="a", r=1e308)
        proc = run_python("import sys; from parabolic_sv.cli import main; sys.exit(main(sys.argv[1:]))",
                          "calibrate", "--config", cfg)
        assert proc.returncode == 2
        assert_one_error_line(proc.stderr, "1e+308")

    @pytest.mark.parametrize("fit", ["a", "effective"])
    def test_rate_whose_discount_underflows(self, tmp_path, fit):
        # 2r is finite but r * tau overflows, so exp(-r * tau) is 0: both fits
        # refuse the chain with one error line and no numpy warning before it
        chain = tmp_path / "chain.csv"
        chain.write_text("t,T,K,mid,x,r\n" + "".join(
            f"0.0,{mat},{strike},100.0,100.0,8e307\n" for mat in (0.5, 3.0) for strike in (90.0, 100.0)
        ))
        cfg = write_cfg(tmp_path, "c.cfg", chain=chain, fit=fit)
        proc = run_python("import sys; from parabolic_sv.cli import main; sys.exit(main(sys.argv[1:]))",
                          "calibrate", "--config", cfg)
        assert proc.returncode == 2
        assert_one_error_line(proc.stderr, "discount factor")
        assert "RuntimeWarning" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("rate", ["-2000", "-8e307"])
    @pytest.mark.parametrize("fit", ["a", "effective"])
    def test_rate_whose_discount_overflows(self, tmp_path, fit, rate):
        # -r * tau is past the float exponent range: every row loads (its
        # discounted intrinsic value is 0) and both fits refuse the chain with
        # one error line, not an OverflowError traceback
        chain = tmp_path / "chain.csv"
        chain.write_text("t,T,K,mid,x,r\n" + "".join(
            f"0.0,{mat},{strike},10.0,100.0,{rate}\n" for mat in (0.5, 3.0) for strike in (90.0, 100.0)
        ))
        cfg = write_cfg(tmp_path, "c.cfg", chain=chain, fit=fit)
        proc = run_python("import sys; from parabolic_sv.cli import main; sys.exit(main(sys.argv[1:]))",
                          "calibrate", "--config", cfg)
        assert proc.returncode == 2
        assert_one_error_line(proc.stderr, "discount factor")
        assert proc.stdout == ""

    def test_fit_a_report(self, tmp_path, capsys):
        # a above 2r keeps the modification factor above 1, so every synthetic
        # mid clears the intrinsic bound and the loader keeps all nine rows
        chain = write_chain(tmp_path / "chain.csv", a=0.0555, v_eff=0.0)
        cfg = write_cfg(tmp_path, "c.cfg", chain=chain, fit="a", r=0.0264, k=0.008)
        assert main(["calibrate", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["fit"] == "a"
        assert int(report["n_quotes"]) == 9
        assert abs(float(report["a_hat"]) - 0.0555) <= 5e-3
        assert float(report["sigma_bar_used"]) > 0.0
        for strike in ("90", "100", "110"):
            assert f"a_at_strike_{strike}" in report

    def test_fit_effective_report(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "chain.csv", a=0.06, sigma=0.21, v_eff=0.003)
        cfg = write_cfg(tmp_path, "c.cfg", chain=chain, fit="effective", seed=0)
        assert main(["calibrate", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["objective"]) <= 1e-8
        assert abs(float(report["v_eff_hat"]) - 0.003) <= 1e-4
        assert abs(float(report["sigma_bar_hat"]) - 0.21) <= 1e-4
        assert report["converged"] in ("true", "false")

    def test_fit_effective_deterministic(self, tmp_path, capsys):
        chain = write_chain(tmp_path / "chain.csv", a=0.06, sigma=0.21, v_eff=0.003)
        cfg = write_cfg(tmp_path, "c.cfg", chain=chain, fit="effective", seed=3)
        assert main(["calibrate", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["calibrate", "--config", cfg]) == 0
        assert capsys.readouterr().out == first

    def test_fit_effective_survives_extreme_random_start(self, tmp_path, capsys):
        # a random start of seed 7755 lands near k = 1.4e-4, a = -0.27, where the
        # modification factor is ~e^-444: finite, though its terms overflow
        chain = Path(__file__).resolve().parents[1] / "configs" / "chain_sample.csv"
        cfg = write_cfg(tmp_path, "c.cfg", chain=str(chain), fit="effective", seed=7755)
        assert main(["calibrate", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert abs(float(report["a_hat"]) - 0.0555) <= 1e-3


#: Each bundled config with the commands that run it; the fit = a variant of
#: calibrate.cfg is the one its comment offers.
BUNDLED_CONFIGS = [
    ("price.cfg", "price", None),
    ("price.cfg", "diagnose", None),
    ("simulate.cfg", "simulate", None),
    ("sweep.cfg", "simulate", None),
    ("calibrate.cfg", "calibrate", None),
    ("calibrate.cfg", "calibrate", ("fit = effective", "fit = a")),
]


class TestBundledConfigs:
    def test_every_bundled_config_is_listed(self):
        assert {name for name, _, _ in BUNDLED_CONFIGS} == {p.name for p in (ROOT / "configs").glob("*.cfg")}

    @pytest.mark.parametrize(
        "name, command, swap",
        BUNDLED_CONFIGS,
        ids=[f"{name}-{command}" + ("-fit_a" if swap else "") for name, command, swap in BUNDLED_CONFIGS],
    )
    def test_bundled_config_parses(self, tmp_path, monkeypatch, name, command, swap):
        monkeypatch.chdir(ROOT)  # relative paths in the configs are from the repository root
        path = ROOT / "configs" / name
        if swap:
            text = path.read_text()
            assert swap[0] in text
            path = tmp_path / name
            path.write_text(text.replace(*swap))
        cfg = load_run_config(path, command)
        assert (cfg.model is None) == (command == "calibrate")


class TestDiagnoseCommand:
    def test_all_checks_pass_at_defaults(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5)
        assert main(["diagnose", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["truncation"].startswith("PASS")
        assert report["time_coefficient"].startswith("PASS")
        assert report["quadrature"].startswith("PASS")
        assert report["phi_residual"].startswith("PASS")
        assert report["classical_pde_residual"].startswith("PASS")
        assert report["p0_pde_residual"].startswith("INFO")
        assert float(report["t_eval"]) == 0.125

    def test_wide_fast_factor_reports_each_check_once(self, tmp_path, capsys):
        # at nu = 1.5 the oracle's grid must carry the mass of f^2 p, which
        # sits 2 nu^2 right of the mean, or the phi residual row turns to WARN
        cfg = write_cfg(tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5, nu=1.5)
        assert main(["diagnose", "--config", cfg]) == 0
        text = capsys.readouterr().out
        keys = [line.split(None, 1)[0] for line in text.strip().splitlines()]
        assert len(keys) == len(set(keys))
        report = parse_report(text)
        assert report["quadrature"] == "PASS method=closed_form pieces=1"
        assert report["phi_residual"].startswith("PASS")

    def test_widest_fast_factor_passes_phi_residual(self, tmp_path, capsys):
        # the oracle's default grid grows with its width; on a fixed 32769
        # points the residual was 1.19e-6 at nu = 2.0
        cfg = write_cfg(tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5, nu=2.0)
        assert main(["diagnose", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["phi_residual"].startswith("PASS")

    @pytest.mark.parametrize("nu", [0.3, 2.0])
    def test_sample_table_passes_phi_residual(self, tmp_path, capsys, nu):
        # central differences across the table's knots read 3.17e-5 at
        # nu = 0.3 and 1.35e-4 at nu = 2.0
        cfg = write_cfg(
            tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5, nu=nu,
            vol_kind="tabulated", vol_table=SAMPLE_TABLE,
        )
        assert main(["diagnose", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["quadrature"] == "PASS method=piecewise_gaussian pieces=8"
        assert report["phi_residual"].startswith("PASS")

    def test_steep_table_passes_phi_residual(self, tmp_path, capsys):
        # the trapezoid rule's error at the knots of this table put the
        # centering mass at 2.47e-8 of sigma_bar^2, past CENTERING_TOL
        table = tmp_path / "steep.txt"
        table.write_text("-2.0 0.16\n-0.25 0.23\n0.0 0.49\n0.8 0.22\n")
        cfg = write_cfg(
            tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5, nu=0.4,
            vol_kind="tabulated", vol_table=table,
        )
        assert main(["diagnose", "--config", cfg]) == 0
        assert parse_report(capsys.readouterr().out)["phi_residual"].startswith("PASS")

    def test_truncation_row_reads_the_report(self, tmp_path, capsys, monkeypatch):
        # the bound rule lives in truncation_report; diagnose only prints it
        import parabolic_sv.cli as cli

        real = cli.truncation_report
        monkeypatch.setattr(
            cli, "truncation_report", lambda *a: dataclasses.replace(real(*a), within_bound=False)
        )
        cfg = write_cfg(tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5)
        assert main(["diagnose", "--config", cfg]) == 0
        assert parse_report(capsys.readouterr().out)["truncation"].startswith("FAIL")

    def test_overflowing_averages_warn_but_exit_zero(self, tmp_path, capsys):
        # at nu = 20 the exponential kind's V is beyond the float range
        cfg = write_cfg(tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5, nu=20.0)
        assert main(["diagnose", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["quadrature"].startswith("WARN")
        assert report["p0_pde_residual"].startswith("WARN")

    def test_flat_vol_residual_exactly_zero(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5,
            vol_kind="y_constant",
        )
        assert main(["diagnose", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["phi_residual"] == "PASS residual=0"
        assert float(report["v"]) == 0.0

    def test_singular_times_warn_but_exit_zero(self, tmp_path, capsys):
        # k t_eval = 1 trips the time-coefficient guard and k T > 2 trips the
        # horizon guard; both must degrade to WARN lines, not a crash
        cfg = write_cfg(tmp_path, "d.cfg", spot=100.0, strike=100.0, maturity=0.5, k=8.0)
        assert main(["diagnose", "--config", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["truncation"].startswith("SKIP")
        assert report["time_coefficient"].startswith("WARN")
        assert report["p0_pde_residual"].startswith("WARN")


# Runs cli.main on each argument list in this fresh interpreter, then prints
# the exit codes, each run's stdout, and which of numpy and scipy are loaded.
# Its second argument lists top-level packages to block: importing any of
# them fails.
_RUN_AND_LIST_LOADED = """
import contextlib, io, json, sys

blocked = set(json.loads(sys.argv[2]))

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in blocked:
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Block())
from parabolic_sv.cli import main
codes, stdout = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(main(argv))
    stdout.append(out.getvalue())
loaded = sorted({name.partition(".")[0] for name in sys.modules} & {"numpy", "scipy"})
print(json.dumps({"codes": codes, "loaded": loaded, "stdout": stdout}))
"""


def run_python(*args):
    """``python -c`` with the repository's ``src`` on the path."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    return subprocess.run(
        [sys.executable, "-c", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def run_fresh(*argvs, blocked=frozenset()):
    """Exit codes, stdout and loaded numpy/scipy of ``cli.main`` runs in a fresh
    interpreter where the top-level packages in ``blocked`` cannot be imported."""
    proc = run_python(_RUN_AND_LIST_LOADED, json.dumps(argvs), json.dumps(sorted(blocked)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestScipyImport:
    def test_pricing_commands_never_load_scipy(self, tmp_path):
        # configs/sweep.cfg runs the same modules as simulate.cfg, for ~25 s
        got = run_fresh(
            ["price", "--config", "configs/price.cfg"],
            ["diagnose", "--config", "configs/price.cfg"],
            ["simulate", "--config", "configs/simulate.cfg", "--paths-dump", str(tmp_path / "paths.csv")],
        )
        # diagnose's grid oracle and simulate build arrays: numpy, no scipy
        assert got["codes"] == [0, 0, 0] and got["loaded"] == ["numpy"]

    def test_calibrate_never_loads_scipy(self, tmp_path):
        got = run_fresh(["calibrate", "--config", "configs/calibrate.cfg", "--out", str(tmp_path / "fit.out")])
        assert got["codes"] == [0] and got["loaded"] == ["numpy"]
        report = dict(line.split("=", 1) for line in (tmp_path / "fit.out").read_text().splitlines())
        assert abs(float(report["a_hat"]) - 0.0555) <= 1e-3
        assert report["converged"] == "true"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # sweep.cfg is left out as above; calibrate.cfg runs with both fits
        fit_a = tmp_path / "fit_a.cfg"
        fit_a.write_text((ROOT / "configs" / "calibrate.cfg").read_text().replace("fit = effective", "fit = a"))
        got = run_fresh(
            ["price", "--config", "configs/price.cfg"],
            ["diagnose", "--config", "configs/price.cfg"],
            ["simulate", "--config", "configs/simulate.cfg"],
            ["calibrate", "--config", "configs/calibrate.cfg"],
            ["calibrate", "--config", str(fit_a)],
            blocked={"scipy"},
        )
        assert got["codes"] == [0] * 5 and "scipy" not in got["loaded"]


class TestNumpyImport:
    @pytest.fixture
    def price_configs(self, tmp_path):
        """configs/price.cfg once per vol kind."""
        base = (ROOT / "configs" / "price.cfg").read_text()
        extra = {
            "separable_exp": "vol_kind = separable_exp\n",
            "y_constant": "vol_kind = y_constant\n",
            "tabulated": "vol_kind = tabulated\nvol_table = configs/vol_table_sample.txt\n",
        }
        paths = []
        for kind, lines in extra.items():
            path = tmp_path / f"price_{kind}.cfg"
            path.write_text(base + lines)
            paths.append(str(path))
        return paths

    def test_price_runs_with_numpy_blocked(self, price_configs):
        argvs = [["price", "--config", path] for path in price_configs]
        blocked = run_fresh(*argvs, blocked={"numpy"})
        free = run_fresh(*argvs)
        assert blocked["codes"] == free["codes"] == [0, 0, 0]
        assert blocked["stdout"] == free["stdout"]
        assert all(out.startswith("command") for out in free["stdout"])
        assert free["loaded"] == []

    def test_package_prices_without_numpy(self):
        proc = run_python(
            "import sys\n"
            "import parabolic_sv as ps\n"
            "spec = ps.OptionSpec(spot=100.0, strike=100.0, t=0.0, maturity=0.5)\n"
            "print(ps.price_first_order(spec, ps.build_model(), ps.VolFunction.separable_exp()).total)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
        )
        assert proc.returncode == 0, proc.stderr
        total, numpy_modules = proc.stdout.splitlines()
        assert math.isfinite(float(total)) and numpy_modules == "[]"
