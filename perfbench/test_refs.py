"""Tests of the benchmark's own references, inputs and report plumbing.

    python3 -m pytest perfbench/test_refs.py -q

The references are checked against textbook values and against numerical
integration done here with numpy, never against the program.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import layers
import refs
import run

HERE = Path(__file__).resolve().parent


def test_norm_cdf_textbook_values():
    assert refs.norm_cdf(0.0) == 0.5
    assert refs.norm_cdf(1.96) == pytest.approx(0.9750021048517795, rel=1e-15)
    assert refs.norm_cdf(-1.0) == pytest.approx(0.15865525393145707, rel=1e-15)


def test_bs_call_hull_example_and_parity():
    # Hull, Options, Futures and Other Derivatives: S=42, K=40, r=10%, sigma=20%, T=0.5 -> c = 4.76
    c = refs.bs_call(42.0, 40.0, 0.1, 0.2, 0.5)
    assert c == pytest.approx(4.7594, abs=1e-4)
    d1 = (math.log(42 / 40) + (0.1 + 0.02) * 0.5) / (0.2 * math.sqrt(0.5))
    d2 = d1 - 0.2 * math.sqrt(0.5)
    put = 40 * math.exp(-0.05) * refs.norm_cdf(-d2) - 42 * refs.norm_cdf(-d1)
    assert put == pytest.approx(0.8086, abs=1e-4)
    assert c - put == pytest.approx(42 - 40 * math.exp(-0.05), rel=1e-14)


def test_bs_call_degenerate_cases_are_the_forward_bound():
    assert refs.bs_call(100.0, 90.0, 0.05, 0.0, 1.0) == pytest.approx(100 - 90 * math.exp(-0.05))
    assert refs.bs_call(100.0, 110.0, 0.05, 0.2, 0.0) == 0.0


@pytest.mark.parametrize("strike", [80.0, 100.0, 125.0])
def test_d1d2_matches_finite_differences(strike):
    r, sig, tau, x = 0.03, 0.25, 0.7, 100.0
    h = 0.05

    def gamma_term(s):  # s^2 C_ss by central differences
        c = lambda v: refs.bs_call(v, strike, r, sig, tau)
        return s * s * (c(s + h) - 2 * c(s) + c(s - h)) / (h * h)

    numeric = x * (gamma_term(x + h) - gamma_term(x - h)) / (2 * h)
    assert refs.d1d2(x, strike, r, sig, tau) == pytest.approx(numeric, rel=1e-3, abs=1e-3)


def test_modification_and_time_factor_limits():
    assert refs.mod_factor(0.3, 2 * 0.0264, 0.0264, 0.008) == pytest.approx(1.0, abs=1e-15)
    assert refs.time_factor(0.7, 0.7, 0.01) == 0.0


def test_arc_is_second_order_taylor_of_ou_mean():
    z0, mp, k = 0.2, 0.1, 0.3
    for t in (0.1, 0.5, 1.0):
        exact = mp + (z0 - mp) * math.exp(-k * t)
        assert abs(exact - refs.arc_z(t, z0, mp, k)) <= abs(z0 - mp) * (k * t) ** 3 / 6 * (1 + 1e-12)


def _brute_averaging(f_of_y, m, nu, rho, n=400_001):
    """Dense-grid Poisson construction: sigma_bar^2 = E f^2, phi' by integrating factor."""
    y = np.linspace(m - 9 * nu, m + 9 * nu, n)
    p = np.exp(-0.5 * ((y - m) / nu) ** 2) / (nu * math.sqrt(2 * math.pi))
    f = f_of_y(y)
    sb2 = np.trapezoid(f * f * p, y)
    src = (f * f - sb2) * p
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (src[1:] + src[:-1]) * np.diff(y))])
    phi_p = cum / (nu * nu * p)
    return math.sqrt(sb2), nu * rho / math.sqrt(2) * np.trapezoid(f * phi_p * p, y)


def test_separable_exp_closed_forms_against_quadrature():
    z, m, nu, rho = 0.2, 0.05, 0.3, -0.4
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    ey = m + math.sqrt(2) * nu * nodes
    e_f2 = float(weights @ (z * np.exp(ey)) ** 2) / math.sqrt(math.pi)
    sb, v = refs.averaged("separable_exp", z, m, nu, rho)
    assert sb == pytest.approx(math.sqrt(e_f2), rel=1e-13)
    want_sb, want_v = _brute_averaging(lambda y: z * np.exp(y), m, nu, rho)
    assert sb == pytest.approx(want_sb, rel=1e-8)
    assert v == pytest.approx(want_v, rel=1e-6)


def test_tabulated_exact_integration_against_dense_grid():
    ys, fs = inputs.TABLE_Y, inputs.TABLE_F
    for m, nu in ((0.0, 0.3), (0.1, 0.9)):
        sb, v = refs.averaged("tabulated", 0.2, m, nu, -0.5, (ys, fs))
        want_sb, want_v = _brute_averaging(lambda y: np.interp(y, ys, fs), m, nu, -0.5)
        assert sb == pytest.approx(want_sb, rel=1e-9)
        assert v == pytest.approx(want_v, rel=1e-6)


def test_flat_vol_has_no_correction():
    assert refs.averaged("y_constant", 0.3, 0.0, 0.5, -0.5) == (0.3, 0.0)
    sb, v = refs.averaged("tabulated", 0.2, 0.0, 0.4, -0.5, ((-1.0, 1.0), (0.25, 0.25)))
    assert sb == pytest.approx(0.25, rel=1e-15)
    assert abs(v) < 1e-15


def test_first_order_assembly():
    model = inputs.model_dict()
    got = refs.first_order(100.0, 100.0, 0.0, 0.5, model, "separable_exp")
    assert got["total"] == pytest.approx(
        got["mod_factor"] * (got["q0"] + math.sqrt(model["epsilon"]) * got["time_factor"] * got["v"] * got["d1d2"]),
        rel=1e-15)
    assert got["sigma_bar"] == pytest.approx(0.2 * math.exp(0.09), rel=1e-15)


def test_deterministic_variance_of_a_constant_factor():
    model = inputs.model_dict(z0=0.1, m_prime=0.1, k=0.5)
    assert refs.deterministic_variance(model, 0.0, 0.5, 500) == pytest.approx(0.01 * 0.5, rel=1e-12)


def test_implied_vol_round_trip():
    price = refs.bs_call(100.0, 95.0, 0.02, 0.31, 0.8)
    assert refs.implied_vol(price, 100.0, 95.0, 0.02, 0.8) == pytest.approx(0.31, rel=1e-12)


def test_a_chain_is_priced_by_the_one_parameter_model():
    import random

    truth, quotes = inputs.a_chain(random.Random(3))
    assert refs.a_fit_sse(quotes, truth["a"], truth["k"], inputs.RATE, truth["sigma_bar"]) < 1e-25
    # a > 2r keeps every quote above its discounted intrinsic value
    for t, mat, strike, mid, spot, rate in quotes:
        assert mid > max(spot - strike * math.exp(-rate * (mat - t)), 0.0)


def test_inputs_repeat_per_seed_and_faults_do_not_depend_on_it():
    assert inputs.price_scan(5) == inputs.price_scan(5)
    assert inputs.mc_crosscheck(5) == inputs.mc_crosscheck(5)
    a, b = inputs.price_scan(5), inputs.price_scan(6)
    assert a != b
    assert [g for g in a if g["fault"]] == [g for g in b if g["fault"]]
    assert sum(len(g["ladder"]) for g in a) == sum(len(g["ladder"]) for g in b) == 252


def test_importtime_parse_counts_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        10 |         10 |     numpy.linalg",
        "import time:        20 |        400 |   scipy.special",
        "import time:         5 |        600 | parabolic_sv.black_scholes",
        "import time:        30 |         30 | argparse",
    ])
    assert layers.importtime_scipy_s(text) == pytest.approx(550e-6)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "price_scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
