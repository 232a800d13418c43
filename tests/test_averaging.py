"""Averaging pipeline: closed forms for the exponential kind, a brute-force
dense-grid rerun of the whole construction, and the Poisson-residual check."""
import math

import numpy as np
import pytest

from parabolic_sv import (
    AveragingCache,
    CenteringFailureError,
    InputDomainError,
    VolFunction,
    build_model,
    effective_params,
    phi_residual_check,
    sigma_bar,
    solve_phi_derivative,
)
from parabolic_sv.arrays import CENTERING_TOL, ORACLE_MAX_POINTS, _default_points, vol_values
from parabolic_sv.averaging import _tabulated_moments

EXP = VolFunction.separable_exp()
FLAT = VolFunction.y_constant()

TABLE_Y = (-1.2, -0.5, 0.0, 0.4, 1.1)
TABLE_F = (0.15, 0.18, 0.22, 0.27, 0.35)
# the 7-row smile of configs/vol_table_sample.txt
SMILE_Y = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
SMILE_F = (0.12, 0.14, 0.17, 0.22, 0.28, 0.34, 0.40)


def sigma_bar_exp_closed(z, m, nu):
    # sqrt(E[(z e^Y)^2]) with Y ~ N(m, nu^2)
    return z * math.exp(m + nu * nu)


def v_exp_closed(z, m, nu, rho):
    # the f = z e^y case admits a closed form for (nu rho / sqrt(2)) E[f phi']
    return (
        rho
        * z**3
        / (math.sqrt(2.0) * nu)
        * math.exp(3.0 * m + 2.5 * nu * nu)
        * (1.0 - math.exp(2.0 * nu * nu))
    )


def v_of(vol, z, m, nu, rho):
    return effective_params(vol, z, build_model(m=m, nu=nu, rho_xy=rho)).v


def brute_pipeline(f_of_y, z, m, nu, rho, n=400_001):
    """Rerun the whole construction on one dense grid, no module internals."""
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
    e_f_phi = trap(f * phi_p * p) / mass
    return math.sqrt(sb2), nu * rho / math.sqrt(2.0) * e_f_phi


class TestTabulatedMoments:
    def test_frozen_sample_table_value(self):
        # (E[f^2], E[f phi']) of the sample smile at nu = 0.5, m = 0
        got = _tabulated_moments(VolFunction.tabulated(SMILE_Y, SMILE_F), 0.0, 0.5)
        assert got == pytest.approx((0.05365491437756399, -0.011355110183318166), rel=1e-13, abs=0.0)

    def test_knots_beyond_the_oracle_grid(self):
        # every knot lies 10-12 nu from m, so the pieces right of the mean
        # take the upper-tail difference; on the brute force's +-8 nu grid
        # f is the line between the inner knots
        ys, fs = (-6.0, -5.0, 5.0, 6.0), (0.3, 0.2, 0.4, 0.25)
        vol = VolFunction.tabulated(ys, fs)
        want_rms, want_v = brute_pipeline(lambda y: np.interp(y, ys, fs), 0.2, 0.0, 0.5, -0.5)
        assert sigma_bar(vol, 0.2, 0.0, 0.5) == pytest.approx(want_rms, abs=1e-8)
        assert v_of(vol, 0.2, 0.0, 0.5, -0.5) == pytest.approx(want_v, rel=1e-6, abs=1e-10)

    def test_far_right_tail_keeps_relative_accuracy(self):
        # knots 8-10 nu right of m: V comes from mass 6e-16 beyond the first
        # knot, which a difference of lower CDFs near 1 loses (it reads
        # 1.98e-17).  Reference: mpmath quadrature at 50 digits, offline.
        vol = VolFunction.tabulated((4.0, 4.5, 5.0), (0.2, 0.3, 0.25))
        assert v_of(vol, 0.2, 0.0, 0.5, -0.5) == pytest.approx(1.8706232706099199e-18, rel=1e-9, abs=0.0)


class TestSigmaBar:
    def test_frozen_exponential_value(self):
        assert sigma_bar(EXP, 0.2, 0.0, 0.3) == pytest.approx(
            0.21883485674104, abs=1e-12
        )

    def test_exponential_closed_form_grid(self):
        for z in (0.1, 0.2, 0.35):
            for m in (0.0, -0.1):
                for nu in (0.2, 0.3, 0.5, 1.0, 1.5, 2.0):
                    assert sigma_bar(EXP, z, m, nu) == pytest.approx(
                        sigma_bar_exp_closed(z, m, nu), rel=1e-12
                    )

    def test_flat_kind_returns_z(self):
        assert sigma_bar(FLAT, 0.27, 0.0, 0.3) == 0.27

    def test_homogeneous_in_z(self):
        for c in (2.0, 5.0):
            base = sigma_bar(EXP, 0.15, 0.0, 0.3)
            assert sigma_bar(EXP, c * 0.15, 0.0, 0.3) == pytest.approx(
                c * base, rel=1e-12
            )

    def test_tabulated_matches_brute_force(self):
        vol = VolFunction.tabulated(TABLE_Y, TABLE_F)
        for nu in (0.3, 1.5, 2.0):
            want_rms, _ = brute_pipeline(
                lambda y: np.interp(y, TABLE_Y, TABLE_F), 0.2, 0.0, nu, 0.0
            )
            assert sigma_bar(vol, 0.2, 0.0, nu) == pytest.approx(want_rms, abs=1e-8), nu

    @pytest.mark.parametrize(
        "z,m,nu", [(0.0, 0.0, 0.3), (-0.1, 0.0, 0.3), (0.2, 0.0, 0.0), (math.nan, 0.0, 0.3)]
    )
    def test_bad_state_rejected(self, z, m, nu):
        with pytest.raises(InputDomainError):
            sigma_bar(EXP, z, m, nu)


class TestEffectiveV:
    def test_frozen_exponential_value(self):
        got = v_of(EXP, 0.2, 0.0, 0.3, -0.5)
        assert got == pytest.approx(0.0023285477331581, rel=1e-9)

    def test_exponential_closed_form_grid(self):
        for z in (0.1, 0.2, 0.35):
            for m in (0.0, -0.1):
                for nu in (0.2, 0.3, 0.5, 1.0, 1.5, 2.0):
                    for rho in (-0.5, 0.3):
                        got = v_of(EXP, z, m, nu, rho)
                        assert got == pytest.approx(
                            v_exp_closed(z, m, nu, rho), rel=1e-12
                        ), (z, m, nu, rho)

    def test_cubic_in_z(self):
        base = v_of(EXP, 0.1, 0.0, 0.3, -0.4)
        for c in (2.0, 5.0):
            assert v_of(EXP, c * 0.1, 0.0, 0.3, -0.4) == pytest.approx(
                c**3 * base, rel=1e-8
            )

    def test_zero_correlation_is_exact_zero(self):
        assert v_of(EXP, 0.2, 0.0, 0.3, 0.0) == 0.0

    def test_flat_kind_is_exact_zero(self):
        assert v_of(FLAT, 0.2, 0.0, 0.3, -0.5) == 0.0

    def test_exponential_matches_brute_force(self):
        _, want = brute_pipeline(lambda y: 0.2 * np.exp(y), 0.2, 0.0, 0.3, -0.5)
        assert v_of(EXP, 0.2, 0.0, 0.3, -0.5) == pytest.approx(want, rel=1e-8)

    def test_tabulated_matches_brute_force(self):
        vol = VolFunction.tabulated(TABLE_Y, TABLE_F)
        for nu in (0.3, 1.5, 2.0):
            _, want = brute_pipeline(
                lambda y: np.interp(y, TABLE_Y, TABLE_F), 0.2, 0.0, nu, -0.5
            )
            got = v_of(vol, 0.2, 0.0, nu, -0.5)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-10), nu


class TestPhiSolution:
    def test_centering_residual_recorded_small(self):
        sol = solve_phi_derivative(EXP, 0.2, 0.0, 0.3)
        assert abs(sol.centering_residual) <= 1e-8
        assert sol.n_points >= 8193

    def test_inconsistent_sigma_bar_rejected(self):
        sb2 = sigma_bar(EXP, 0.2, 0.0, 0.3) ** 2
        with pytest.raises(CenteringFailureError):
            solve_phi_derivative(EXP, 0.2, 0.0, 0.3, sigma_bar_sq=2.0 * sb2)

    def test_residual_small_for_exponential(self):
        # at nu = 1.5 the weight f^2 p sits 2 nu^2 right of the mean, so this
        # also checks that the grid carries the whole of E[f^2]
        for nu in (0.3, 1.5):
            assert phi_residual_check(EXP, 0.2, 0.0, nu) <= 1e-6, nu

    def test_residual_small_for_tabulated(self):
        # at nu = 0.1 the knot 0.4 falls on a grid point to rounding
        vol = VolFunction.tabulated(TABLE_Y, TABLE_F)
        for nu in (0.1, 0.3, 2.0):
            assert 0.0 < phi_residual_check(vol, 0.2, 0.0, nu) <= 1e-6, nu

    def test_residual_exact_zero_for_flat(self):
        assert phi_residual_check(FLAT, 0.2, 0.0, 0.3) == 0.0

    def test_default_grid_keeps_the_unit_nu_spacing(self):
        # 32769 points up to nu = 1; wider grids get more points, never a
        # coarser spacing than the same kind's grid at nu = 1
        smile = VolFunction.tabulated(SMILE_Y, SMILE_F)
        for vol in (EXP, smile):
            unit = solve_phi_derivative(vol, 0.2, 0.0, 1.0).y
            unit_step = (unit[-1] - unit[0]) / 32768
            for nu in (0.3, 1.0, 1.5, 2.0):
                y = solve_phi_derivative(vol, 0.2, 0.0, nu).y
                assert y.size >= 32769, (vol.kind, nu)
                assert np.max(np.diff(y)) <= unit_step * (1.0 + 1e-12), (vol.kind, nu)
        # an explicit count still wins, and the default stays bounded
        assert solve_phi_derivative(EXP, 0.2, 0.0, 2.0, n_points=8193).n_points == 8193
        assert _default_points(smile, 0.0, 100.0) == ORACLE_MAX_POINTS

    def test_default_grid_centres_the_smile_at_wide_nu(self):
        # on 8193 points the trapezoid error at the table's kinks pushed the
        # centering mass past CENTERING_TOL from nu = 1.5 on
        smile = VolFunction.tabulated(SMILE_Y, SMILE_F)
        for nu in (1.5, 2.0):
            sb2 = sigma_bar(smile, 0.2, 0.0, nu) ** 2
            sol = solve_phi_derivative(smile, 0.2, 0.0, nu)
            assert abs(sol.centering_residual) <= CENTERING_TOL * sb2, nu
            assert 0.0 < phi_residual_check(smile, 0.2, 0.0, nu) <= 1e-6, nu

    def test_default_grid_resolves_exponential_at_wide_nu(self):
        # on 32769 points the residual was 1.19e-6 at nu = 2.0
        for nu in (1.5, 2.0):
            sol = solve_phi_derivative(EXP, 0.2, 0.0, nu)
            assert abs(sol.centering_residual) <= CENTERING_TOL * sigma_bar(EXP, 0.2, 0.0, nu) ** 2, nu
            assert phi_residual_check(EXP, 0.2, 0.0, nu) <= 1e-6, nu


class TestEffectiveParams:
    def test_bundles_both_quantities(self):
        eff = effective_params(EXP, 0.2, build_model(rho_xy=-0.5))
        assert eff.sigma_bar == pytest.approx(sigma_bar_exp_closed(0.2, 0.0, 0.3), rel=1e-10)
        assert eff.v == pytest.approx(v_exp_closed(0.2, 0.0, 0.3, -0.5), rel=1e-9)
        assert eff.z == 0.2
        # exact expressions: one closed form, or one piece per table interval
        # plus the two clamped ends, with no refinement error
        assert (eff.method, eff.n_nodes, eff.refine_delta) == ("closed_form", 1, 0.0)
        tab = effective_params(VolFunction.tabulated(TABLE_Y, TABLE_F), 0.2, build_model(rho_xy=-0.5))
        assert (tab.method, tab.n_nodes, tab.refine_delta) == ("piecewise_gaussian", 6, 0.0)

    def test_cache_returns_same_object(self):
        cache = AveragingCache()
        model = build_model(rho_xy=-0.5)
        first = effective_params(EXP, 0.2, model, cache=cache)
        second = effective_params(EXP, 0.2, model, cache=cache)
        assert second is first
        # the vol function keys the entry by value: an equal table shares it,
        # another table does not
        table = VolFunction.tabulated(TABLE_Y, TABLE_F)
        tab = effective_params(table, 0.2, model, cache=cache)
        assert effective_params(VolFunction.tabulated(TABLE_Y, TABLE_F), 0.2, model, cache=cache) is tab
        other = VolFunction.tabulated(TABLE_Y, TABLE_F[:-1] + (0.36,))
        assert effective_params(other, 0.2, model, cache=cache).sigma_bar != tab.sigma_bar


class TestVolFunction:
    def test_tabulated_clamps_outside_range(self):
        vol = VolFunction.tabulated(TABLE_Y, TABLE_F)
        assert vol_values(vol, -5.0, 0.2) == TABLE_F[0]
        assert vol_values(vol, 5.0, 0.2) == TABLE_F[-1]

    def test_tabulated_interpolates_linearly(self):
        vol = VolFunction.tabulated((0.0, 1.0), (0.2, 0.4))
        assert vol_values(vol, 0.25, 0.9) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize(
        "y,f",
        [
            ((0.0,), (0.2,)),  # single row
            ((0.0, 0.0), (0.2, 0.3)),  # not strictly increasing
            ((1.0, 0.0), (0.2, 0.3)),  # decreasing
            ((0.0, 1.0), (0.2, -0.3)),  # negative value
            ((0.0, 1.0), (0.2, math.inf)),  # non-finite
            ((0.0, math.nan, 1.0), (0.2, 0.3, 0.4)),  # NaN y: every order test passes it
            ((0.0, 1.0), (math.nan, 0.3)),  # NaN f: every sign test passes it
            ((0.0, 1.0), (0.2, 0.0)),  # zero value
            ((0.0, 1.0, 2.0), (0.2, 0.3)),  # mismatched lengths
        ],
    )
    def test_bad_table_rejected(self, y, f):
        with pytest.raises(InputDomainError):
            VolFunction.tabulated(y, f)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputDomainError):
            VolFunction(kind="quadratic")

    def test_from_table_file(self, tmp_path):
        path = tmp_path / "vol.txt"
        path.write_text(
            "# y  f\n"
            "\n"
            "-1.0, 0.15\n"
            "0.0   0.22  # at the mean\n"
            "1.0 0.35\n"
        )
        vol = VolFunction.from_table_file(path)
        assert vol.y_nodes == (-1.0, 0.0, 1.0)
        assert vol.f_values == (0.15, 0.22, 0.35)

    def test_from_table_file_bad_line(self, tmp_path):
        path = tmp_path / "vol.txt"
        path.write_text("0.0 0.2\n1.0 0.3 0.4\n")
        with pytest.raises(InputDomainError, match="line 2"):
            VolFunction.from_table_file(path)

    def test_from_table_file_empty(self, tmp_path):
        path = tmp_path / "vol.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(InputDomainError):
            VolFunction.from_table_file(path)
