"""Arc coefficients, truncation bound, and the singular time coefficient."""
import math

import numpy as np
import pytest

from parabolic_sv import (
    SingularTimeError,
    build_model,
    gamma_coefficient,
    l2_time_coefficient_check,
    parabolic_coefficients,
    truncation_report,
)


def ou_mean(z0, m_prime, k, t):
    return m_prime + (z0 - m_prime) * math.exp(-k * t)


class TestCoefficients:
    def test_small_rate_example(self):
        arc = parabolic_coefficients(build_model(z0=0.3, m_prime=0.2, k=0.008))
        assert arc.a_coef == pytest.approx(3.2e-6, rel=1e-14)
        assert arc.b_coef == pytest.approx(-8.0e-4, rel=1e-14)
        assert arc.c_coef == 0.3

    def test_unit_rate_example(self):
        arc = parabolic_coefficients(build_model(z0=0.2, m_prime=0.1, k=1.0))
        assert arc.a_coef == pytest.approx(0.05, rel=1e-14)
        assert arc.b_coef == pytest.approx(-0.1, rel=1e-14)
        assert arc.c_coef == 0.2

    def test_coefficient_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z0, mp = rng.uniform(0.05, 0.5, size=2)
            k = rng.uniform(1e-3, 1.0)
            if z0 == mp:
                continue
            arc = parabolic_coefficients(build_model(z0=z0, m_prime=mp, k=k))
            assert arc.b_coef == pytest.approx(-k * (z0 - mp), rel=1e-15)
            assert arc.a_coef == pytest.approx(-arc.b_coef * k / 2.0, rel=1e-15)
            assert arc.c_coef == z0


class TestValue:
    def test_starts_at_z0(self):
        arc = parabolic_coefficients(build_model(z0=0.27, m_prime=0.1))
        assert arc.value(0.0) == 0.27

    def test_one_year_example(self):
        arc = parabolic_coefficients(build_model(z0=0.3, m_prime=0.2, k=0.008))
        assert arc.value(1.0) == pytest.approx(0.2992032, abs=1e-12)

    def test_returns_to_start_at_twice_mixing_horizon(self):
        # A (2/k)^2 + B (2/k) + C = 2 gap - 2 gap + z0
        for k in (0.008, 0.1, 0.7):
            arc = parabolic_coefficients(build_model(z0=0.2, m_prime=0.1, k=k))
            assert arc.value(2.0 / k) == pytest.approx(0.2, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        arc = parabolic_coefficients(build_model(z0=0.3, m_prime=0.12, k=0.05))
        ts = np.linspace(0.0, 5.0, 17)
        vec = arc.value(ts)
        assert np.array_equal(vec, np.array([arc.value(t) for t in ts]))


class TestTruncation:
    def test_tenth_of_mixing_horizon(self):
        # unit gap, k t = 0.1: |e^{-0.1} - 0.905| against 0.1^3 / 6
        p = build_model(z0=1.1, m_prime=0.1, k=0.1)
        rep = truncation_report(p, 1.0)
        assert rep.bound_applies
        assert rep.exact_mean == pytest.approx(ou_mean(1.1, 0.1, 0.1, 1.0), rel=1e-15)
        assert rep.abs_error == pytest.approx(1.6258196404e-4, abs=1e-13)
        assert rep.bound == pytest.approx(1e-3 / 6.0, rel=1e-14)
        assert rep.abs_error <= rep.bound
        assert rep.within_bound

    def test_half_of_mixing_horizon(self):
        p = build_model(z0=0.2, m_prime=0.1, k=1.0)
        rep = truncation_report(p, 0.5)
        assert rep.bound == pytest.approx(0.1 * 0.125 / 6.0, rel=1e-14)
        assert rep.abs_error <= rep.bound
        assert rep.within_bound

    def test_bound_holds_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z0, mp = rng.uniform(0.02, 0.6, size=2)
            if z0 == mp:
                continue
            k = rng.uniform(1e-3, 2.0)
            t = rng.uniform(0.0, 1.0) / k  # keeps k t <= 1
            rep = truncation_report(build_model(z0=z0, m_prime=mp, k=k), t)
            assert rep.bound_applies
            assert rep.abs_error <= rep.bound * (1.0 + 1e-12) + 1e-15
            assert rep.within_bound
            assert rep.bound == pytest.approx(abs(z0 - mp) * (k * t) ** 3 / 6.0, rel=1e-12)

    def test_beyond_mixing_horizon_only_reports(self):
        rep = truncation_report(build_model(z0=0.2, m_prime=0.1, k=1.0), 3.0)
        assert not rep.bound_applies  # no claim made there
        assert not rep.within_bound

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            truncation_report(build_model(), -0.5)


class TestGammaCoefficient:
    def test_value_at_zero_is_one(self):
        assert gamma_coefficient(0.5, 0.0) == 1.0

    def test_tenth_of_mixing_horizon(self):
        # (1 - 0.1 + 0.005) / 0.9
        assert gamma_coefficient(1.0, 0.1) == pytest.approx(0.905 / 0.9, rel=1e-15)

    def test_singular_at_unit_kt(self):
        with pytest.raises(SingularTimeError):
            gamma_coefficient(1.0, 1.0)

    def test_floor_guards_near_singularity(self):
        with pytest.raises(SingularTimeError):
            gamma_coefficient(1.0, 1.0 - 5e-13)
        assert math.isfinite(gamma_coefficient(1.0, 1.0 - 1e-6))

    def test_square_form_identity(self):
        # 1 + gamma = (kt - 2)^2 / (2 (1 - kt)) on both sides of the pole
        rng = np.random.default_rng(17)
        for kt in np.concatenate([rng.uniform(0.0, 0.9, 50), rng.uniform(1.1, 3.0, 50)]):
            got = 1.0 + gamma_coefficient(1.0, float(kt))
            want = (kt - 2.0) ** 2 / (2.0 * (1.0 - kt))
            assert got == pytest.approx(want, rel=1e-12)


class TestTimeCoefficientConsistency:
    def test_both_forms_equal_two_at_start(self):
        direct, gamma_form = l2_time_coefficient_check(build_model(), 0.0)
        assert direct == 2.0
        assert gamma_form == 2.0

    def test_example_agreement(self):
        p = build_model(z0=0.3, m_prime=0.2, k=0.008)
        direct, gamma_form = l2_time_coefficient_check(p, 10.0)
        assert abs(direct - gamma_form) <= 1e-12
        assert gamma_form == 1.0 + gamma_coefficient(0.008, 10.0)

    def test_agreement_on_random_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            z0, mp = rng.uniform(0.05, 0.5, size=2)
            if z0 == mp:
                continue
            k = rng.uniform(1e-3, 1.0)
            t = rng.uniform(0.0, 0.9) / k
            direct, gamma_form = l2_time_coefficient_check(
                build_model(z0=z0, m_prime=mp, k=k), t
            )
            assert direct == pytest.approx(gamma_form, rel=1e-10)

    def test_singular_time_propagates(self):
        with pytest.raises(SingularTimeError):
            l2_time_coefficient_check(build_model(k=0.5), 2.0)
