"""Validation behavior of the parameter containers."""
import dataclasses
import math

import numpy as np
import pytest

from parabolic_sv import (
    InvalidModelError,
    ModelParams,
    OptionSpec,
    build_model,
    parabolic_coefficients,
)
from parabolic_sv.params import _corr_quadratic, correlation_matrix


def corr_quadratic(rxy, rxz, ryz):
    # independent restatement of the positive-definiteness expression
    return 1.0 + 2.0 * rxy * rxz * ryz - rxy**2 - rxz**2 - ryz**2


def correlation_codes(rxy, rxz, ryz):
    """Violation codes build_model reports for a correlation triple; [] if valid."""
    try:
        build_model(rho_xy=rxy, rho_xz=rxz, rho_yz=ryz)
    except InvalidModelError as exc:
        return [v.code for v in exc.violations]
    return []


class TestValidateCorrelations:
    def test_identity_triple_returns_one(self):
        assert correlation_codes(0.0, 0.0, 0.0) == []
        assert _corr_quadratic(0.0, 0.0, 0.0) == 1.0

    def test_two_strong_correlations_rejected(self):
        # quadratic is 1 - 0.81 - 0.81 = -0.62
        assert corr_quadratic(0.9, 0.9, 0.0) == pytest.approx(-0.62, abs=1e-15)
        with pytest.raises(InvalidModelError, match="-0.62"):
            build_model(rho_xy=0.9, rho_xz=0.9, rho_yz=0.0)
        assert correlation_codes(0.9, 0.9, 0.0) == ["NonPositiveDefinite"]

    def test_mixed_triple_value(self):
        assert correlation_codes(-0.3, 0.2, 0.1) == []
        assert _corr_quadratic(-0.3, 0.2, 0.1) == pytest.approx(0.848, abs=1e-15)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, math.inf, math.nan])
    def test_out_of_range_coefficient_rejected(self, bad):
        # a non-finite value stops validation at the finiteness check
        want = "CorrelationOutOfRange" if math.isfinite(bad) else "NonFinite"
        assert correlation_codes(bad, 0.0, 0.0) == [want]

    def test_positive_iff_cholesky_exists(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            rxy, rxz, ryz = rng.uniform(-0.99, 0.99, size=3)
            mat = np.array([[1, rxy, rxz], [rxy, 1, ryz], [rxz, ryz, 1]], dtype=float)
            eigs = np.linalg.eigvalsh(mat)
            if eigs.min() > 1e-12:
                assert correlation_codes(rxy, rxz, ryz) == []
            elif eigs.min() < -1e-12:
                assert correlation_codes(rxy, rxz, ryz) == ["NonPositiveDefinite"]


class TestBuildModel:
    def test_defaults_are_valid(self):
        p = build_model()
        assert p.epsilon > 0 and p.nu > 0 and p.k > 0

    def test_spx_style_set_accepted(self):
        p = build_model(r=0.0264, k=0.008, a=0.05)
        assert (p.r, p.k, p.a) == (0.0264, 0.008, 0.05)

    def test_equal_arc_endpoints_rejected(self):
        with pytest.raises(InvalidModelError) as exc:
            build_model(z0=0.1, m_prime=0.1)
        assert any(v.code == "DegenerateSlowFactor" for v in exc.value.violations)

    def test_neutral_modification_constant_rejected(self):
        with pytest.raises(InvalidModelError) as exc:
            build_model(a=0.0528, r=0.0264)
        assert any(v.code == "ModificationDegenerate" for v in exc.value.violations)

    def test_all_violations_reported_not_just_first(self):
        with pytest.raises(InvalidModelError) as exc:
            build_model(epsilon=-1.0, nu=0.0, z0=0.1, m_prime=0.1, a=0.0528, r=0.0264)
        codes = {v.code for v in exc.value.violations}
        assert {
            "NonPositiveEpsilon",
            "NonPositiveNu",
            "DegenerateSlowFactor",
            "ModificationDegenerate",
        } <= codes

    def test_non_numeric_field_reported(self):
        with pytest.raises(InvalidModelError) as exc:
            build_model(epsilon="fast")
        assert any(v.code == "NonFinite" for v in exc.value.violations)

    def test_construction_success_implies_invariants(self):
        rng = np.random.default_rng(42)
        built = 0
        for _ in range(300):
            kw = dict(
                epsilon=rng.uniform(-0.1, 0.5),
                nu=rng.uniform(-0.1, 1.0),
                k=rng.uniform(-0.1, 1.0),
                eta=rng.uniform(-0.1, 0.5),
                rho_xy=rng.uniform(-1.1, 1.1),
                rho_xz=rng.uniform(-1.1, 1.1),
                rho_yz=rng.uniform(-1.1, 1.1),
                z0=rng.uniform(0.05, 0.4),
                m_prime=rng.uniform(0.05, 0.4),
                r=rng.uniform(0.0, 0.1),
                a=rng.uniform(-0.2, 0.2),
            )
            try:
                p = build_model(**kw)
            except InvalidModelError:
                continue
            built += 1
            assert p.epsilon > 0 and p.nu > 0 and p.k > 0 and p.eta >= 0
            assert _corr_quadratic(p.rho_xy, p.rho_xz, p.rho_yz) > 0
            assert p.z0 != p.m_prime and p.a != 2 * p.r
            np.linalg.cholesky(correlation_matrix(p))
        assert built > 20  # the sampler must exercise the success path

    def test_validation_is_pure(self):
        assert build_model(z0=0.25) == build_model(z0=0.25)

    def test_immutable(self):
        p = build_model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.epsilon = 0.5


class TestModelArc:
    def test_arc_is_the_one_formula_kept_per_model(self):
        model = build_model(z0=0.27, m_prime=0.11, k=0.02)
        assert model.arc == parabolic_coefficients(model)
        assert model.arc is model.arc

    def test_arc_is_not_a_field(self):
        # the CLI reads its config keys from these fields
        assert [f.name for f in dataclasses.fields(ModelParams)] == [
            "epsilon", "m", "nu", "k", "m_prime", "eta",
            "rho_xy", "rho_xz", "rho_yz", "z0", "r", "a",
        ]
        kept, fresh = build_model(), build_model()
        kept.arc
        assert kept == fresh and hash(kept) == hash(fresh)

    def test_replaced_model_gets_its_own_arc(self):
        model = build_model()
        model.arc
        moved = dataclasses.replace(model, z0=0.3)
        assert moved.arc == parabolic_coefficients(moved)
        assert moved.arc != model.arc


class TestModelHash:
    def test_equal_models_hash_equal(self):
        kept, fresh = build_model(z0=0.25), build_model(z0=0.25)
        assert hash(kept) == hash(fresh) == hash(dataclasses.astuple(fresh))
        assert {kept: 1}[fresh] == 1

    def test_hash_is_kept_on_the_instance_and_is_not_a_field(self):
        model = build_model()
        assert "_hash" not in vars(model)
        hash(model)
        assert vars(model)["_hash"] == hash(model)
        assert "_hash" not in {f.name for f in dataclasses.fields(ModelParams)}
        assert "_hash" not in repr(model)

    def test_replaced_model_gets_its_own_hash_and_arc(self):
        model = build_model()
        hash(model), model.arc
        moved = dataclasses.replace(model, a=0.07)
        assert "_hash" not in vars(moved) and "arc" not in vars(moved)
        assert hash(moved) == hash(dataclasses.astuple(moved)) != hash(model)
        assert moved.arc == parabolic_coefficients(moved)
        # a replacement equal to the model shares its hash
        assert hash(dataclasses.replace(model)) == hash(model)


class TestCorrelationMatrix:
    def test_shape_and_symmetry(self):
        mat = correlation_matrix(build_model(rho_xy=-0.2, rho_xz=0.1, rho_yz=0.05))
        assert mat.shape == (3, 3)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.ones(3))


class TestOptionSpec:
    def test_tau(self):
        spec = OptionSpec(spot=100.0, strike=90.0, t=0.25, maturity=1.0)
        assert spec.tau == 0.75

    def test_valuation_at_maturity_allowed(self):
        spec = OptionSpec(spot=100.0, strike=90.0, t=1.0, maturity=1.0)
        assert spec.tau == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(spot=-1.0, strike=100.0, t=0.0, maturity=1.0),
            dict(spot=100.0, strike=0.0, t=0.0, maturity=1.0),
            dict(spot=100.0, strike=100.0, t=2.0, maturity=1.0),
            dict(spot=100.0, strike=100.0, t=-0.1, maturity=1.0),
            dict(spot=math.nan, strike=100.0, t=0.0, maturity=1.0),
        ],
    )
    def test_bad_contract_rejected(self, kw):
        with pytest.raises(InvalidModelError):
            OptionSpec(**kw)
