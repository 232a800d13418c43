"""Model, contract and simulation parameter containers with validation.

The model has three risk-neutral factors: the asset X, a fast mean-reverting
volatility factor Y (Ornstein-Uhlenbeck, long-run N(m, nu^2), mixing time
epsilon) and a slow factor Z (Ornstein-Uhlenbeck, reversion rate k, level
m_prime, vol-of-vol eta).  Instantaneous volatility is f(Y_t, Z_t) for a
user-chosen positive function f.

Construction goes through :func:`build_model`, which aggregates *every*
violated invariant instead of stopping at the first one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import ConfigError, InputDomainError, InvalidModelError, Violation

__all__ = [
    "ModelParams",
    "OptionSpec",
    "SimConfig",
    "Z_SCHEMES",
    "build_model",
    "correlation_matrix",
    "discount_factor",
]


def _corr_quadratic(rho_xy: float, rho_xz: float, rho_yz: float) -> float:
    """``1 + 2 rho_xy rho_xz rho_yz - rho_xy^2 - rho_xz^2 - rho_yz^2``.

    The determinant of the 3x3 correlation matrix: with each coefficient in
    (-1, 1), the matrix is positive definite exactly when it is positive.
    """
    return (
        1.0
        + 2.0 * rho_xy * rho_xz * rho_yz
        - rho_xy * rho_xy
        - rho_xz * rho_xz
        - rho_yz * rho_yz
    )


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters.

    Attributes:
        epsilon: mixing time of the fast factor; > 0.
        m: long-run mean of the fast factor.
        nu: long-run standard deviation of the fast factor; > 0.
        k: mean-reversion rate of the slow factor; > 0.
        m_prime: long-run mean of the slow factor.
        eta: vol-of-vol of the slow factor; >= 0 (0 freezes Z on its mean path).
        rho_xy, rho_xz, rho_yz: driving-noise correlations, each in (-1, 1)
            and jointly positive definite.
        z0: slow factor at time zero; must differ from m_prime or the
            parabolic arc degenerates to a constant.
        r: risk-free rate.
        a: empirical modification constant in the price adjustment; must
            differ from 2*r or the adjustment collapses to unity.

    ``arc`` is the model's parabolic slow-factor arc,
    :func:`~parabolic_sv.slow_factor.parabolic_coefficients` of the model,
    computed on first use and kept on the instance.  The hash of the fields
    is kept the same way, so a cache key holding the model hashes in O(1).
    Neither is a field, so ``==``, ``replace`` and the fields a config reads
    ignore them, and a replaced model computes its own.  The fields are
    numbers, whose hashes do not change from process to process.
    """

    epsilon: float = 0.01
    m: float = 0.0
    nu: float = 0.3
    k: float = 0.008
    m_prime: float = 0.1
    eta: float = 0.0
    rho_xy: float = -0.2
    rho_xz: float = 0.0
    rho_yz: float = 0.0
    z0: float = 0.2
    r: float = 0.0264
    a: float = 0.05

    def __post_init__(self):
        violations = _model_violations(self)
        if violations:
            raise InvalidModelError(violations)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    @cached_property
    def arc(self) -> "ParabolicSlowFactor":
        from .slow_factor import parabolic_coefficients  # slow_factor imports this module

        return parabolic_coefficients(self)


def _model_violations(p: ModelParams) -> list[Violation]:
    out: list[Violation] = []
    bad_fields = []
    for f in fields(ModelParams):
        val = getattr(p, f.name)
        if not isinstance(val, (int, float)) or not math.isfinite(float(val)):
            bad_fields.append(f.name)
            out.append(Violation("NonFinite", f"{f.name} = {val!r} is not a finite number"))
    if bad_fields:
        return out  # remaining checks would be meaningless

    if p.epsilon <= 0.0:
        out.append(Violation("NonPositiveEpsilon", f"epsilon = {p.epsilon:g} must be > 0"))
    if p.nu <= 0.0:
        out.append(Violation("NonPositiveNu", f"nu = {p.nu:g} must be > 0"))
    if p.k <= 0.0:
        out.append(Violation("NonPositiveK", f"k = {p.k:g} must be > 0"))
    if p.eta < 0.0:
        out.append(Violation("NegativeEta", f"eta = {p.eta:g} must be >= 0"))

    corr_ok = True
    for name in ("rho_xy", "rho_xz", "rho_yz"):
        rho = getattr(p, name)
        if abs(rho) >= 1.0:
            corr_ok = False
            out.append(Violation("CorrelationOutOfRange", f"{name} = {rho:g} outside (-1, 1)"))
    if corr_ok:
        quad = _corr_quadratic(p.rho_xy, p.rho_xz, p.rho_yz)
        if quad <= 0.0:
            out.append(
                Violation(
                    "NonPositiveDefinite",
                    f"correlation quadratic = {quad:.6g} <= 0; matrix not positive definite",
                )
            )

    if p.z0 == p.m_prime:
        out.append(
            Violation(
                "DegenerateSlowFactor",
                f"z0 = m_prime = {p.z0:g}; the slow-factor arc degenerates to a constant",
            )
        )
    if p.a == 2.0 * p.r:
        out.append(
            Violation(
                "ModificationDegenerate",
                f"a = 2*r = {p.a:g}; the price modification collapses to unity",
            )
        )
    return out


def build_model(**kwargs) -> ModelParams:
    """Build a validated :class:`ModelParams` from raw keyword values.

    Every violated invariant is reported, not only the first one found.

    Raises:
        InvalidModelError: with the full list of violations.
    """
    clean = {}
    for name, val in kwargs.items():
        try:
            clean[name] = float(val)
        except (TypeError, ValueError):
            clean[name] = val  # let the field validation report it
    return ModelParams(**clean)


def correlation_matrix(p: ModelParams) -> "numpy.ndarray":
    """3x3 correlation matrix of the (W^x, W^y, W^z) driving noises."""
    import numpy as np

    return np.array(
        [
            [1.0, p.rho_xy, p.rho_xz],
            [p.rho_xy, 1.0, p.rho_yz],
            [p.rho_xz, p.rho_yz, 1.0],
        ]
    )


def discount_factor(rate: float, tau: float) -> float:
    """``exp(-rate * tau)``, which must be a positive float.

    Raises:
        InputDomainError: when it overflows or underflows to 0; a value
            discounted by it would be inf, nan or 0.
    """
    try:
        disc = math.exp(-rate * tau)
    except OverflowError:
        disc = math.inf
    if not 0.0 < disc < math.inf:
        raise InputDomainError(
            f"discount factor exp(-r * tau) = {disc:g} at r = {rate!r}, tau = {tau!r} "
            "is not a positive float"
        )
    return disc


@dataclass(frozen=True)
class OptionSpec:
    """European call contract and valuation date.

    Attributes:
        spot: asset level at valuation; > 0.
        strike: exercise price; > 0.
        t: valuation time in years; 0 <= t <= maturity.
        maturity: exercise time in years.
    """

    spot: float
    strike: float
    t: float
    maturity: float

    def __post_init__(self):
        out: list[Violation] = []
        for name in ("spot", "strike", "t", "maturity"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or not math.isfinite(float(val)):
                out.append(Violation("NonFinite", f"{name} = {val!r} is not a finite number"))
        if not out:
            if self.spot <= 0.0:
                out.append(Violation("NonPositiveSpot", f"spot = {self.spot:g} must be > 0"))
            if self.strike <= 0.0:
                out.append(Violation("NonPositiveStrike", f"strike = {self.strike:g} must be > 0"))
            if not 0.0 <= self.t <= self.maturity:
                out.append(
                    Violation(
                        "BadTimes",
                        f"need 0 <= t <= maturity, got t = {self.t:g}, maturity = {self.maturity:g}",
                    )
                )
        if out:
            raise InvalidModelError(out)

    @property
    def tau(self) -> float:
        """Time to exercise from the valuation date."""
        return self.maturity - self.t


#: The slow-factor schemes: a simulated OU path, or frozen on its parabolic arc.
Z_SCHEMES = ("ou", "parabolic")


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    ``steps_per_year`` fixes the grid density (step = horizon / total steps,
    with total steps = round(steps_per_year * horizon), at least 1); the
    default 2000/year resolves the fast scale epsilon = 0.01 with 20 steps.
    The fast factor starts at its long-run mean m.  ``antithetic`` mirrors
    the raw normal draws of the second half of every Monte Carlo block;
    ``n_paths`` must then be even.
    """

    n_paths: int
    steps_per_year: int = 2000
    seed: int = 0
    z_scheme: str = "ou"
    antithetic: bool = False
    n_workers: int = 1

    def __post_init__(self):
        if not isinstance(self.n_paths, int) or self.n_paths < 2:
            raise ConfigError(f"n_paths = {self.n_paths!r} must be an integer >= 2")
        if not isinstance(self.steps_per_year, int) or self.steps_per_year < 1:
            raise ConfigError(f"steps_per_year = {self.steps_per_year!r} must be an integer >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed = {self.seed!r} must be a non-negative integer")
        if self.z_scheme not in Z_SCHEMES:
            raise ConfigError(f"z_scheme = {self.z_scheme!r} must be 'ou' or 'parabolic'")
        if self.antithetic and self.n_paths % 2:
            raise ConfigError("antithetic sampling needs an even n_paths")
        if not isinstance(self.n_workers, int) or self.n_workers < 1:
            raise ConfigError(f"n_workers = {self.n_workers!r} must be an integer >= 1")
