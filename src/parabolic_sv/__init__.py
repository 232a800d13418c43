"""Two-factor stochastic volatility call pricer with a parabolic slow factor.

Public surface: parameter containers, the effective-volatility averaging
pipeline, the first-order asymptotic pricer, a Monte Carlo cross-validation
oracle, and chain calibration.  See README.md for the CLI.
"""
from importlib import import_module

from .errors import (
    CenteringFailureError,
    ChainParseError,
    ConfigError,
    EmptyChainError,
    InputDomainError,
    InsufficientDataError,
    InvalidModelError,
    LogDomainError,
    NoInteriorMinimumError,
    NumericalOverflowError,
    PricingError,
    SingularTimeError,
    Violation,
)
from .params import (
    ModelParams,
    OptionSpec,
    SimConfig,
    build_model,
    correlation_matrix,
)
from .slow_factor import (
    ParabolicSlowFactor,
    TruncationReport,
    gamma_coefficient,
    l2_time_coefficient_check,
    parabolic_coefficients,
    truncation_report,
)
from .black_scholes import BsInputs, bs_call_price, bs_greeks, d1d2_call
from .averaging import (
    AveragingCache,
    EffectiveParams,
    VolFunction,
    effective_params,
    sigma_bar,
)
from .pricer import (
    PriceBreakdown,
    modification_factor,
    p0_pde_residual,
    p1_time_factor,
    price_first_order,
)

# The names of calibration and of the modules that build arrays are imported
# on first use (PEP 562): a price process needs none of them, nor the numpy
# that the array modules load.
_LAZY_MODULES = {
    "arrays": ("phi_residual_check", "solve_phi_derivative"),
    "calibration": (
        "AEstimate", "CalibResult", "OptionQuote", "calibrate_effective", "estimate_a", "implied_vol", "load_chain"
    ),
    "monte_carlo": (
        "McEstimate", "PathDump", "SweepRow", "TerminalSample", "epsilon_sweep", "mc_price", "simulate_terminal"
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AEstimate",
    "AveragingCache",
    "BsInputs",
    "CalibResult",
    "CenteringFailureError",
    "ChainParseError",
    "ConfigError",
    "EffectiveParams",
    "EmptyChainError",
    "InputDomainError",
    "InsufficientDataError",
    "InvalidModelError",
    "LogDomainError",
    "McEstimate",
    "ModelParams",
    "NoInteriorMinimumError",
    "NumericalOverflowError",
    "OptionQuote",
    "OptionSpec",
    "ParabolicSlowFactor",
    "PathDump",
    "PriceBreakdown",
    "PricingError",
    "SimConfig",
    "SingularTimeError",
    "SweepRow",
    "TerminalSample",
    "TruncationReport",
    "Violation",
    "VolFunction",
    "bs_call_price",
    "bs_greeks",
    "build_model",
    "calibrate_effective",
    "correlation_matrix",
    "d1d2_call",
    "effective_params",
    "epsilon_sweep",
    "estimate_a",
    "gamma_coefficient",
    "implied_vol",
    "l2_time_coefficient_check",
    "load_chain",
    "mc_price",
    "modification_factor",
    "p0_pde_residual",
    "p1_time_factor",
    "parabolic_coefficients",
    "phi_residual_check",
    "price_first_order",
    "sigma_bar",
    "simulate_terminal",
    "solve_phi_derivative",
    "truncation_report",
    "__version__",
]
