"""Property test of the one-contract pricer: every valid model and contract
either prices to finite numbers or raises a typed PricingError.

The strategies reach the edges of the input space, not only uniform ranges:
``m`` down to -800, where ``sigma_bar`` of ``separable_exp`` underflows; a
zero rate, at which an at-the-money ``d1`` carries no drift; times to
maturity of 0, 1e-300, 1e-200 and 1e-12, where ``sigma_bar sqrt(tau)``
underflows; ``k`` of 1e-320 and 1e-10 and ``a`` of +-1e300, where the
modification factor's exponent is NaN or infinite; ``nu`` of 1e-170 and
1e300, where a table's ``nu^2`` underflows and its moments overflow; ``z0``
of 1e160, where ``sigma_bar^2`` overflows; and a spot of 1e-30 against a
strike of 1e300, whose ratio underflows to 0.
"""
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parabolic_sv import (
    InvalidModelError,
    OptionSpec,
    PricingError,
    VolFunction,
    build_model,
    price_first_order,
)


def edged(points, lo, hi):
    """The listed edge values, or a float drawn from ``[lo, hi]``."""
    return st.one_of(st.sampled_from(points), st.floats(lo, hi))


@st.composite
def tables(draw):
    n = draw(st.integers(2, 8))
    start = draw(st.floats(-3.0, 0.0))
    steps = draw(st.lists(st.floats(0.05, 1.5), min_size=n - 1, max_size=n - 1))
    ys = [start]
    for step in steps:
        ys.append(ys[-1] + step)
    fs = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    return VolFunction.tabulated(ys, fs)


VOLS = st.one_of(st.just(VolFunction.y_constant()), st.just(VolFunction.separable_exp()), tables())

MODELS = st.fixed_dictionaries(
    dict(
        epsilon=st.floats(1e-4, 0.1),
        m=edged([-800.0, -740.0, -534.0, -360.0, -200.0, 0.0], -800.0, 1.0),
        nu=edged([1e-170, 1e300], 0.01, 2.0),
        k=st.one_of(st.sampled_from([1e-320, 1e-10]), st.floats(-5.0, math.log10(0.2)).map(lambda e: 10.0**e)),
        m_prime=st.floats(0.0, 0.5),
        rho_xy=st.floats(-0.95, 0.95),
        z0=edged([1e160], 0.01, 1.0),
        r=edged([0.0, 0.0264], -0.1, 0.2),
        a=edged([-1e300, 1e300], -0.5, 0.5),
    )
)

CONTRACTS = st.fixed_dictionaries(
    dict(
        spot=edged([1e-30], 100.0, 100.0),
        strike=edged([100.0, 1e300], 1.0, 1000.0),
        t=edged([0.0], 0.0, 3.0),
        tau=edged([0.0, 1e-300, 1e-200, 1e-12], 1e-6, 5.0),
    )
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(model_keys=MODELS, contract=CONTRACTS, vol=VOLS)
def test_a_price_is_finite_or_a_typed_error(model_keys, contract, vol):
    try:
        model = build_model(**model_keys)
    except InvalidModelError:
        assume(False)
    t = contract["t"]
    spec = OptionSpec(contract["spot"], contract["strike"], t, t + contract["tau"])
    try:
        got = price_first_order(spec, model, vol)
    except PricingError:
        return
    for name in ("total", "q0", "p0", "correction", "mod_factor"):
        assert math.isfinite(getattr(got, name)), (name, got)
