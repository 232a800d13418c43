"""Command-line front end: price, simulate, calibrate, diagnose.

Configuration is a flat ``key = value`` text file (``#`` starts a comment
line, blank lines ignored, duplicate or unknown keys are errors).  All numeric
output is printed with 10 significant digits; reports are deterministic given
the config, and the parallelism degree (``n_workers``) never appears in a
report so changing it leaves the bytes unchanged.

The keys come from the library's types: the model keys of ``price``,
``simulate`` and ``diagnose`` are the fields of ``ModelParams``, the contract
keys those of ``OptionSpec`` and the simulation keys those of ``SimConfig``,
plus ``vol_kind`` (one of ``averaging.VOL_KINDS``), ``vol_table`` and
simulate's ``eps_sweep``; ``z_scheme`` takes one of ``monte_carlo.Z_SCHEMES``.
``calibrate`` builds no model: it takes ``chain``, ``fit`` and the arguments
of that fit's function, ``k``/``r`` or ``seed``/``n_restarts``.

A failure prints one ``error:`` line and exits with the ``exit_code`` of its
:class:`~parabolic_sv.errors.PricingError` class: 2 config/validation errors,
3 numerical failures, 4 insufficient data.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .averaging import VOL_KINDS, VolFunction, effective_params, phi_residual_check
from .errors import (
    CenteringFailureError,
    ConfigError,
    NumericalOverflowError,
    PricingError,
    SingularTimeError,
)
from .monte_carlo import BLOCK_SIZE, Z_SCHEMES, SimConfig, epsilon_sweep, estimate_from_sample, simulate_terminal
from .params import ModelParams, OptionSpec, build_model
from .pricer import p0_pde_residual, price_first_order
from .slow_factor import (
    l2_time_coefficient_check,
    parabolic_coefficients,
    truncation_report,
)

__all__ = ["main", "RunConfig", "load_run_config"]

EXIT_OK = 0


# ---------------------------------------------------------------------------
# config parsing
#
# The keys of a command are the fields of the library types it builds, plus a
# few of its own; each value is parsed by the annotation of the field it fills.

def _cast_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"expected true or false, got {s!r}")


def _cast_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(p) for p in s.split(",") if p.strip())


_CAST_BY_TYPE = {"float": float, "int": int, "str": str, "bool": _cast_bool}

_MODEL_KEYS = {f.name for f in fields(ModelParams)}
_OPTION_KEYS = {f.name for f in fields(OptionSpec)}
_SIM_KEYS = {f.name for f in fields(SimConfig)}
#: The one option key a config may leave out.
_OPTION_DEFAULTS = {"t": 0.0}

_CASTERS = {
    **{
        f.name: _CAST_BY_TYPE[f.type]
        for cls in (ModelParams, OptionSpec, SimConfig)
        for f in fields(cls)
    },
    "vol_kind": str,
    "vol_table": str,
    "eps_sweep": _cast_float_list,
    "chain": str,
    "fit": str,
    "n_restarts": int,
}

#: The keys each calibrate fit passes to its function.
_FIT_KEYS = {"a": {"k", "r"}, "effective": {"seed", "n_restarts"}}
_DEFAULT_FIT = "effective"

_COMMON_KEYS = _MODEL_KEYS | {"vol_kind", "vol_table"}
_ALLOWED = {
    "price": _COMMON_KEYS | _OPTION_KEYS,
    "simulate": _COMMON_KEYS | _OPTION_KEYS | _SIM_KEYS | {"eps_sweep"},
    "calibrate": {"chain", "fit"}.union(*_FIT_KEYS.values()),
    "diagnose": _COMMON_KEYS | _OPTION_KEYS,
}


def _required(cls) -> set[str]:
    return {f.name for f in fields(cls) if f.default is MISSING}


_REQUIRED_OPTION = _required(OptionSpec) - set(_OPTION_DEFAULTS)
_REQUIRED = {
    "price": _REQUIRED_OPTION,
    "simulate": _REQUIRED_OPTION | _required(SimConfig),
    "calibrate": {"chain"},
    "diagnose": _REQUIRED_OPTION,
}

_ENUMS = {"vol_kind": VOL_KINDS, "z_scheme": Z_SCHEMES, "fit": tuple(_FIT_KEYS)}


def _read_pairs(path: Path) -> dict[str, str]:
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}: line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one command's flat config file; ``extras`` holds every
    key the file sets, as parsed.  ``calibrate`` reads only ``extras``, and its
    model, vol function and option are None."""

    model: ModelParams | None
    vol: VolFunction | None
    option: OptionSpec | None
    extras: dict = field(default_factory=dict)


def _given(typed: dict, keys) -> dict:
    """The config's values for those of ``keys`` it sets; the callee defaults the rest."""
    return {key: value for key, value in typed.items() if key in keys}


def load_run_config(path, command: str) -> RunConfig:
    path = Path(path)
    pairs = _read_pairs(path)

    unknown = sorted(set(pairs) - _ALLOWED[command])
    if unknown:
        raise ConfigError(f"{path}: unknown keys for {command}: {', '.join(unknown)}")
    missing = sorted(_REQUIRED[command] - set(pairs))
    if missing:
        raise ConfigError(f"{path}: missing required keys for {command}: {', '.join(missing)}")

    typed: dict = {}
    for key, value in pairs.items():
        try:
            typed[key] = _CASTERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key}: {exc}") from None
        if key in _ENUMS and typed[key] not in _ENUMS[key]:
            raise ConfigError(
                f"{path}: key {key}: expected one of {', '.join(_ENUMS[key])}, got {typed[key]!r}"
            )

    if command == "calibrate":
        fit = typed.get("fit", _DEFAULT_FIT)
        foreign = sorted(set(typed) - {"chain", "fit"} - _FIT_KEYS[fit])
        if foreign:
            raise ConfigError(f"{path}: keys not read by fit = {fit}: {', '.join(foreign)}")
        return RunConfig(model=None, vol=None, option=None, extras=typed)

    model = build_model(**_given(typed, _MODEL_KEYS))

    vol_kind = typed.get("vol_kind", "separable_exp")
    if vol_kind != "tabulated":
        vol = VolFunction(vol_kind)
    elif "vol_table" in typed:
        vol = VolFunction.from_table_file(typed["vol_table"])
    else:
        raise ConfigError(f"{path}: vol_kind = tabulated requires vol_table")

    option = OptionSpec(**{**_OPTION_DEFAULTS, **_given(typed, _OPTION_KEYS)})
    return RunConfig(model=model, vol=vol, option=option, extras=typed)


# ---------------------------------------------------------------------------
# report helpers

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".10g")
    return str(v)


def _aligned(rows: list[tuple[str, object]]) -> str:
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {_fmt(value)}" for name, value in rows) + "\n"


def _delimited(rows: list[tuple[str, object]]) -> str:
    return "\n".join(f"{name}={_fmt(value)}" for name, value in rows) + "\n"


def _write_file(path: str, text: str, what: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc


def _emit(rows: list[tuple[str, object]], out_path: str | None) -> None:
    # the file first, so a path that cannot be written leaves no report behind
    if out_path:
        _write_file(out_path, _delimited(rows), "--out file")
    sys.stdout.write(_aligned(rows))


# ---------------------------------------------------------------------------
# commands

def cmd_price(cfg: RunConfig, out_path: str | None) -> int:
    bd = price_first_order(cfg.option, cfg.model, cfg.vol)
    rows = [
        ("command", "price"),
        ("spot", cfg.option.spot),
        ("strike", cfg.option.strike),
        ("t", cfg.option.t),
        ("maturity", cfg.option.maturity),
        ("z", bd.z),
        ("sigma_bar", bd.sigma_bar),
        ("q0", bd.q0),
        ("mod_factor", bd.mod_factor),
        ("p0", bd.p0),
        ("time_factor", bd.time_factor),
        ("v", bd.v),
        ("d1d2", bd.d1d2),
        ("correction", bd.correction),
        ("total", bd.total),
    ]
    _emit(rows, out_path)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_path: str | None, paths_dump: str | None) -> int:
    sim = SimConfig(**_given(cfg.extras, _SIM_KEYS))
    # echo only the keys that shape the numbers; n_workers stays out so the
    # report is byte-identical across parallelism degrees
    rows: list[tuple[str, object]] = [
        ("command", "simulate"),
        ("n_paths", sim.n_paths),
        ("steps_per_year", sim.steps_per_year),
        ("seed", sim.seed),
        ("z_scheme", sim.z_scheme),
        ("antithetic", sim.antithetic),
    ]

    sweep = "eps_sweep" in cfg.extras
    if paths_dump or not sweep:
        # one run serves both the report's price and the dumped trajectories; a
        # sweep's dump runs block 0 alone, whose size and substream stay the same
        run = replace(sim, n_paths=min(sim.n_paths, BLOCK_SIZE)) if sweep else sim
        sample = simulate_terminal(
            cfg.model, cfg.option, cfg.vol, run, return_paths=min(8, sim.n_paths) if paths_dump else 0
        )

    if sweep:
        table = epsilon_sweep(cfg.model, cfg.option, cfg.vol, sim, cfg.extras["eps_sweep"])
        for i, row in enumerate(table):
            rows += [
                (f"epsilon_{i}", row.epsilon),
                (f"asymptotic_{i}", row.asymptotic),
                (f"mc_price_{i}", row.mc_price),
                (f"std_error_{i}", row.std_error),
                (f"abs_error_{i}", row.abs_error),
            ]
        ok = all(
            b.abs_error
            <= a.abs_error + 3.0 * math.hypot(a.std_error, b.std_error)
            for a, b in zip(table, table[1:])
        )
        rows.append(("trend", "non-increasing" if ok else "increasing"))
    else:
        est = estimate_from_sample(sample, cfg.model, cfg.option, sim)
        asym = price_first_order(cfg.option, cfg.model, cfg.vol).total
        rows += [
            ("price", est.price),
            ("std_error", est.std_error),
            ("n_effective", est.n_effective),
            ("asymptotic", asym),
            ("abs_gap", abs(asym - est.price)),
        ]

    if paths_dump:
        dump = sample.paths
        lines = ["path,time,x,y,z\n"]
        for p in range(dump.x.shape[0]):
            for j, tm in enumerate(dump.times):
                lines.append(
                    f"{p},{_fmt(tm)},{_fmt(dump.x[p, j])},{_fmt(dump.y[p, j])},{_fmt(dump.z[p, j])}\n"
                )
        _write_file(paths_dump, "".join(lines), "--paths-dump file")

    _emit(rows, out_path)
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, out_path: str | None) -> int:
    # imported here, so that only this command pays for loading calibration
    from .calibration import calibrate_effective, estimate_a, load_chain

    quotes = load_chain(cfg.extras["chain"])
    fit = cfg.extras.get("fit", _DEFAULT_FIT)
    given = _given(cfg.extras, _FIT_KEYS[fit])
    rows: list[tuple[str, object]] = [("command", "calibrate"), ("fit", fit), ("n_quotes", len(quotes))]
    if fit == "a":
        est = estimate_a(quotes, **given)
        rows += [
            ("a_hat", est.a_hat),
            ("objective", est.objective),
            ("sigma_bar_used", est.sigma_bar_used),
        ]
        for strike, a_k in est.per_strike:
            rows.append((f"a_at_strike_{_fmt(strike)}", a_k))
    else:
        res = calibrate_effective(quotes, **given)
        rows += [
            ("a_hat", res.a_hat),
            ("k_hat", res.k_hat),
            ("v_eff_hat", res.v_eff_hat),
            ("sigma_bar_hat", res.sigma_bar_hat),
            ("objective", res.objective),
            ("iterations", res.iterations),
            ("converged", res.converged),
        ]
        for i, obj in enumerate(res.restart_objectives):
            rows.append((f"restart_objective_{i}", obj))
    _emit(rows, out_path)
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig, out_path: str | None) -> int:
    """Consistency report; numerical guard trips print WARN lines, never crash."""
    model, opt, vol = cfg.model, cfg.option, cfg.vol
    arc = parabolic_coefficients(model)
    rows: list[tuple[str, object]] = [
        ("command", "diagnose"),
        ("arc_a_coef", arc.a_coef),
        ("arc_b_coef", arc.b_coef),
        ("arc_c_coef", arc.c_coef),
    ]

    # interior probe time for the time-derivative checks
    t_eval = opt.t if 0.0 < opt.t < opt.maturity else 0.25 * opt.maturity
    rows.append(("t_eval", t_eval))

    rep = truncation_report(model, opt.maturity)
    if rep.bound_applies:
        rows.append(
            (
                "truncation",
                f"{'PASS' if rep.within_bound else 'FAIL'} abs_error={_fmt(rep.abs_error)} "
                f"bound={_fmt(rep.bound)}",
            )
        )
    else:
        rows.append(("truncation", f"SKIP k*t={_fmt(model.k * opt.maturity)} > 1"))

    try:
        direct, gamma_form = l2_time_coefficient_check(model, t_eval)
        gap = abs(direct - gamma_form) / max(1.0, abs(direct))
        rows.append(
            (
                "time_coefficient",
                f"{'PASS' if gap <= 1e-10 else 'FAIL'} rel_gap={_fmt(gap)}",
            )
        )
    except SingularTimeError as exc:
        rows.append(("time_coefficient", f"WARN {exc}"))

    try:
        z_t = float(arc.value(opt.t))
        eff = effective_params(vol, z_t, model)
        rows += [
            ("sigma_bar", eff.sigma_bar),
            ("v", eff.v),
            ("quadrature", f"PASS method={eff.method} pieces={eff.n_nodes}"),
        ]
        resid = phi_residual_check(vol, z_t, model.m, model.nu)
        rows.append(
            (
                "phi_residual",
                f"{'PASS' if resid <= 1e-6 else 'FAIL'} residual={_fmt(resid)}",
            )
        )
    except NumericalOverflowError as exc:
        rows.append(("quadrature", f"WARN {exc}"))
    except CenteringFailureError as exc:
        rows.append(("phi_residual", f"WARN {exc}"))

    try:
        probe = OptionSpec(spot=opt.spot, strike=opt.strike, t=t_eval, maturity=opt.maturity)
        z_probe = float(arc.value(t_eval))
        eff_probe = effective_params(vol, z_probe, model)
        classical = p0_pde_residual(probe, model, eff_probe, classical=True)
        rows.append(
            (
                "classical_pde_residual",
                f"{'PASS' if abs(classical) <= 1e-4 else 'FAIL'} residual={_fmt(classical)}",
            )
        )
        # the assembled leading term does not solve the modified equation
        # exactly; the magnitude of the gap is informational
        resid = p0_pde_residual(probe, model, eff_probe)
        rows.append(("p0_pde_residual", f"INFO residual={_fmt(resid)}"))
    except PricingError as exc:
        rows.append(("p0_pde_residual", f"WARN {exc}"))

    _emit(rows, out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic-sv",
        description="European call pricing under a two-factor stochastic volatility "
        "model with a parabolic slow-factor approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("price", "first-order price breakdown"),
        ("simulate", "Monte Carlo estimate and asymptotic comparison"),
        ("calibrate", "fit model constants to a quote chain"),
        ("diagnose", "internal consistency checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", help="write the report as key=value lines to this file")
        if name == "simulate":
            p.add_argument(
                "--paths-dump",
                help="write the first few simulated trajectories as CSV to this file",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.command)
        if args.command == "price":
            return cmd_price(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.paths_dump)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.out)
        return cmd_diagnose(cfg, args.out)
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
