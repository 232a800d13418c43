"""Monte Carlo simulation of the full three-factor model.

Serves as the independent pricing oracle against which the asymptotic price is
validated.  Risk-neutral dynamics:

    dX = r X dt + f(Y, Z) X dW^x
    dY = (1/epsilon)(m - Y) dt + (nu sqrt(2)/sqrt(epsilon)) dW^y
    dZ = k (m' - Z) dt + eta dW^z

X advances by log-Euler with the volatility frozen over each step at its
left endpoint; Y and Z advance by their exact OU transition laws, so the
factor paths carry no discretisation bias at any step size.  Z can instead be
frozen on its parabolic arc (``z_scheme="parabolic"``).

Reproducibility contract: paths are organised into fixed-size blocks of
``BLOCK_SIZE``; block ``b`` owns a counter-based Philox substream derived from
``(seed, b)``, and per-step draws have a fixed layout inside the block.  The
path set is therefore bit-identical for identical ``(seed, cfg)`` regardless
of how many worker threads process the blocks, and reductions run in block
order.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .arrays import vol_values
from .averaging import VolFunction
from .errors import ConfigError
from .params import ModelParams, OptionSpec, correlation_matrix, discount_factor
from .pricer import price_first_order
from .slow_factor import parabolic_coefficients

if TYPE_CHECKING:  # annotations only: SimConfig is imported from params
    from .params import SimConfig

__all__ = [
    "BLOCK_SIZE",
    "McEstimate",
    "TerminalSample",
    "PathDump",
    "SweepRow",
    "simulate_terminal",
    "mc_price",
    "estimate_from_sample",
    "epsilon_sweep",
]

#: Fixed path-block width; part of the reproducibility contract.
BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """Discounted-payoff estimate.  With antithetic sampling the standard
    error is computed over independent pair means."""

    price: float
    std_error: float
    n_effective: int


@dataclass(frozen=True)
class PathDump:
    times: np.ndarray
    x: np.ndarray  # (n_dump, n_steps + 1)
    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class TerminalSample:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    paths: PathDump | None
    block_sizes: tuple[int, ...]


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    asymptotic: float
    mc_price: float
    std_error: float
    abs_error: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _blocks(n_paths: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (n_paths // BLOCK_SIZE)
    if n_paths % BLOCK_SIZE:
        sizes.append(n_paths % BLOCK_SIZE)
    return sizes


def _simulate_block(
    model: ModelParams,
    spec: OptionSpec,
    vol: VolFunction,
    cfg: SimConfig,
    block: int,
    nb: int,
    n_steps: int,
    dt: float,
    chol: np.ndarray,
    collect: int,
):
    rng = _block_rng(cfg.seed, block)
    frozen_z = cfg.z_scheme == "parabolic"
    dim = 2 if frozen_z else 3
    arc = parabolic_coefficients(model)

    sqrt_dt = math.sqrt(dt)
    decay_y = math.exp(-dt / model.epsilon)
    sd_y = model.nu * math.sqrt(1.0 - decay_y * decay_y)
    decay_z = math.exp(-model.k * dt)
    sd_z = model.eta * math.sqrt((1.0 - decay_z * decay_z) / (2.0 * model.k))

    y = np.full(nb, model.m)
    if frozen_z:
        z = float(arc.value(spec.t))
    else:
        # deterministic state at the valuation date: the OU mean path
        z = np.full(nb, model.m_prime + (model.z0 - model.m_prime) * math.exp(-model.k * spec.t))
    log_x = np.full(nb, math.log(spec.spot))

    dump = None
    if collect:
        dump = {
            "x": np.empty((collect, n_steps + 1)),
            "y": np.empty((collect, n_steps + 1)),
            "z": np.empty((collect, n_steps + 1)),
        }
        dump["x"][:, 0] = spec.spot
        dump["y"][:, 0] = y[:collect]
        dump["z"][:, 0] = z if frozen_z else z[:collect]

    half = nb // 2
    for j in range(n_steps):
        sigma = np.asarray(vol_values(vol, y, z), dtype=float)
        if cfg.antithetic:
            raw_half = rng.standard_normal((dim, half))
            raw = np.concatenate([raw_half, -raw_half], axis=1)
        else:
            raw = rng.standard_normal((dim, nb))
        xi_x = chol[0, 0] * raw[0]
        xi_y = chol[1, 0] * raw[0] + chol[1, 1] * raw[1]

        log_x += (model.r - 0.5 * sigma * sigma) * dt + sigma * sqrt_dt * xi_x
        y = model.m + (y - model.m) * decay_y + sd_y * xi_y
        if frozen_z:
            z = float(arc.value(spec.t + (j + 1) * dt))
        else:
            xi_z = chol[2, 0] * raw[0] + chol[2, 1] * raw[1] + chol[2, 2] * raw[2]
            z = model.m_prime + (z - model.m_prime) * decay_z + sd_z * xi_z

        if collect:
            dump["x"][:, j + 1] = np.exp(log_x[:collect])
            dump["y"][:, j + 1] = y[:collect]
            dump["z"][:, j + 1] = z if frozen_z else z[:collect]

    x_t = np.exp(log_x)
    y_t = y
    z_t = np.full(nb, z) if frozen_z else z
    return x_t, y_t, z_t, dump


def simulate_terminal(
    model: ModelParams,
    spec: OptionSpec,
    vol: VolFunction,
    cfg: SimConfig,
    *,
    return_paths: int = 0,
) -> TerminalSample:
    """Simulate terminal (X, Y, Z) at maturity from the valuation date.

    ``return_paths`` keeps the full trajectories of that many leading paths
    (debugging aid; capped at the first block).

    Raises:
        ConfigError: unless maturity - t is positive.
        InputDomainError: unless ``exp(-r tau)`` is a positive float, which
            the estimate discounts the payoffs with.
    """
    horizon = spec.tau
    if horizon <= 0.0:
        raise ConfigError(f"maturity - t = {horizon:g} must be > 0 to simulate")
    discount_factor(model.r, horizon)
    n_steps = max(1, round(cfg.steps_per_year * horizon))
    dt = horizon / n_steps
    sizes = _blocks(cfg.n_paths)
    collect = min(return_paths, sizes[0]) if return_paths else 0

    # the parabolic scheme draws no W^z and reads only the leading 2x2 block,
    # which is the factor of the (W^x, W^y) correlations
    chol = np.linalg.cholesky(correlation_matrix(model))

    def job(b: int):
        return _simulate_block(
            model, spec, vol, cfg, b, sizes[b], n_steps, dt, chol, collect if b == 0 else 0
        )

    if cfg.n_workers == 1 or len(sizes) == 1:
        results = [job(b) for b in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            results = list(pool.map(job, range(len(sizes))))

    x = np.concatenate([r[0] for r in results])
    y = np.concatenate([r[1] for r in results])
    z = np.concatenate([r[2] for r in results])
    paths = None
    if collect:
        dump = results[0][3]
        times = spec.t + dt * np.arange(n_steps + 1)
        paths = PathDump(times=times, x=dump["x"], y=dump["y"], z=dump["z"])
    return TerminalSample(x=x, y=y, z=z, paths=paths, block_sizes=tuple(sizes))


def mc_price(model: ModelParams, spec: OptionSpec, vol: VolFunction, cfg: SimConfig) -> McEstimate:
    """Discounted-payoff Monte Carlo estimate of the call value."""
    return estimate_from_sample(simulate_terminal(model, spec, vol, cfg), model, spec, cfg)


def estimate_from_sample(
    sample: TerminalSample, model: ModelParams, spec: OptionSpec, cfg: SimConfig
) -> McEstimate:
    """The estimate of :func:`mc_price` from a sample that ``simulate_terminal``
    drew with ``cfg``."""
    disc = discount_factor(model.r, spec.tau)
    w = disc * np.maximum(sample.x - spec.strike, 0.0)
    price = float(np.mean(w))
    if cfg.antithetic:
        # blocks are always even-sized when antithetic is on (n_paths even,
        # BLOCK_SIZE even), so every path has its mirrored partner in-block
        units = []
        offset = 0
        for nb in sample.block_sizes:
            half = nb // 2
            seg = w[offset : offset + nb]
            units.append(0.5 * (seg[:half] + seg[half:]))
            offset += nb
        u = np.concatenate(units)
        std_error = float(np.std(u, ddof=1) / math.sqrt(u.size))
    else:
        std_error = float(np.std(w, ddof=1) / math.sqrt(w.size))
    return McEstimate(price=price, std_error=std_error, n_effective=cfg.n_paths)


def epsilon_sweep(
    model: ModelParams,
    spec: OptionSpec,
    vol: VolFunction,
    cfg: SimConfig,
    eps_list,
) -> list[SweepRow]:
    """Asymptotic-vs-Monte-Carlo error table over a descending epsilon list."""
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0.0 for e in eps):
        raise ConfigError(f"eps_list = {eps!r} must be non-empty and positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"eps_list = {eps!r} must be strictly descending")

    rows = []
    for e in eps:
        model_e = replace(model, epsilon=e)
        asym = price_first_order(spec, model_e, vol).total
        est = mc_price(model_e, spec, vol, cfg)
        rows.append(
            SweepRow(
                epsilon=e,
                asymptotic=asym,
                mc_price=est.price,
                std_error=est.std_error,
                abs_error=abs(asym - est.price),
            )
        )
    return rows
