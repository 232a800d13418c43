"""Monte Carlo simulation of the full three-factor model.

Serves as the independent pricing oracle against which the asymptotic price is
validated.  Risk-neutral dynamics:

    dX = r X dt + f(Y, Z) X dW^x
    dY = (1/epsilon)(m - Y) dt + (nu sqrt(2)/sqrt(epsilon)) dW^y
    dZ = k (m' - Z) dt + eta dW^z

X advances by log-Euler with the volatility frozen over each step at its
left endpoint; Y and Z advance by their exact OU transition laws, so the
factor paths carry no discretisation bias at any step size.  Z can instead be
frozen on its parabolic arc (``z_scheme="parabolic"``); at ``eta = 0`` the
OU scheme's Z is its deterministic mean path.

Reproducibility contract: paths are organised into fixed-size blocks of
``BLOCK_SIZE``; block ``b`` owns a counter-based Philox substream derived from
``(seed, b)``, and per-step draws have a fixed layout inside the block: one
standard normal per path (per pair of paths with antithetic sampling) for
each noise that drives a factor, ``(W^x, W^y)`` and W^z only where Z is
stochastic (``z_scheme="ou"`` with ``eta > 0``), correlated by the Cholesky
factor of their correlation matrix.  Each block runs its step loop in its own
slice of the sample's arrays, which are allocated once, ``n_paths`` long, so
no block's result is copied.  The path set is therefore bit-identical for
identical ``(seed, cfg)`` regardless of how many worker threads process the
blocks, and reductions run in block order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .arrays import vol_values
from .averaging import VolFunction
from .errors import ConfigError
from .params import ModelParams, OptionSpec, correlation_matrix, discount_factor
from .pricer import price_first_order

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
    """Terminal values of every path, in block order.  A deterministic ``z``
    (the parabolic arc, or the OU mean path at ``eta = 0``) is one float
    shared by every path, as a read-only broadcast view."""

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
    n_steps: int,
    dt: float,
    chol: np.ndarray,
    collect: int,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
):
    """Run one block's paths in ``x`` and ``y``, its slices of the sample, and
    return its terminal Z and the dump of its ``collect`` leading paths.

    ``x`` holds log X until the last step exponentiates it in place.  Every
    step updates the slices in place, with the operations of
    ``m + (y - m) decay + sd xi`` and of the log scheme applied in that
    order, so each value rounds as the plain expressions do.  ``z`` is the
    block's slice where Z is random, and None where it is deterministic (the
    parabolic arc, or the OU mean path at ``eta = 0``): then Z is one float
    shared by every path, and that float is returned.  With antithetic
    sampling the correlated increments are formed on the drawn half and
    negated into the other half, which is exact.
    """
    rng = _block_rng(cfg.seed, block)
    nb = x.size
    frozen_z = cfg.z_scheme == "parabolic"
    random_z = z is not None
    dim = 3 if random_z else 2  # W^z is drawn only when it moves Z
    arc = model.arc
    c = chol.tolist()

    sqrt_dt = math.sqrt(dt)
    decay_y = math.exp(-dt / model.epsilon)
    sd_y = model.nu * math.sqrt(1.0 - decay_y * decay_y)
    decay_z = math.exp(-model.k * dt)
    sd_z = model.eta * math.sqrt((1.0 - decay_z * decay_z) / (2.0 * model.k))

    y.fill(model.m)
    if frozen_z:
        z_t = float(arc.value(spec.t))
    else:
        # deterministic state at the valuation date: the OU mean path
        z_t = model.m_prime + (model.z0 - model.m_prime) * math.exp(-model.k * spec.t)
        if random_z:
            z.fill(z_t)
            z_t = z
    x.fill(math.log(spec.spot))

    n_draw = nb // 2 if cfg.antithetic else nb
    raw = np.empty((dim, n_draw))
    xi = np.empty((dim, nb))  # correlated increments of W^x, W^y (and W^z)
    term = np.empty(n_draw)
    # vol_values writes only separable_exp's f into a buffer, and f is one
    # float per step for y_constant with a deterministic Z: the log step
    # then needs no work buffer either
    f = np.empty(nb) if vol.kind == "separable_exp" else None
    work = None if vol.kind == "y_constant" and not random_z else np.empty(nb)

    dump = None
    if collect:
        dump = {
            "x": np.empty((collect, n_steps + 1)),
            "y": np.empty((collect, n_steps + 1)),
            "z": np.empty((collect, n_steps + 1)),
        }
        dump["x"][:, 0] = spec.spot
        dump["y"][:, 0] = y[:collect]
        dump["z"][:, 0] = z_t[:collect] if random_z else z_t

    for j in range(n_steps):
        sigma = vol_values(vol, y, z_t, out=f)
        rng.standard_normal(out=raw)
        for i in range(dim):  # xi_i = chol[i, 0] raw_0 + ... + chol[i, i] raw_i
            row = xi[i, :n_draw]
            np.multiply(raw[0], c[i][0], out=row)
            for p in range(1, i + 1):
                row += np.multiply(raw[p], c[i][p], out=term)
        if cfg.antithetic:
            np.negative(xi[:, :n_draw], out=xi[:, n_draw:])

        # log X += sigma sqrt(dt) xi_x + (r - sigma^2 / 2) dt
        if isinstance(sigma, float):
            xi[0] *= sigma * sqrt_dt
            xi[0] += (model.r - 0.5 * sigma * sigma) * dt
        else:
            xi[0] *= np.multiply(sigma, sqrt_dt, out=work)
            np.multiply(sigma, 0.5, out=work)
            work *= sigma
            np.subtract(model.r, work, out=work)
            work *= dt
            xi[0] += work
        x += xi[0]

        _ou_step(y, model.m, decay_y, sd_y, xi[1])
        if frozen_z:
            z_t = float(arc.value(spec.t + (j + 1) * dt))
        elif random_z:
            _ou_step(z_t, model.m_prime, decay_z, sd_z, xi[2])
        else:
            z_t = model.m_prime + (z_t - model.m_prime) * decay_z

        if collect:
            dump["x"][:, j + 1] = np.exp(x[:collect])
            dump["y"][:, j + 1] = y[:collect]
            dump["z"][:, j + 1] = z_t[:collect] if random_z else z_t

    np.exp(x, out=x)
    return z_t, dump


def _ou_step(state: np.ndarray, mean: float, decay: float, sd: float, xi: np.ndarray) -> None:
    """``state = mean + (state - mean) decay + sd xi`` in place; overwrites ``xi``."""
    state -= mean
    state *= decay
    state += mean
    xi *= sd
    state += xi


def simulate_terminal(
    model: ModelParams,
    spec: OptionSpec,
    vol: VolFunction,
    cfg: SimConfig,
    *,
    return_paths: int = 0,
) -> TerminalSample:
    """Simulate terminal (X, Y, Z) at maturity from the valuation date.

    Every block writes its paths into the returned arrays.  A deterministic
    Z (the parabolic arc, or the OU mean path at ``eta = 0``) is one float,
    returned as a read-only broadcast of it over the paths.
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

    # a deterministic Z draws no W^z and reads only the leading 2x2 block,
    # which is the factor of the (W^x, W^y) correlations
    chol = np.linalg.cholesky(correlation_matrix(model))
    x, y = np.empty(cfg.n_paths), np.empty(cfg.n_paths)
    z = np.empty(cfg.n_paths) if cfg.z_scheme == "ou" and model.eta > 0.0 else None

    def job(b: int):
        # every block but the last is BLOCK_SIZE wide
        part = slice(b * BLOCK_SIZE, b * BLOCK_SIZE + sizes[b])
        return _simulate_block(
            model, spec, vol, cfg, b, n_steps, dt, chol, collect if b == 0 else 0,
            x[part], y[part], None if z is None else z[part],
        )

    if cfg.n_workers == 1 or len(sizes) == 1:
        results = [job(b) for b in range(len(sizes))]
    else:
        # imported here, so that a single-threaded run never loads the pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            results = list(pool.map(job, range(len(sizes))))
    z_t, dump = results[0]
    if z is None:
        z = np.broadcast_to(z_t, (cfg.n_paths,))
    paths = None
    if collect:
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
    w = np.subtract(sample.x, spec.strike)
    np.maximum(w, 0.0, out=w)
    w *= disc
    price = float(np.mean(w))
    if cfg.antithetic:
        # blocks are always even-sized when antithetic is on (n_paths even,
        # BLOCK_SIZE even), so every path has its mirrored partner in-block
        u = np.empty(w.size // 2)
        offset = 0
        for nb in sample.block_sizes:
            half = nb // 2
            pair = u[offset // 2 : offset // 2 + half]
            np.add(w[offset : offset + half], w[offset + half : offset + nb], out=pair)
            pair *= 0.5
            offset += nb
        w = u
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
