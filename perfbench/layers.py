"""Per-layer metrics from the spans of a traced run.

Every workload reports every metric below; a layer the workload never calls
reads 0.  Counts are per round, so they repeat exactly from run to run.
"""
from __future__ import annotations

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("averaging.effective_params_us", "us"),
    ("averaging.evals", "count"),
    ("averaging.cache_hit_ratio", "ratio"),
    ("averaging.nodes_per_eval", "count"),
    ("pricer.self_us", "us"),
    ("pricer.prices", "count"),
    ("black_scholes.call_us", "us"),
    ("black_scholes.d1d2_us", "us"),
    ("black_scholes.calls", "count"),
    ("calibration.fit_s", "s"),
    ("calibration.iterations", "count"),
    ("calibration.objective_evals", "count"),
    ("calibration.objective_us", "us"),
    ("calibration.kernel_share", "ratio"),
    ("calibration.optimizer_self_s", "s"),
    ("calibration.estimate_a_s", "s"),
    ("monte_carlo.simulate_s", "s"),
    ("monte_carlo.reduce_s", "s"),
    ("monte_carlo.path_steps", "count"),
    ("monte_carlo.path_steps_per_s", "1/s"),
    ("monte_carlo.normals_per_path_step", "count"),
    ("monte_carlo.rng_share", "ratio"),
    ("monte_carlo.std_error", "price"),
    ("cli.import_s", "s"),
    ("cli.scipy_import_s", "s"),
    ("cli.modules_loaded", "count"),
    ("cli.run_s.price", "s"),
    ("cli.run_s.diagnose", "s"),
    ("cli.run_s.simulate", "s"),
    ("cli.run_s.calibrate", "s"),
)

BS_CALL = "black_scholes.bs_call_price"
BS_D1D2 = "black_scholes.d1d2_call"


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def from_spans(records: list[dict], n_rounds: int) -> dict:
    """Metrics of the averaging, pricer, black_scholes, calibration, monte_carlo
    and cli layers; ``records`` are span and leaf lines of :mod:`tracing`."""
    spans: dict[str, list[dict]] = {}
    leaves: dict[str, list[float]] = {}
    for rec in records:
        if "leaf" in rec:
            acc = leaves.setdefault(rec["leaf"], [0, 0.0])
            acc[0] += rec["count"]
            acc[1] += rec["busy_s"]
        else:
            spans.setdefault(rec["name"], []).append(rec)

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def sub(s: dict, *names: str) -> float:
        return sum(s["sub"].get(n, 0.0) for n in names)

    def per_call_us(name: str) -> float:
        count, busy = leaves.get(name, (0, 0.0))
        return 1e6 * busy / count if count else 0.0

    out = {}
    eff = spans.get("averaging.effective_params", [])
    computed = [s for s in eff if not s.get("meta", {}).get("cache_hit")]
    cached = [s for s in eff if "cache_hit" in s.get("meta", {})]
    done = [s for s in computed if "error" not in s]
    out["averaging.effective_params_us"] = 1e6 * _mean(dur(s) for s in done)
    out["averaging.evals"] = len(computed) / n_rounds
    out["averaging.cache_hit_ratio"] = (sum(s["meta"]["cache_hit"] for s in cached) / len(cached)
                                        if cached else 0.0)
    out["averaging.nodes_per_eval"] = _mean(s["meta"]["n_nodes"] for s in done)

    prices = spans.get("pricer.price_first_order", [])
    out["pricer.self_us"] = 1e6 * _mean(
        dur(s) - sub(s, "averaging.effective_params", BS_CALL, BS_D1D2) for s in prices)
    out["pricer.prices"] = len(prices) / n_rounds

    out["black_scholes.call_us"] = per_call_us(BS_CALL)
    out["black_scholes.d1d2_us"] = per_call_us(BS_D1D2)
    out["black_scholes.calls"] = sum(leaves.get(n, (0, 0.0))[0] for n in (BS_CALL, BS_D1D2)) / n_rounds

    fits = spans.get("calibration.calibrate_effective", [])
    objective = spans.get("calibration.objective", [])
    fit_s = sum(dur(s) for s in fits)
    out["calibration.fit_s"] = _mean(dur(s) for s in fits)
    out["calibration.iterations"] = _mean(s["meta"]["iterations"] for s in fits if "meta" in s)
    out["calibration.objective_evals"] = len(objective) / len(fits) if fits else 0.0
    out["calibration.objective_us"] = 1e6 * _mean(dur(s) for s in objective)
    out["calibration.kernel_share"] = (sum(sub(s, BS_CALL, BS_D1D2) for s in fits) / fit_s
                                       if fit_s else 0.0)
    out["calibration.optimizer_self_s"] = (
        sum(dur(s) - sub(s, "calibration.objective") for s in spans.get("calibration.minimize", []))
        / len(fits) if fits else 0.0)
    out["calibration.estimate_a_s"] = _mean(dur(s) for s in spans.get("calibration.estimate_a", []))

    sims = spans.get("monte_carlo.simulate_terminal", [])
    estimates = spans.get("monte_carlo.mc_price", [])
    out["monte_carlo.simulate_s"] = _mean(dur(s) for s in sims)
    out["monte_carlo.reduce_s"] = _mean(dur(s) - sub(s, "monte_carlo.simulate_terminal") for s in estimates)
    out["monte_carlo.std_error"] = _mean(s["meta"]["std_error"] for s in estimates if "meta" in s)

    for cmd in ("price", "diagnose", "simulate", "calibrate"):
        runs = [s for s in spans.get("cli.main", []) if s.get("meta", {}).get("command") == cmd]
        out[f"cli.run_s.{cmd}"] = _mean(dur(s) for s in runs)
    return out


def importtime_scipy_s(stderr: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output.

    Sums the cumulative time of every outermost ``scipy`` import: one whose
    enclosing imports are not scipy modules themselves.  The output lists
    children before their parent, so it is read backwards.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total_us, stack = 0, []  # stack of (depth, inside a scipy import)
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6
