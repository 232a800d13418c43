"""One workload run in a fresh interpreter: set up, measure, check, report.

``run.py`` starts this script; it prints one JSON object as its last line.

    python3 perfbench/worker.py --workload price_scan --seed 1 --seconds 15 --trace 0

``--setup-only`` stops after set-up and reports when it was ready, which is
how ``run.py`` samples set-up time.  The timed section repeats whole rounds
of the same operations until ``--seconds`` have passed.  Each round's outputs
are checked against ``refs`` when the round ends, outside the timed calls,
and then dropped.  The references are scalar standard-library arithmetic, so
they add neither to the operations' time nor to peak memory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import refs  # noqa: E402

REL_TIGHT = 1e-9  # components of an in-process price
REL_V = 1e-8  # V: two orders above the program's own refinement target
REL_PRINTED = 1e-8  # values printed by the CLI with 10 significant digits


def close(got: float, want: float, rel: float, floor: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(abs(want), floor)


class Report:
    """Counts of one run: attempted operations, failures, wrong outputs, latency samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.latency: list[float] = []  # seconds, one sample per headline answer

    def op(self, ok: bool, expected_fault: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not expected_fault:
                self.wrong.append(what)


def timed(fn, *args, **kwargs):
    """(result or exception, wall seconds) of one call into the program."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        out = exc.with_traceback(None)  # keep no frames, nor the arrays they hold
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# price_scan


class PriceScan:
    def __init__(self, seed: int):
        from parabolic_sv import AveragingCache, OptionSpec, VolFunction, build_model, price_first_order

        self.groups = inputs.price_scan(seed)
        self._cache_type = AveragingCache
        self._price = price_first_order
        self.prepared = []
        for g in self.groups:
            if g["kind"] == "tabulated":
                vol = VolFunction.tabulated(*g["table"])
            else:
                vol = getattr(VolFunction, g["kind"])()
            specs = [OptionSpec(inputs.SPOT, strike, g["t"], mat) for strike, mat in g["ladder"]]
            self.prepared.append((build_model(**g["model"]), vol, specs))

    def round(self) -> list:
        cache = self._cache_type()  # one cache per scan
        return [timed(self._price, spec, model, vol, cache=cache)
                for model, vol, specs in self.prepared for spec in specs]

    def check(self, r: int, outs: list, report: Report) -> None:
        if r == 0:  # references, once
            self.want = [refs.first_order(inputs.SPOT, strike, g["t"], mat, g["model"], g["kind"], g["table"])
                         for g in self.groups for strike, mat in g["ladder"]]
            self.faults = [g["fault"] for g in self.groups for _ in g["ladder"]]
            self.first = {sum(len(g["ladder"]) for g in self.groups[:i]) for i in range(len(self.groups))}
        for i, (bd, dt) in enumerate(outs):
            ok = not isinstance(bd, Exception) and self._matches(bd, self.want[i])
            report.op(ok, self.faults[i] is not None, f"price #{i}: {bd!r}")
            if ok and i in self.first:
                report.latency.append(dt)

    @staticmethod
    def _matches(bd, w: dict) -> bool:
        return (close(bd.z, w["z"], 1e-12)
                and close(bd.sigma_bar, w["sigma_bar"], REL_TIGHT)
                and abs(bd.v - w["v"]) <= REL_V * abs(w["v"])
                and all(close(getattr(bd, k), w[k], REL_TIGHT, 1.0)
                        for k in ("q0", "d1d2", "time_factor", "mod_factor", "p0", "total")))


# ---------------------------------------------------------------------------
# calibrate


class Calibrate:
    def __init__(self, seed: int):
        from parabolic_sv import OptionQuote, calibrate_effective, estimate_a, load_chain

        self.seed = seed
        self._quote = OptionQuote
        self._fit, self._fit_a = calibrate_effective, estimate_a
        self.sample = load_chain(ROOT / "configs" / "chain_sample.csv")
        self.rounds_inputs: list[dict] = []
        self._next = self._prepare()

    def _prepare(self):
        """Program-side inputs of the next round, built outside the timed calls."""
        inp = inputs.calibrate(self.seed, len(self.rounds_inputs))
        self.rounds_inputs.append(inp)
        calls = [(self._fit, self.sample)]
        calls += [(self._fit, [self._quote(*q) for q in quotes]) for _, quotes in inp["eff"]]
        calls.append((self._fit_a, [self._quote(*q) for q in inp["a_quotes"]], inp["a_truth"]["k"]))
        return calls

    def round(self) -> list:
        outs = [timed(*call) for call in self._next]
        self._next = self._prepare()
        return outs

    def check(self, r: int, outs: list, report: Report) -> None:
        m = inputs.SAMPLE_MODEL
        sb, v = refs.averaged("separable_exp", m["z0"], m["m"], m["nu"], m["rho_xy"])
        sample = ([(q.t, q.maturity, q.strike, q.mid, q.spot, q.rate) for q in self.sample],
                  dict(sigma_bar=sb, v_eff=math.sqrt(m["epsilon"]) * v))
        inp = self.rounds_inputs[r]
        chains = [sample] + [(quotes, truth) for truth, quotes in inp["eff"]]
        for i, (fit, _) in enumerate(outs[:-1]):
            ok = not isinstance(fit, Exception) and self._fit_ok(fit, *chains[i])
            report.op(ok, False, f"round {r} chain {i}: {fit!r}")
        est = outs[-1][0]
        ok = not isinstance(est, Exception) and a_fit_ok(
            est.a_hat, est.objective, est.sigma_bar_used, inp["a_quotes"], inp["a_truth"]["k"])
        report.op(ok, False, f"round {r} estimate_a: {est!r}")
        report.latency.append(outs[0][1])

    @staticmethod
    def _fit_ok(fit, rows, truth) -> bool:
        """Reprices every quote and recovers sigma_bar and v_eff."""
        reprice = all(
            close(refs.effective_quote(t, mat, strike, spot, rate, fit.a_hat, fit.k_hat,
                                       fit.v_eff_hat, fit.sigma_bar_hat), mid, 1e-8, 1.0)
            for t, mat, strike, mid, spot, rate in rows)
        return (reprice and close(fit.sigma_bar_hat, truth["sigma_bar"], 1e-6)
                and close(fit.v_eff_hat, truth["v_eff"], 1e-4))


def a_fit_ok(a_hat: float, objective: float, sigma_used: float, rows, k: float, rel: float = 1e-8) -> bool:
    """sigma from the nearest-the-money quote, the objective recomputed, and a local minimum."""
    rate = rows[0][5]
    t, mat, strike, mid, spot, q_rate = min(rows, key=lambda q: abs(q[2] - q[4]) / q[4])
    sigma = refs.implied_vol(mid, spot, strike, q_rate, mat - t)
    if not close(sigma_used, sigma, rel):
        return False
    sse = refs.a_fit_sse(rows, a_hat, k, rate, sigma_used)
    step = 1e-4
    return (close(objective, sse, rel, 1e-12)
            and refs.a_fit_sse(rows, a_hat - step, k, rate, sigma_used) >= sse
            and refs.a_fit_sse(rows, a_hat + step, k, rate, sigma_used) >= sse
            and -0.5 < a_hat < 0.5)


# ---------------------------------------------------------------------------
# mc_crosscheck


class McCrosscheck:
    def __init__(self, seed: int, workers: int):
        from parabolic_sv import OptionSpec, SimConfig, VolFunction, build_model, mc_price

        self.inp = inputs.mc_crosscheck(seed)
        self._mc = mc_price
        self.ops = []  # (label, config name, model, spec, vol, SimConfig)
        for name, n_workers in (("exp", 1), ("exp", workers), ("flat", workers)):
            c = self.inp[name]
            spec = OptionSpec(inputs.SPOT, c["strike"], 0.0, inputs.MC_MATURITY)
            vol = getattr(VolFunction, c["kind"])()
            sim = SimConfig(n_workers=n_workers, **c["sim"])
            self.ops.append((f"{name}/{n_workers}w", name, build_model(**c["model"]), spec, vol, sim))

    def path_steps(self, sim) -> int:
        return sim.n_paths * max(1, round(sim.steps_per_year * inputs.MC_MATURITY))

    def normals(self, sim) -> int:
        dim = 2 if sim.z_scheme == "parabolic" else 3
        return self.path_steps(sim) * dim // (2 if sim.antithetic else 1)

    def round(self) -> list:
        return [timed(self._mc, model, spec, vol, sim) for _, _, model, spec, vol, sim in self.ops]

    def layer_counts(self, round_cpu_s: float, simulate_s: float) -> dict:
        """Counts from the configs, and the share of CPU time a round spends drawing normals.

        The share times the same Philox draws as the simulation makes (one
        substream per path block, one draw per step) on one thread, and divides
        by the CPU time of a simulated round, summed over its worker threads.
        """
        import numpy as np
        from parabolic_sv.monte_carlo import BLOCK_SIZE

        draw_s = 0.0
        for *_, sim in self.ops:
            n_steps = max(1, round(sim.steps_per_year * inputs.MC_MATURITY))
            dim = 2 if sim.z_scheme == "parabolic" else 3
            sizes = [BLOCK_SIZE] * (sim.n_paths // BLOCK_SIZE) + ([sim.n_paths % BLOCK_SIZE] if sim.n_paths % BLOCK_SIZE else [])
            t0 = time.perf_counter()
            for block, nb in enumerate(sizes):
                gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=sim.seed, spawn_key=(block,))))
                shape = (dim, nb // 2 if sim.antithetic else nb)
                for _ in range(n_steps):
                    gen.standard_normal(shape)
            draw_s += time.perf_counter() - t0
        steps = sum(self.path_steps(sim) for *_, sim in self.ops)
        return {
            "monte_carlo.path_steps": steps,
            "monte_carlo.path_steps_per_s": steps / (simulate_s * len(self.ops)),
            "monte_carlo.normals_per_path_step": sum(self.normals(sim) for *_, sim in self.ops) / steps,
            "monte_carlo.rng_share": draw_s / round_cpu_s,
        }

    def check(self, r: int, outs: list, report: Report) -> None:
        if r == 0:
            c = self.inp["exp"]
            fo = refs.first_order(inputs.SPOT, c["strike"], 0.0, inputs.MC_MATURITY, c["model"], c["kind"])
            c = self.inp["flat"]
            var = refs.deterministic_variance(c["model"], 0.0, inputs.MC_MATURITY, c["sim"]["steps_per_year"])
            bs = refs.bs_call(inputs.SPOT, c["strike"], inputs.RATE, math.sqrt(var / inputs.MC_MATURITY),
                              inputs.MC_MATURITY)
            self.ref = {
                "exp": lambda est: abs(est.price - fo["total"]) <= 0.005 * fo["q0"] + 4.0 * est.std_error,
                "flat": lambda est: abs(est.price - bs) <= 4.0 * est.std_error,
            }
            # one seed gives one path set: the same price for any worker count, in every round
            self.first = [getattr(est, "price", None) for est, _ in outs]
        for i, (est, _) in enumerate(outs):
            label, name = self.ops[i][:2]
            ok = (not isinstance(est, Exception) and self.ref[name](est)
                  and est.price == self.first[0 if name == "exp" else i])
            report.op(ok, False, f"round {r} {label}: {est!r}")
        # projected time for every estimate of the round to reach a 1-cent standard error
        report.latency.append(sum(dt * (getattr(est, "std_error", math.nan) / 0.01) ** 2 for est, dt in outs))


# ---------------------------------------------------------------------------
# cli_cold

CLI_MIX = ("price", "diagnose", "simulate", "calibrate")


def _cfg_text(pairs: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in pairs.items())


class CliCold:
    def __init__(self, seed: int, trace: bool):
        import parabolic_sv.cli  # noqa: F401  (set-up cost of a command-line user)

        self.inp = inputs.cli_cold(seed)
        self.trace = trace
        self.dir = OUT / f"cli-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        inp = self.inp
        price = {**inp["price_model"], **inp["contract"], "vol_kind": "separable_exp"}
        chain = self.dir / "chain.csv"
        chain.write_text("t,T,K,mid,x,r\n" + "".join(",".join(repr(v) for v in q) + "\n"
                                                     for q in inp["a_quotes"]))
        configs = {
            "price": price,
            "diagnose": price,
            "simulate": {**inp["sim_model"], **inp["sim"], "vol_kind": "y_constant", "n_workers": 1},
            "calibrate": {"chain": str(chain), "fit": "a", "k": inp["a_truth"]["k"], "r": inputs.RATE},
        }
        for cmd, pairs in configs.items():
            (self.dir / f"{cmd}.cfg").write_text(_cfg_text(pairs))
        self.env = dict(os.environ)
        self.calls = 0

    def _invoke(self, cmd: str):
        self.calls += 1
        out = self.dir / f"{cmd}-{self.calls}.out"
        argv = [sys.executable, str(HERE / "cli_entry.py"), cmd, "--config", str(self.dir / f"{cmd}.cfg"),
                "--out", str(out)]
        env = self.env
        if self.trace:
            env = dict(env, PERFBENCH_TRACE_OUT=str(self.dir / f"{cmd}-{self.calls}.trace"))
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        return (cmd, proc.returncode, proc.stdout, proc.stderr, out), dt

    def round(self) -> list:
        return [self._invoke(cmd) for cmd in CLI_MIX]

    def check(self, r: int, outs: list, report: Report) -> None:
        inp = self.inp
        c = inp["contract"]
        want = refs.first_order(c["spot"], c["strike"], c["t"], c["maturity"], inp["price_model"],
                                "separable_exp")
        sim = inp["sim"]
        var = refs.deterministic_variance(inp["sim_model"], sim["t"], sim["maturity"], sim["steps_per_year"])
        tau = sim["maturity"] - sim["t"]
        sim_bs = refs.bs_call(sim["spot"], sim["strike"], inputs.RATE, math.sqrt(var / tau), tau)
        sim_asym = refs.first_order(sim["spot"], sim["strike"], sim["t"], sim["maturity"], inp["sim_model"],
                                    "y_constant")["total"]
        for (cmd, code, stdout, stderr, out_path), dt in outs:
            rows = _rows(stdout, out_path) if code == 0 and not stderr else None
            checks = {
                "price": lambda: all(close(float(rows[k]), want[k], REL_PRINTED, 1.0)
                                     for k in ("z", "sigma_bar", "q0", "mod_factor", "p0",
                                               "time_factor", "d1d2", "total"))
                                 and close(float(rows["v"]), want["v"], REL_PRINTED),
                "diagnose": lambda: close(float(rows["sigma_bar"]), want["sigma_bar"], REL_PRINTED)
                                    and close(float(rows["v"]), want["v"], REL_PRINTED)
                                    and all(rows[k].startswith("PASS")
                                            for k in ("truncation", "time_coefficient", "quadrature",
                                                      "phi_residual", "classical_pde_residual")),
                "simulate": lambda: abs(float(rows["price"]) - sim_bs) <= 4.0 * float(rows["std_error"])
                                    and close(float(rows["asymptotic"]), sim_asym, REL_PRINTED),
                "calibrate": lambda: a_fit_ok(float(rows["a_hat"]), float(rows["objective"]),
                                              float(rows["sigma_bar_used"]), inp["a_quotes"],
                                              inp["a_truth"]["k"], rel=1e-7),
            }
            try:
                ok = rows is not None and checks[cmd]()
            except (KeyError, ValueError):  # a row missing or not a number
                ok = False
            report.op(ok, False, f"round {r} {cmd}: exit {code} {stderr[-300:]!r}")
            if ok and cmd == "price":
                report.latency.append(dt)
            out_path.unlink(missing_ok=True)

    def spans(self) -> list:
        spans = []
        for path in sorted(self.dir.glob("*.trace")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
        return spans

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _rows(stdout: str, out_path: Path) -> dict | None:
    """Report rows, or None unless stdout and the --out file hold the same rows."""
    try:
        written = [tuple(line.split("=", 1)) for line in out_path.read_text().splitlines() if line]
    except OSError:
        return None
    printed = [tuple(line.split(None, 1)) for line in stdout.splitlines() if line.strip()]
    return dict(printed) if printed == written else None


# ---------------------------------------------------------------------------
# layer probes for a traced run

#: Per-layer times and rates of each layer, and the short fixed call that
#: measures them when the workload itself never calls the layer.
PROBED = {
    "pricing": ("averaging.effective_params_us", "pricer.self_us", "black_scholes.call_us",
                "black_scholes.d1d2_us"),
    "calibration": ("calibration.fit_s", "calibration.objective_us", "calibration.optimizer_self_s",
                    "calibration.estimate_a_s"),
    "monte_carlo": ("monte_carlo.simulate_s", "monte_carlo.reduce_s", "monte_carlo.path_steps_per_s"),
    "cli": tuple(f"cli.run_s.{cmd}" for cmd in CLI_MIX),
}


def probe_layers(groups: list[str], trace_path: Path) -> dict:
    """Per-layer metrics of a short fixed call into each layer group, traced on its own.

    Runs after the timed section, so a workload reports a time for every layer:
    its own where it calls the layer, and this probe's where it does not.
    """
    import contextlib
    import io
    import random

    import layers
    import tracing

    tracer = tracing.Tracer("probe")
    tracing.install(tracer)  # before the imports below, so they bind the wrapped functions
    from parabolic_sv import (OptionQuote, OptionSpec, SimConfig, VolFunction, build_model,
                              calibrate_effective, estimate_a, load_chain, mc_price, price_first_order)
    from parabolic_sv import cli

    vol = VolFunction.separable_exp()
    out = {}
    if "pricing" in groups:
        for strike in (90.0, 100.0, 110.0):
            price_first_order(OptionSpec(inputs.SPOT, strike, 0.0, 0.5), build_model(), vol)
    if "calibration" in groups:
        calibrate_effective(load_chain(ROOT / "configs" / "chain_sample.csv"), n_restarts=0)
        truth, quotes = inputs.a_chain(random.Random(0))
        estimate_a([OptionQuote(*q) for q in quotes], truth["k"])
    if "monte_carlo" in groups:
        sim = SimConfig(n_paths=65536, steps_per_year=100, z_scheme="parabolic", antithetic=True)
        mc_price(build_model(a=2.0 * inputs.RATE + 1e-6), OptionSpec(inputs.SPOT, 100.0, 0.0, 0.5), vol, sim)
        out["path_steps"] = 65536 * 50
    if "cli" in groups:
        configs = CliCold(0, trace=False)
        for cmd in CLI_MIX:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([cmd, "--config", str(configs.dir / f"{cmd}.cfg")])
            tracer.spans[-1].setdefault("meta", {})["command"] = cmd  # the cli.main span
        configs.close()
    tracer.dump(trace_path)
    metrics = layers.from_spans([json.loads(line) for line in trace_path.read_text().splitlines()], 1)
    if "path_steps" in out:
        metrics["monte_carlo.path_steps_per_s"] = out["path_steps"] / metrics["monte_carlo.simulate_s"]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("price_scan", "calibrate", "mc_crosscheck", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace and args.workload != "cli_cold" and not args.setup_only:
        import tracing

        tracer = tracing.Tracer(args.workload)
        tracing.install(tracer)  # before set-up, so the workload holds the wrapped functions

    workers = min(2, os.cpu_count() or 1)
    if args.workload == "price_scan":
        work = PriceScan(args.seed)
    elif args.workload == "calibrate":
        work = Calibrate(args.seed)
    elif args.workload == "mc_crosscheck":
        work = McCrosscheck(args.seed, workers)
    else:
        work = CliCold(args.seed, bool(args.trace))
    ready = time.monotonic()
    if args.setup_only:
        if isinstance(work, CliCold):
            work.close()
        print(json.dumps({"ready": ready}))
        return 0

    # Each round is checked as soon as it ends, outside the timed calls, and
    # then dropped, so what the benchmark keeps does not grow with the run.
    report = Report()
    n_rounds, busy_s, cpus = 0, 0.0, []
    start = time.perf_counter()
    while True:
        c0 = time.process_time()
        outs = work.round()
        cpus.append(time.process_time() - c0)
        busy_s += sum(dt for _, dt in outs)
        work.check(n_rounds, outs, report)
        n_rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if isinstance(work, CliCold) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    ops = report.attempted - report.failed
    result = {
        "ready": ready,
        "rounds": n_rounds,
        "attempted": report.attempted,
        "failed": report.failed,
        "wrong": report.wrong[:20],
        "n_wrong": len(report.wrong),
        "ops": ops,
        "ops_per_s": ops / busy_s,
        "latency_ms": 1e3 * statistics.median(report.latency),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        import layers

        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        if tracer is not None:
            tracer.dump(trace_path)
            spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
        else:
            spans = work.spans()
            trace_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        per_layer = layers.from_spans(spans, n_rounds)
        if isinstance(work, McCrosscheck):
            per_layer.update(work.layer_counts(statistics.median(cpus), per_layer["monte_carlo.simulate_s"]))
        idle = [group for group, names in PROBED.items() if any(not per_layer.get(n) for n in names)]
        if idle:
            probed = probe_layers(idle, OUT / f"trace-{args.workload}-seed{args.seed}-probe.jsonl")
            for group in idle:
                per_layer.update({n: probed[n] for n in PROBED[group] if not per_layer.get(n)})
        result["per_layer"] = per_layer
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    if isinstance(work, CliCold):
        work.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
