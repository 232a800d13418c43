"""Benchmark of parabolic-sv: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload price_scan --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed.  Workloads:

* ``price_scan``     one-contract first-order prices over a scan of models,
                     valuation dates and vol kinds (averaging-bound);
* ``calibrate``      ``calibrate_effective`` and ``estimate_a`` fits (kernel-bound);
* ``mc_crosscheck``  ``mc_price`` on two configs (Monte Carlo step loop);
* ``cli_cold``       fresh-interpreter ``price``/``diagnose``/``simulate``/``calibrate``.

The measured work runs in a fresh interpreter (``worker.py``).  Set-up time
is the median over ``SETUP_SAMPLES`` fresh interpreters, each timed from
launch until its inputs are built.  With ``--trace 0`` the last line carries
the end-to-end metrics; with ``--trace 1`` the run is traced and the last line
carries the per-layer metrics, and the spans go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = ("price_scan", "calibrate", "mc_crosscheck", "cli_cold")
#: Fresh interpreters timed for set-up, counting the measured one.
SETUP_SAMPLES = 5
#: Fresh imports of the CLI module timed in a traced run.
IMPORT_SAMPLES = 3
#: Wall-clock budget of one run, all child processes included.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_ms", "ms"),
)

PROBE = ("import sys, time; t0 = time.perf_counter(); import parabolic_sv.cli; "
         "print(time.perf_counter() - t0, len(sys.modules))")


class RunError(Exception):
    pass


def _child(argv: list[str], started: float, **kwargs) -> subprocess.CompletedProcess:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 1.0:
        raise RunError("out of time before starting " + " ".join(argv[1:3]))
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=left, **kwargs)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise RunError(f"{' '.join(argv[1:3])} did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _worker(args, started: float, *extra: str) -> tuple[dict, float]:
    """Run worker.py; return its report and its set-up time (launch to ready)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    launched = time.monotonic()
    proc = _child(argv, started)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - launched


def _cli_probes(started: float) -> dict:
    """Fresh-import time, scipy's part of it, and the module count of the CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        seconds, modules = _child([sys.executable, "-c", PROBE], started, env=env).stdout.split()
        samples.append((float(seconds), int(modules)))
    proc = _child([sys.executable, "-X", "importtime", "-c", "import parabolic_sv.cli"], started, env=env)
    return {
        "cli.import_s": statistics.median(s for s, _ in samples),
        "cli.scipy_import_s": layers.importtime_scipy_s(proc.stderr),
        "cli.modules_loaded": samples[0][1],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    missing = [p for p in ("src/parabolic_sv/__init__.py", "configs/chain_sample.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a parabolic-sv checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    try:
        setup = [_worker(args, started, "--setup-only")[1] for _ in range(SETUP_SAMPLES - 1)]
        report, ready_s = _worker(args, started)
        setup.append(ready_s)
        probes = _cli_probes(started) if args.trace else {}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in report["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    if args.trace:
        values = {**report["per_layer"], **probes}
        units = layers.METRICS
    else:
        values = dict(setup_s=statistics.median(setup), peak_rss_mb=report["peak_rss_mb"],
                      ops_per_s=report["ops_per_s"], latency_ms=report["latency_ms"])
        units = END_TO_END
    print(f"{args.workload} seed {args.seed}: {report['rounds']} rounds, {report['attempted']} operations, "
          f"{report['failed']} failed, {report['n_wrong']} wrong; {report['ops_per_s']:.6g} ops/s, "
          f"latency {report['latency_ms']:.6g} ms" + (f"; spans in {report['trace_file']}" if args.trace else ""))
    print(json.dumps({
        "correct": report["n_wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
