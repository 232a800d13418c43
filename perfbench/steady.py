"""Steadiness of the benchmark: many runs, quartiles per metric.

    python3 perfbench/steady.py --seeds 1-10 --seconds 15
    python3 perfbench/steady.py --workloads calibrate --seeds 1-5 --seconds 15 --save a.json
    python3 perfbench/steady.py --seeds 11-20 --seconds 15 --compare a.json

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
every end-to-end metric the median, the quartiles, and the spread: the
distance between the quartiles as a share of the median.  A spread within a
third of the metric's bound in ``BENCHMARK.json`` is marked ``ok``; set-up
time is only compared between sets, not bounded by its spread.  The share of
failed operations must be the same in every run of a workload.  With
``--compare`` each median is also set against the saved one: ``worse`` marks a
shift in the bad direction by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and spread of every metric over the runs of one workload."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = dict(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0,
                         values=values)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write the runs and their summary to this JSON file")
    ap.add_argument("--compare", help="a file written by --save to compare medians against")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    before = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved = {}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, args.seconds) for seed in _seeds(args.seeds)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        summary = summarize(runs)
        saved[workload] = dict(runs=runs, summary=summary)
        print(f"\n{workload}: {len(runs)} runs, {max(r['wall_s'] for r in runs):.0f} s longest, "
              f"failed share {'same in every run' if len(shares) == 1 else 'DIFFERS'} "
              f"({sorted(shares)}), correct {all(r['correct'] for r in runs)}")
        for name, s in summary.items():
            line = f"  {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} " \
                   f"spread {s['spread']:6.2%}"
            if name in bounds:
                bound = bounds[name]["bound"]
                if name != "setup_s":
                    line += f"  {'ok' if s['spread'] < bound / 3 else 'WIDE'} (bound {bound:.0%})"
                old = before.get(workload, {}).get("summary", {}).get(name)
                if old:
                    shift = s["median"] / old["median"] - 1.0
                    worse = shift > bound if bounds[name]["better"] == "lower" else -shift > bound
                    line += f"  vs saved {shift:+.2%} {'WORSE' if worse else 'within bound'}"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
