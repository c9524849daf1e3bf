"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace --out bench/baseline.json

Each (workload, seed) runs ``bench/run.py`` in its own process, one at a
time, untraced and (with ``--trace``) traced right after.  For every end-to-end metric
it prints the median and the quartile spread (q3 - q1) / median of the
values over the seeds, flagged against a third of the metric's bound in
BENCHMARK.json; ``setup_s`` is exempt from the spread rule.  ``--out``
writes the summary, the traced per-layer medians (per pass), the tracing
slowdown and ``lattice.theta.points_total`` per seed as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPREAD_EXEMPT = ("setup_s",)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": args.seeds, "run_seconds": args.seconds, "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs, traced = [], []
        for seed in args.seeds:
            runs.append(run_one(workload, seed, args.seconds, False))
            # traced right after untraced on the same seed, so that the
            # overhead ratio compares runs made under the same machine load
            if args.trace:
                traced.append(run_one(workload, seed, args.seconds, True))
        if not all(r["correct"] for r in runs):
            steady = False
            print(f"{workload}: ops failed in {sum(not r['correct'] for r in runs)} runs")
        entry: dict = {"ops_attempted": [r["attempted"] for r in runs],
                       "ops_failed": [r["failed"] for r in runs], "end_to_end": {}}
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in runs])
            ok = name in SPREAD_EXEMPT or s["spread"] < bounds[name] / 3.0
            steady = steady and ok
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], **s}
            print(f"{workload:<15} {name:<12} median {s['median']:>12.5g} "
                  f"spread {s['spread']:6.3f} (bound/3 {bounds[name] / 3.0:.3f})"
                  f"{'' if ok else '  UNSTEADY'}  "
                  + " ".join(f"{v:.4g}" for v in s["values"]))
        if args.trace:
            layers = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                      for name in traced[0]["metrics"]}
            entry["per_layer_median"] = layers
            entry["lattice.theta.points_total_by_seed"] = {
                str(seed): r["metrics"]["lattice.theta.points_total"]["value"]
                for seed, r in zip(args.seeds, traced)}
            slowdown = statistics.median(
                u["metrics"]["ops_per_s"]["value"] / t["metrics"]["trace.ops_per_s"]["value"]
                for u, t in zip(runs, traced))
            entry["tracing_slowdown_median"] = slowdown
            print(f"{workload:<15} tracing slowdown, untraced over traced ops_per_s "
                  f"paired by seed: median {slowdown:.3f}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
