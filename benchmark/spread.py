"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 benchmark/spread.py --seeds 10 [--workload forest-axp ...] [--baseline FILE]

Runs happen one after another in this process's checkout.  For every
workload and end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  ``--baseline`` also writes the medians, spreads and the
machine they were measured on to FILE.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--baseline", help="write medians, spreads and environment here")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {}
    for name in names:
        runs = [run_once(name, seed, 0) for seed in seeds]
        traced = run_once(name, seeds[0], 1)
        report[name] = {
            "seeds": list(seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds},
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in report[name]["end_to_end"].items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  (over a third of the bound)"
            print(f"{name:14s} {metric:18s} median {s['median']:12.4f}  spread {s['spread']:.3f}"
                  f"  bound {bounds[metric]}{flag}", flush=True)
        print(f"{name:14s} attempted {report[name]['attempted']} failed {report[name]['failed']}",
              flush=True)
    if args.baseline:
        env = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": SPEC["run_seconds"],
        }
        Path(args.baseline).write_text(json.dumps({"env": env, "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
