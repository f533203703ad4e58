#!/usr/bin/env python3
"""Steadiness and tracing-overhead check of the benchmark.

``python3 perfbench/check.py [--seeds 1-10] [--workload W ...]
[--out perfbench/results/validation.json]`` runs ``run.py`` once per
seed and workload with tracing off, then once per workload with tracing
on, and reports for every end-to-end metric its median and its spread
(inter-quartile distance over the median, as ``statistics.quantiles``
gives the quartiles) next to the bound in BENCHMARK.json, plus the
tracing overhead: the traced run's ``traced.*`` figures over the
untraced medians, minus one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import relative_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(prog="perfbench/check.py")
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--workload", action="append",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report: dict = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "event_loop": "asyncio (stock)",
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": args.seeds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry: dict = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = relative_spread(values)
            entry["metrics"][name] = {
                "values": values, "median": statistics.median(values),
                "spread": spread, "bound": bound,
            }
            line = (f"{workload:18s} {name:14s} median "
                    f"{statistics.median(values):10.4f}  spread "
                    f"{spread:6.3f}  bound {bound}")
            if name != "setup_s" and spread > bound / 3:
                line += "  (above a third of the bound)"
                steady = False
            print(line, flush=True)
        metrics = traced["metrics"]
        entry["tracing_overhead"] = {
            name: metrics[f"traced.{name}"]["value"]
            / statistics.median(r["metrics"][name]["value"] for r in runs)
            - 1.0
            for name in ("op_p50_ms", "cpu_ms_per_op")
        }
        entry["traced_run"] = {k: v["value"] for k, v in metrics.items()}
        print(f"{workload:18s} tracing overhead "
              f"{entry['tracing_overhead']}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady and all(
        w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
