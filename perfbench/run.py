#!/usr/bin/env python3
"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, run from the checkout root.

Workloads (``manifest.json`` says what every metric means):

- ``kv-steady``: open-loop KV traffic against one live shard;
- ``kv-crash``: the same traffic with one replica SIGKILLed mid-run;
- ``sim-failure-free``: stress schedules with no process failure,
  simulated and graded in-process;
- ``sim-stress``: the stress harness's default profile, failures and all.

BENCHMARK.json names the workloads the regression gate runs.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` a separate traced run carries the
per-layer metrics instead.  Each run works in a fresh directory under
``.perfbench_work/`` of the checkout and runs under a wall-clock cap.
A run whose correctness gate fails prints ``"correct": false``; one that
raises or hits the cap prints ``"correct": false`` with every planned op
failed and no metric, and exits 1.  Outside a checkout with
``src/repro`` it exits 2 without a result.  One run at a time per
checkout: a run clears ``.perfbench_work/`` and kills any node left
there when it starts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("kv-steady", "kv-crash", "sim-failure-free", "sim-stress")
#: A run that has not finished after this many seconds counts as failed.
WALL_CAP = 150.0

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "manifest.json")


def emit(correct: bool, attempted: int, failed: int,
         values: dict[str, float], section: str, workload: str) -> None:
    """Print the result line.

    End-to-end: every metric.  Per-layer: every metric measured on a
    workload of BENCHMARK.json, plus those only ``workload`` measures;
    a layer ``workload`` does not exercise reads 0.  A run that failed a
    correctness gate prints no metric at all.
    """
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    shown = set(manifest["benchmark_workloads"]) | {workload}
    unit_of = {}
    for name, spec in manifest[section].items():
        if correct and (section == "end_to_end"
                        or shown & set(spec["workloads"])):
            unit_of[name] = spec["unit"]
            if name not in values:
                if workload in spec.get("workloads", ()):
                    raise RuntimeError(f"metric {name} never measured")
                values[name] = 0.0
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit_of[name]}
            for name in sorted(unit_of)
        },
    }))


def traced(end_to_end: dict[str, float], per_layer: dict[str, float]
           ) -> dict[str, float]:
    """Per-layer metrics plus the traced run's own end-to-end figures,
    whose ratio to an untraced run's is the tracing overhead."""
    per_layer.update({f"traced.{name}": end_to_end[name]
                      for name in ("op_p50_ms", "op_tail_ms",
                                   "cpu_ms_per_op")})
    return per_layer


def run_kv(args, work: str) -> tuple[bool, int, int, dict[str, float]]:
    from perfbench import kv, layers

    async def bounded():
        return await asyncio.wait_for(
            kv.run_async(args.workload, args.seed, args.seconds,
                         bool(args.trace), work),
            WALL_CAP,
        )

    run = asyncio.run(bounded())
    values = kv.end_to_end(run)
    if args.trace:
        values = traced(values,
                        layers.kv_layers(run, os.path.join(work, "spans")))
    return run["correct"], run["attempted"], run["failed"], values


def run_sim(args, work: str) -> tuple[bool, int, int, dict[str, float]]:
    from perfbench import layers, simstress

    run = simstress.run(args.workload, args.seed, args.seconds,
                        bool(args.trace),
                        deadline=time.monotonic() + WALL_CAP)
    values = simstress.end_to_end(run)
    if args.trace:
        values = traced(values, layers.sim_layers(run))
        run["recorder"].dump(os.path.join(work, "spans_sim.json"))
    return run["correct"], run["attempted"], run["failed"], values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import procs

    # A node left by an earlier run would steal CPU from this one.  The
    # last run's files (traces, done reports, images, spans) are kept
    # until now, so any run can be looked into after it ends.
    os.makedirs(WORK_ROOT, exist_ok=True)
    leftovers = procs.kill_nodes(WORK_ROOT)
    if leftovers:
        print(f"killed {leftovers} node(s) left by an earlier run",
              file=sys.stderr)
    procs.fresh_dir(WORK_ROOT)
    work = procs.fresh_dir(os.path.join(
        WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}"))
    section = "per_layer" if args.trace else "end_to_end"
    sim = args.workload.startswith("sim-")
    try:
        correct, attempted, failed, values = (run_sim if sim else run_kv)(
            args, work)
    except Exception:   # the run's boundary: report it failed, not missing
        traceback.print_exc()
        from perfbench import kv, simstress

        rate = simstress.SCHEDULES_PER_S if sim else kv.RATE
        planned = max(1, int(round(rate * args.seconds)))
        print(json.dumps({"correct": False, "attempted": planned,
                          "failed": planned, "metrics": {}}))
        return 1
    finally:
        procs.kill_nodes(WORK_ROOT)
    emit(correct, attempted, failed, values, section, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
