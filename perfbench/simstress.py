"""The simulator workloads: stress schedules simulated and graded serially.

- ``sim-failure-free``: the stress harness's ``default`` profile with
  one application (``routing``) and no process ever failing; partitions,
  duplication, reordering and the output-commit/GC extension stay.  The
  cost of optimism while nothing fails, on the simulator.  One
  application, because the profile's five differ thirtyfold in cost and
  a median over their mix jumps between them.
- ``sim-stress``: the ``default`` profile itself, failures and all.

Schedules go through the stress harness's public API
(:func:`repro.stress.generate_case`, :func:`build_spec`,
:func:`check_case`, :func:`repro.harness.run_experiment`) in one
process, with no sockets, files or fsync.  The profile draws the system
size ``n`` and the application uniformly; a run walks that grid in
passes, one schedule per ``(application, n)`` cell per pass in a seeded
order, and the profile draws the rest of each schedule (horizon,
crashes, partitions, ...) from a seed-derived schedule seed.  That is
the profile's own mix, stratified.  A run grades ``SCHEDULES_PER_S``
times ``seconds`` schedules, a count fixed before it starts.

Every end-to-end time is scaled to the nominal host speed measured
around it (:mod:`perfbench.hostspeed`).

Correctness gate: every schedule runs without raising and ``check_case``
reports no violation.
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any

from perfbench import hostspeed, stats

SETUPS = 5
#: Schedules per second of --seconds: the run's fixed input size.
SCHEDULES_PER_S = 10.0

#: Run in a fresh interpreter: imports plus building the first schedule,
#: then the host-speed reference loop, so the set-up can be scaled too.
_SETUP_SCRIPT = """
import sys, time
begin = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from repro.harness import run_experiment
from repro.stress import build_spec, check_case, generate_case
build_spec(generate_case(int(sys.argv[3])))
took = time.perf_counter() - begin
from statistics import median
from perfbench.hostspeed import reference_seconds
print(took, median(reference_seconds() for _ in range(21)))
"""


def setup_seconds(seed: int) -> list[float]:
    """Fresh-interpreter set-up times, scaled to the nominal host speed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    times = []
    for i in range(SETUPS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT, os.path.join(root, "src"),
             root, str(seed + i)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        took, ref = map(float, out.stdout.split()[-2:])
        times.append(took * hostspeed.NOMINAL_S / ref)
    return times


def _generate(case_seed: int, profile):
    from repro.stress import build_spec, generate_case

    case = generate_case(case_seed, profile)
    return case, build_spec(case)


def profile_for(workload: str):
    from repro.stress import DEFAULT_PROFILE

    if workload == "sim-stress":
        return DEFAULT_PROFILE
    return dataclasses.replace(
        DEFAULT_PROFILE, name="failure-free", workloads=("routing",),
        max_failures_per_process=0, concurrent_burst_prob=0.0,
        crash_point_prob=0.0,
    )


def cells(profile) -> list[tuple[str, int]]:
    return [(w, n) for w in profile.workloads
            for n in range(profile.min_n, profile.max_n + 1)]


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        deadline: float) -> dict[str, Any]:
    """Simulate and grade ``SCHEDULES_PER_S * seconds`` schedules."""
    from repro.harness import run_experiment
    from repro.stress import check_case

    base = profile_for(workload)
    setups = setup_seconds(seed)
    recorder = None
    if trace:
        from perfbench import probes
        from perfbench.spans import Recorder
        from repro.obs.tracer import Tracer

        recorder = Recorder()
        probes.install(recorder, probes.CORE + probes.SIM_STORAGE
                       + probes.ANALYSIS)
        recorder.sample("storage.write")
        recorder.layer_of.update({"stress.generate": "stress",
                                  "sim.run": "sim",
                                  "analysis.check_case": "analysis"})

    def call(name, fn, *args, **kwargs):
        if recorder is None:
            return fn(*args, **kwargs)
        return recorder.call(name, fn, args, kwargs)

    rng = random.Random(seed)
    grid = cells(base)
    count = max(len(grid), int(round(SCHEDULES_PER_S * seconds)))
    plan = []
    for index in range(count):
        if index % len(grid) == 0:
            order = list(grid)
            rng.shuffle(order)
        plan.append((order[index % len(grid)], rng.randrange(1 << 31)))
    profiles = {
        cell: dataclasses.replace(base, workloads=(cell[0],),
                                  min_n=cell[1], max_n=cell[1])
        for cell in grid
    }

    durations: list[float] = []
    cpu_times: list[float] = []
    scales: list[float] = []
    failures: list[str] = []
    protocol_stats: list[dict[str, Any]] = []
    obs: dict[str, float] = {}
    sim_events = 0
    begin = time.perf_counter()
    before = hostspeed.reference_seconds()
    for cell, case_seed in plan:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{workload} passed its wall-clock cap")
        start = time.perf_counter()
        start_cpu = time.process_time()
        try:
            case, spec = call("stress.generate", _generate, case_seed,
                              profiles[cell])
            if trace:
                tracer = Tracer()
                spec = dataclasses.replace(spec, tracer=tracer)
            result = call("sim.run", run_experiment, spec)
            violations = call(
                "analysis.check_case", check_case, result, case,
                theorem_max_states=base.theorem_max_states,
            )
        except Exception as exc:   # a raising schedule is a failed op
            violations = [f"raised {exc!r}"]
        durations.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - start_cpu)
        after = hostspeed.reference_seconds()
        scales.append(2 * hostspeed.NOMINAL_S / (before + after))
        before = after
        if violations:
            failures.append(f"schedule seed {case_seed} {cell}: "
                            f"{violations[0]}")
            continue
        sim_events += result.sim.events_fired
        if trace:
            for proto in result.protocols:
                protocol_stats.append(dataclasses.asdict(proto.stats))
            for name, value in tracer.counters.items():
                obs[name] = obs.get(name, 0.0) + value
    elapsed = time.perf_counter() - begin
    for line in failures:
        print(f"gate: {line}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(plan),
        "failed": len(failures),
        "setups": setups,
        "durations": durations,
        "cpu_times": cpu_times,
        "scales": scales,
        "elapsed": elapsed,
        "sim_events": sim_events,
        "protocol_stats": protocol_stats,
        "obs": obs,
        "recorder": recorder,
    }


def end_to_end(run: dict[str, Any]) -> dict[str, float]:
    """Schedule times scaled to the nominal host speed (see hostspeed)."""
    ms = [d * k * 1e3 for d, k in zip(run["durations"], run["scales"])]
    return {
        "setup_s": statistics.median(run["setups"]),
        "op_p50_ms": stats.nearest_rank(ms, 0.50),
        "op_tail_ms": stats.tail(ms, 0.90),
        "cpu_ms_per_op": statistics.fmean(
            c * k * 1e3 for c, k in zip(run["cpu_times"], run["scales"])),
    }
