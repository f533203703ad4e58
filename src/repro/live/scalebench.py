"""Scale sweep: does the piggyback really stay O(n)?  (Sec 6.9.)

The paper's headline efficiency claim is that the recovery state a
damani-garg message carries -- the failure-tagged vector clock -- grows
linearly in the process count and needs no extra control messages.  Every
other benchmark in this repo runs n=4, where any encoding looks cheap.
``python -m repro bench scale`` runs one *live* cluster per n in
{4, 8, 16, 32, 64} and charts, against n:

- **piggyback bytes/msg**, full-JSON vs delta-encoded, from the
  ``dg.wire_*`` observability counters the protocol maintains per real
  clock sent (exact wire bytes, not estimates);
- **fsyncs per delivery** (storage persists over messages delivered);
- **deliveries per second** over the trace's active window.

The payload (``BENCH_scale.json``) includes a fitted growth exponent for
both encodings: least squares on log(bytes/msg) vs log(n), so "O(n)"
becomes a number CI can gate (exponent <= ~1.3 allows constant factors
and small-n noise while still rejecting anything quadratic).

Each scenario is an (n+1)-process job -- n nodes plus the supervising
worker -- so the sweep schedules its scenarios through
:class:`~repro.exec.runner.ProcessBudget` admission: scenarios run
concurrently only while their combined process count fits the budget,
which is what keeps an n=64 cluster from landing on top of four other
clusters and timing out its readiness barrier.

Pipeline jobs are *fixed* across n (default 12): the workload per job is
one traversal of the stage chain, so message count grows ~linearly with n
and the per-message piggyback is measured under comparable load, not
under an n-squared message storm.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Sequence

from repro.bench import Trend
from repro.live.bench import active_window
from repro.live.supervisor import LiveClusterSpec, run_cluster
from repro.live.verify import check_live_run
from repro.runtime.trace import EventKind

SCALE_BENCH_FORMAT = "repro-scale-bench-v1"

#: Default cluster sizes.  The last point is 65 OS processes; the
#: admission controller is what makes running it routine.
DEFAULT_NS = (4, 8, 16, 32, 64)
DEFAULT_JOBS = 12


def scale_spec(
    *, n: int, jobs: int = DEFAULT_JOBS, stop_path: str | None = None
) -> LiveClusterSpec:
    """Cluster spec for one scale point.

    ``run_seconds`` is a *cap*, not the duration: the scenario publishes
    ``stop_path`` the moment the final stage has committed every job, so
    small n finish in a couple of seconds while the cap grows with n to
    absorb the serialized interpreter boot storm on small machines.
    Checkpoint/flush cadence is uniform across n and deliberately
    relaxed (2 s / 0.5 s): the sweep measures piggyback growth, and a
    64-node fsync storm on the default 0.5 s cadence would swamp the
    delivery path it is trying to time.
    """
    return LiveClusterSpec(
        n=n,
        jobs=jobs,
        run_seconds=20.0 + 0.9 * n,
        linger=1.0,
        checkpoint_interval=2.0,
        flush_interval=0.5,
        stop_path=stop_path,
        obs=True,
    )


def _watch_for_completion(
    trace_path: str, jobs: int, stop_path: str, deadline_mono: float
) -> None:
    """Publish ``stop_path`` once the final stage has committed ``jobs``
    outputs (counted from its trace file), or at the deadline.

    Trace batching delays visibility by at most the buffer age cap
    (50 ms by default) -- noise against the multi-second run cap.
    """
    needle = b'"kind":"output"'
    while time.monotonic() < deadline_mono:
        try:
            with open(trace_path, "rb") as fh:
                if fh.read().count(needle) >= jobs:
                    break
        except OSError:
            pass
        time.sleep(0.1)
    tmp = stop_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("done\n")
    os.replace(tmp, stop_path)


def run_scale_scenario(payload: dict[str, Any]) -> dict[str, Any]:
    """One scale point: run a live n-node cluster, return its metrics.

    Module-level and JSON-in/JSON-out so the exec engine can ship it to a
    worker process (``Task.fn = "repro.live.scalebench:run_scale_scenario"``,
    weighted ``n + 1`` slots).
    """
    n = int(payload["n"])
    jobs = int(payload.get("jobs", DEFAULT_JOBS))
    workdir = payload["workdir"]
    os.makedirs(workdir, exist_ok=True)
    stop_path = os.path.join(workdir, "stop")
    if os.path.exists(stop_path):
        os.remove(stop_path)
    spec = scale_spec(n=n, jobs=jobs, stop_path=stop_path)

    # The last pipeline stage commits the outputs; watching its trace is
    # the cheapest cluster-completion signal that needs no extra channel.
    watcher = threading.Thread(
        target=_watch_for_completion,
        args=(
            os.path.join(workdir, f"trace_p{n - 1}.jsonl"),
            jobs,
            stop_path,
            time.monotonic() + spec.run_seconds + 60.0,
        ),
        daemon=True,
    )
    watcher.start()
    result = run_cluster(spec, workdir)
    watcher.join(timeout=5.0)

    verdict = check_live_run(result.trace, n=n, jobs=jobs)

    # --- piggyback: exact wire bytes from the dg.wire_* counters -------
    counters: dict[str, float] = {}
    for done in result.done.values():
        for name, value in done.get("obs", {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
    clocks_sent = counters.get("dg.wire_clocks_sent", 0.0)
    full_json_bytes = counters.get("dg.wire_bytes_full_json", 0.0)
    delta_bytes = counters.get("dg.wire_bytes_delta", 0.0)

    # Deterministic fallback the simulator also records (ProtocolStats):
    # kept in the report so the obs numbers can be cross-checked, and so
    # a run without obs still says *something* about piggyback growth.
    stat_piggyback_bits = sum(
        d["stats"]["piggyback_bits"] for d in result.done.values()
    )
    stat_delta_bits = sum(
        d["stats"]["piggyback_delta_bits"] for d in result.done.values()
    )

    delivered = sum(
        d["transport"]["delivered"] for d in result.done.values()
    )
    persists = sum(d["storage_persists"] for d in result.done.values())
    window = active_window(result.trace)
    active_seconds = (window[1] - window[0]) if window else None
    outputs = len(result.trace.events(EventKind.OUTPUT))

    report: dict[str, Any] = {
        "n": n,
        "jobs": jobs,
        "ok": verdict.ok,
        "verdict": verdict.summary(),
        "exit_codes_ok": all(
            code == 0 for code in result.exit_codes.values()
        ),
        "wall_seconds": round(result.wall_seconds, 3),
        "active_seconds": (
            round(active_seconds, 4) if active_seconds else None
        ),
        "deliveries": delivered,
        "deliveries_per_second": (
            round(delivered / active_seconds, 2)
            if active_seconds
            else None
        ),
        "outputs_committed": outputs,
        "storage_persists": persists,
        "fsyncs_per_delivery": (
            round(persists / delivered, 4) if delivered else None
        ),
        "clocks_sent": int(clocks_sent),
        "full_json_bytes_per_msg": (
            round(full_json_bytes / clocks_sent, 2) if clocks_sent else None
        ),
        "delta_bytes_per_msg": (
            round(delta_bytes / clocks_sent, 2) if clocks_sent else None
        ),
        "wire_full_fallbacks": int(
            counters.get("dg.wire_full_fallbacks", 0.0)
        ),
        "stats_piggyback_bytes": stat_piggyback_bits / 8.0,
        "stats_piggyback_delta_bytes": stat_delta_bits / 8.0,
        "trace_records": sum(
            d["trace_records"] for d in result.done.values()
        ),
        "trace_flushes": sum(
            d["trace_flushes"] for d in result.done.values()
        ),
        "delivery_batch_max": max(
            (d["delivery_batch_max"] for d in result.done.values()),
            default=0,
        ),
    }
    return report


def fit_growth_exponent(
    points: Sequence[tuple[float, float]]
) -> float | None:
    """Least-squares slope of log(y) on log(x): the growth exponent.

    Two or more positive points required; the slope is what "bytes/msg
    is O(n^k)" means empirically.
    """
    usable = [(x, y) for x, y in points if x > 0 and y and y > 0]
    if len(usable) < 2:
        return None
    logs = [(math.log(x), math.log(y)) for x, y in usable]
    mean_x = sum(lx for lx, _ in logs) / len(logs)
    mean_y = sum(ly for _, ly in logs) / len(logs)
    denom = sum((lx - mean_x) ** 2 for lx, _ in logs)
    if denom == 0:
        return None
    slope = (
        sum((lx - mean_x) * (ly - mean_y) for lx, ly in logs) / denom
    )
    return slope


def run_scale_bench(
    workdir: str,
    *,
    ns: Sequence[int] = DEFAULT_NS,
    jobs: int = DEFAULT_JOBS,
    runner_jobs: int = 2,
    budget_slots: int | None = None,
) -> dict[str, Any]:
    """Run one live cluster per n; return the ``BENCH_scale.json`` payload.

    Scenarios go through the exec engine under a
    :class:`~repro.exec.runner.ProcessBudget` (default:
    ``ProcessBudget.default()``, one slot per CPU).  Each scenario is
    weighted ``n + 1`` slots, so on a big machine small clusters overlap
    while an n=64 scenario gets the box to itself -- and on a small
    machine everything serialises, which is the honest schedule there.
    """
    from repro.exec.runner import ParallelRunner, ProcessBudget
    from repro.exec.tasks import Task

    os.makedirs(workdir, exist_ok=True)
    budget = (
        ProcessBudget(budget_slots)
        if budget_slots
        else ProcessBudget.default()
    )
    tasks = [
        Task(
            fn="repro.live.scalebench:run_scale_scenario",
            payload={
                "n": n,
                "jobs": jobs,
                "workdir": os.path.join(workdir, f"n_{n}"),
            },
            label=f"n={n}",
            cacheable=False,        # timing measurement; never serve stale
            slots=n + 1,            # n nodes + the supervising worker
        )
        for n in ns
    ]
    runner = ParallelRunner(jobs=max(1, runner_jobs), budget=budget)
    outcomes = runner.map(tasks)

    scenarios: dict[str, Any] = {}
    for n, outcome in zip(ns, outcomes):
        if outcome.ok:
            scenarios[f"n_{n}"] = outcome.value
        else:
            scenarios[f"n_{n}"] = {
                "n": n,
                "ok": False,
                "verdict": f"scenario failed: {outcome.error}",
            }

    full_points = [
        (s["n"], s.get("full_json_bytes_per_msg"))
        for s in scenarios.values()
    ]
    delta_points = [
        (s["n"], s.get("delta_bytes_per_msg")) for s in scenarios.values()
    ]
    full_exp = fit_growth_exponent(full_points)
    delta_exp = fit_growth_exponent(delta_points)
    return {
        "format": SCALE_BENCH_FORMAT,
        "benchmark": "live-scale",
        "protocol": "damani-garg",
        "ns": list(ns),
        "jobs": jobs,
        "runner_jobs": runner_jobs,
        "budget_slots": budget.slots,
        "cpus": os.cpu_count(),
        "growth": {
            # The paper's claim is linear piggyback: exponent ~1 for the
            # full clock.  The delta encoding should grow strictly
            # slower (unchanged entries are elided), so its exponent is
            # the more impressive number -- but the O(n) gate applies to
            # both.
            "full_json_exponent": (
                round(full_exp, 3) if full_exp is not None else None
            ),
            "delta_exponent": (
                round(delta_exp, 3) if delta_exp is not None else None
            ),
            "full_json_bytes_per_msg": {
                str(n): v for n, v in full_points
            },
            "delta_bytes_per_msg": {str(n): v for n, v in delta_points},
        },
        "scenarios": scenarios,
    }


# ---------------------------------------------------------------------------
# Regression gates (CI)
# ---------------------------------------------------------------------------
def check_scale_payload(
    payload: dict[str, Any], *, max_exponent: float = 1.3
) -> list[str]:
    """Gate over a finished sweep; returns human-readable violations.

    - every scenario's oracle verdict must PASS;
    - the delta encoding must be *strictly* cheaper than full JSON at
      every n (the wire suite's claim, now at scale);
    - both fitted growth exponents must stay at or below
      ``max_exponent`` -- the empirical form of the paper's O(n) claim,
      with headroom for constant factors and small-n noise.
    """
    problems: list[str] = []
    for name, s in payload.get("scenarios", {}).items():
        if not s.get("ok"):
            problems.append(f"{name}: oracle FAIL ({s.get('verdict')})")
            continue
        full = s.get("full_json_bytes_per_msg")
        delta = s.get("delta_bytes_per_msg")
        if not s.get("clocks_sent"):
            problems.append(f"{name}: no clocks observed (obs off?)")
        elif full is None or delta is None:
            problems.append(f"{name}: piggyback bytes missing")
        elif delta >= full:
            problems.append(
                f"{name}: delta encoding ({delta:.1f} B/msg) not below "
                f"full JSON ({full:.1f} B/msg)"
            )
    growth = payload.get("growth", {})
    for label in ("full_json_exponent", "delta_exponent"):
        exponent = growth.get(label)
        if exponent is None:
            problems.append(f"growth: {label} could not be fitted")
        elif exponent > max_exponent:
            problems.append(
                f"growth: {label} {exponent:.2f} exceeds {max_exponent} "
                f"-- piggyback growth is not O(n)"
            )
    return problems


def _trend_row(payload: dict[str, Any]) -> dict[str, Any]:
    growth = payload.get("growth", {})
    return {
        "ns": payload.get("ns"),
        "jobs": payload.get("jobs"),
        "full_json_exponent": growth.get("full_json_exponent"),
        "delta_exponent": growth.get("delta_exponent"),
        "full_json_bytes_per_msg": growth.get("full_json_bytes_per_msg"),
        "delta_bytes_per_msg": growth.get("delta_bytes_per_msg"),
        "cpus": payload.get("cpus"),
    }


#: Cross-run trend of the per-n delta piggyback: for every n both this
#: sweep and a recorded row measured, fail beyond 1.5x the best recorded
#: bytes/msg.  Wire sizes are near-deterministic for a fixed workload, so
#: this catches an encoding regression, not scheduling noise.
TREND = Trend(
    row=_trend_row,
    metric=lambda row: {
        f"n={n} delta piggyback B/msg": value
        for n, value in (row.get("delta_bytes_per_msg") or {}).items()
    },
    better="lower",
    tolerance=1.5,
)
