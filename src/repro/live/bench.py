"""Live-cluster throughput/latency benchmark (``BENCH_live.json``).

Two scenarios over the same 4-process pipeline workload:

- ``failure_free``: no crashes;
- ``one_crash``: one mid-run SIGKILL + restart.

Reported per scenario: delivery throughput, job-completion latency
percentiles (bootstrap to final-stage output, in env-time seconds), the
wire and storage cost per delivery (framed bytes, data frames and
storage persists -- each persist is one fsync), recovery lag for the
crash scenario (SIGKILL to the victim's RESTART trace event), and the
conformance verdict of the run.  Numbers are wall time on whatever
machine ran the benchmark -- they contextualise the protocol's live
behaviour, they are not simulator-grade deterministic.
"""

from __future__ import annotations

import os
from typing import Any

from repro.live.supervisor import (
    LiveClusterSpec,
    LiveCrashPlan,
    LiveRunResult,
    run_cluster,
)
from repro.analysis.metrics import percentile
from repro.live.verify import check_live_run
from repro.runtime.trace import EventKind


def active_window(trace: Any) -> tuple[float, float] | None:
    """The work interval of a live trace: first app delivery to last
    committed output.  This is the honest throughput denominator -- the
    wall-clock window additionally contains the readiness barrier, any
    crash-plan sleep padding, and the post-deadline linger, none of which
    the protocol can spend delivering messages."""
    delivers = trace.events(EventKind.DELIVER)
    outputs = trace.events(EventKind.OUTPUT)
    if not delivers or not outputs:
        return None
    start = min(e.time for e in delivers)
    end = max(e.time for e in outputs)
    if end <= start:
        return None
    return start, end


def _scenario_report(result: LiveRunResult) -> dict[str, Any]:
    spec = result.spec
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    outputs = result.trace.events(EventKind.OUTPUT)
    # Job latency: the pipeline bootstraps every job at env-time ~0, so
    # the output timestamp *is* the completion latency.
    latencies = sorted(e.time for e in outputs)
    makespan = latencies[-1] if latencies else None
    delivered = result.total_delivered
    window = active_window(result.trace)
    active_seconds = (window[1] - window[0]) if window else None
    done = result.done.values()
    wire_bytes = sum(d["transport"]["bytes_sent"] for d in done)
    fsyncs = sum(d["storage_persists"] for d in done)
    report: dict[str, Any] = {
        "verdict": verdict.summary(),
        "ok": verdict.ok,
        "jobs": spec.jobs,
        "outputs_committed": verdict.outputs_committed,
        "wall_seconds": round(result.wall_seconds, 3),
        "active_seconds": (
            round(active_seconds, 4) if active_seconds else None
        ),
        "app_deliveries": delivered,
        # Active-window rate: deliveries over first-delivery -> last-
        # output.  The wall rate divides by the whole run (barrier +
        # crash padding + linger included) and is kept for context.
        "deliveries_per_second": (
            round(delivered / active_seconds, 2)
            if active_seconds
            else None
        ),
        "deliveries_per_second_wall": (
            round(delivered / result.wall_seconds, 2)
            if result.wall_seconds > 0
            else None
        ),
        "data_frames_sent": sum(
            d["transport"]["data_frames_sent"] for d in done
        ),
        "wire_bytes_per_delivery": (
            round(wire_bytes / delivered, 1) if delivered else None
        ),
        "fsyncs_per_delivery": (
            round(fsyncs / delivered, 2) if delivered else None
        ),
        "job_latency_s": {
            "p50": percentile(latencies, 0.50),
            "p90": percentile(latencies, 0.90),
            "p99": percentile(latencies, 0.99),
            "max": makespan,
        },
        "exit_codes": {
            str(pid): code for pid, code in sorted(result.exit_codes.items())
        },
    }
    if result.kills:
        lags = []
        for pid, kill_time in result.kills:
            restart = next(
                (
                    e
                    for e in result.trace.events(EventKind.RESTART, pid)
                    if e.time > kill_time
                ),
                None,
            )
            if restart is not None:
                lags.append(restart.time - kill_time)
        report["crashes"] = [
            {"pid": pid, "at_s": round(t, 3)} for pid, t in result.kills
        ]
        report["recovery_lag_s"] = (
            [round(lag, 3) for lag in lags] if lags else None
        )
    return report


def run_live_bench(
    workdir: str,
    *,
    n: int = 4,
    jobs: int = 64,
    run_seconds: float = 6.0,
    crash_at: float = 0.25,
    downtime: float = 1.0,
) -> dict[str, Any]:
    """Run both scenarios; returns the ``BENCH_live.json`` payload."""
    scenarios: dict[str, Any] = {}

    spec = LiveClusterSpec(n=n, jobs=jobs, run_seconds=run_seconds)
    result = run_cluster(spec, os.path.join(workdir, "failure_free"))
    scenarios["failure_free"] = _scenario_report(result)

    spec = LiveClusterSpec(
        n=n,
        jobs=jobs,
        run_seconds=run_seconds,
        crashes=[LiveCrashPlan(pid=1, at=crash_at, downtime=downtime)],
    )
    result = run_cluster(spec, os.path.join(workdir, "one_crash"))
    scenarios["one_crash"] = _scenario_report(result)

    return {
        "benchmark": "live-cluster",
        "protocol": "damani-garg",
        "n": n,
        "jobs": jobs,
        "run_seconds": run_seconds,
        "scenarios": scenarios,
    }
