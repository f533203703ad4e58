"""Open-loop load generation for the live cluster (``BENCH_load.json``).

The classic pipeline benchmark is *closed-loop*: stage 0 bootstraps all
jobs in one burst, so its "throughput" is the workload's send cadence,
not a system limit, and its latency distribution is one burst's drain
time.  This module replaces the burst with an **open-loop source**: job
``j`` has a deterministic intended injection time ``start_at + j/rate``,
and the source injects every job whose intended time has passed whenever
it runs.  Falling behind does not slow the schedule down -- the next tick
injects the backlog -- so measured latency includes queueing delay the
way a real client would see it (no coordinated omission).

Latency is graded from the merged trace alone: job ``j`` completes at its
OUTPUT event's timestamp, and its latency is that timestamp minus the
*intended* injection time -- which the grader recomputes from ``(rate,
start_at)``, so the measurement cannot be gamed by a late injector.

The sweep driver runs one live cluster per offered rate and reports
honest p50/p99 latency-vs-offered-load curves plus active-window
throughput, with every scenario graded by the same closed-form oracle as
the classic benchmark (:func:`~repro.live.verify.check_live_run` -- the
injected payloads are byte-identical to bootstrap's, so the reference
values are unchanged).
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from repro.analysis.metrics import percentile
from repro.apps.applications import Job, PipelineApp, mix64
from repro.bench import Trend
from repro.live.bench import active_window
from repro.live.supervisor import LiveClusterSpec, LiveRunResult, run_cluster
from repro.live.verify import check_live_run
from repro.runtime.trace import EventKind


class LoadPipelineApp(PipelineApp):
    """The pipeline stages without the bootstrap burst.

    Stage behaviour (and therefore the closed-form reference values) is
    identical to :class:`PipelineApp`; jobs arrive from an
    :class:`OpenLoopSource` instead of one bootstrap-time burst.
    """

    def bootstrap(self, pid: int, n: int, ctx: Any) -> None:
        return


class OpenLoopSource:
    """Inject pipeline jobs at a fixed offered rate, open-loop.

    Engine-agnostic: drives any protocol through its ``env`` timer API
    (:meth:`~repro.runtime.env.RuntimeEnv.schedule_after`), so the same
    source runs on the deterministic simulator and on a live node.  Only
    the process that never receives app messages (stage 0) may host the
    source -- see :meth:`DamaniGargProcess.inject_app_send`.
    """

    def __init__(
        self,
        protocol: Any,
        *,
        rate: float,
        jobs: int,
        start_at: float = 0.25,
        dst: int = 1,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"offered rate must be positive, got {rate}")
        if jobs < 0:
            raise ValueError(f"job count must be >= 0, got {jobs}")
        self.protocol = protocol
        self.rate = float(rate)
        self.jobs = int(jobs)
        self.start_at = float(start_at)
        self.dst = dst
        self.injected = 0
        self._handle: Any | None = None
        self._stopped = False

    def intended_time(self, job: int) -> float:
        """The deterministic open-loop schedule: when job ``job`` is
        *supposed* to enter the system, in env-time seconds."""
        return self.start_at + job / self.rate

    def start(self) -> None:
        env = self.protocol.env
        self._schedule(max(0.0, self.start_at - env.now))

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def done(self) -> bool:
        return self.injected >= self.jobs

    def _schedule(self, delay: float) -> None:
        self._handle = self.protocol.env.schedule_after(
            delay, self._tick, label="load-source"
        )

    def _tick(self) -> None:
        if self._stopped:
            return
        env = self.protocol.env
        # Inject the whole backlog: every job whose intended time has
        # passed.  A tick that fires late (busy event loop) catches up in
        # a burst instead of stretching the schedule -- that is what
        # makes the load open-loop.
        now = env.now
        while self.injected < self.jobs and self.intended_time(
            self.injected
        ) <= now:
            job = self.injected
            self.injected += 1
            self.protocol.inject_app_send(
                self.dst, Job(job_id=job, stage=1, value=mix64(job, 0))
            )
        if self.injected < self.jobs and not self._stopped:
            self._schedule(
                max(0.0, self.intended_time(self.injected) - env.now)
            )

    def report(self) -> dict[str, Any]:
        return {
            "offered_rate": self.rate,
            "jobs": self.jobs,
            "start_at": self.start_at,
            "injected": self.injected,
        }


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------
def job_latencies(
    trace: Any, *, rate: float, start_at: float
) -> dict[int, float]:
    """Per-job latency: OUTPUT timestamp minus *intended* injection time.

    Recomputed from the deterministic schedule, not from the injector's
    actual send instant -- queueing delay behind a slow system counts
    against the system, exactly as an external client would experience.
    For duplicate outputs (post-crash redelivery races) the first
    commit wins.
    """
    latencies: dict[int, float] = {}
    for event in trace.events(EventKind.OUTPUT):
        value = event.get("value")
        if (
            not isinstance(value, tuple)
            or len(value) != 3
            or value[0] != "done"
        ):
            continue
        job = value[1]
        if job in latencies:
            continue
        latencies[job] = event.time - (start_at + job / rate)
    return latencies


def _scenario_report(
    result: LiveRunResult, *, rate: float, start_at: float
) -> dict[str, Any]:
    spec = result.spec
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    latencies = sorted(
        job_latencies(result.trace, rate=rate, start_at=start_at).values()
    )
    delivered = result.total_delivered
    window = active_window(result.trace)
    active_seconds = (window[1] - window[0]) if window else None
    injected = sum(
        d.get("load", {}).get("injected", 0) for d in result.done.values()
    )
    offered_seconds = spec.jobs / rate
    # "Sustained" means the system kept pace with the open-loop schedule:
    # the active window barely outlasts the offered window.  A saturated
    # run also commits every output eventually (the drain budget sees to
    # that) -- what distinguishes it is the long tail past the window.
    sustained = bool(
        verdict.ok
        and verdict.outputs_committed == spec.jobs
        and active_seconds is not None
        and active_seconds <= offered_seconds + 1.0
    )
    return {
        "verdict": verdict.summary(),
        "ok": verdict.ok,
        "sustained": sustained,
        "offered_rate": rate,
        "offered_seconds": round(offered_seconds, 3),
        "jobs": spec.jobs,
        "injected": injected,
        "outputs_committed": verdict.outputs_committed,
        "wall_seconds": round(result.wall_seconds, 3),
        "active_seconds": (
            round(active_seconds, 4) if active_seconds else None
        ),
        "app_deliveries": delivered,
        "deliveries_per_second": (
            round(delivered / active_seconds, 2) if active_seconds else None
        ),
        "deliveries_per_second_wall": (
            round(delivered / result.wall_seconds, 2)
            if result.wall_seconds > 0
            else None
        ),
        "job_latency_s": {
            "min": round(latencies[0], 6) if latencies else None,
            "p50": _r6(percentile(latencies, 0.50)),
            "p90": _r6(percentile(latencies, 0.90)),
            "p99": _r6(percentile(latencies, 0.99)),
            "max": round(latencies[-1], 6) if latencies else None,
        },
        "exit_codes": {
            str(pid): code
            for pid, code in sorted(result.exit_codes.items())
        },
    }


def _r6(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------
def load_spec(
    *,
    n: int,
    rate: float,
    duration: float,
    start_at: float = 0.25,
    drain: float = 1.0,
    drain_rate: float = 250.0,
    linger: float = 1.5,
) -> LiveClusterSpec:
    """Cluster spec for one offered-rate scenario.

    The run deadline budgets ``drain + jobs / drain_rate`` beyond the
    offered-load window: past saturation an open-loop source builds a
    backlog, and the scenario must keep running until the system has
    worked it off or the completeness oracle cannot be graded.  The
    budget changes only *when the run stops*, never the injection
    schedule or the latency accounting -- queueing delay still lands on
    every backlogged job, which is what makes the over-saturated points
    of the latency curve honest instead of truncated.  ``drain_rate`` is
    a worst-case floor on sustained job completion, deliberately far
    below observed capacity.

    Stability gossip + GC + history compaction are on: an open-loop run
    delivers orders of magnitude more messages than the classic burst,
    and without pruning, the stable log makes every group-commit rewrite
    of the storage image O(total messages).
    """
    jobs = int(rate * duration)
    return LiveClusterSpec(
        n=n,
        jobs=jobs,
        run_seconds=start_at + duration + drain + jobs / drain_rate,
        linger=linger,
        gossip_stability=True,
        enable_gc=True,
        compact_history=True,
        app={
            "kind": "load",
            "jobs": jobs,
            "rate": rate,
            "start_at": start_at,
        },
    )


def run_load_bench(
    workdir: str,
    *,
    n: int = 4,
    rates: Sequence[float] = (250.0, 500.0, 1000.0, 2000.0),
    duration: float = 4.0,
    start_at: float = 0.25,
) -> dict[str, Any]:
    """Run one cluster per offered rate; returns the payload for
    ``BENCH_load.json``."""
    scenarios: dict[str, Any] = {}
    for rate in rates:
        spec = load_spec(
            n=n, rate=rate, duration=duration, start_at=start_at
        )
        result = run_cluster(
            spec, os.path.join(workdir, f"rate_{int(rate)}")
        )
        scenarios[f"rate_{int(rate)}"] = _scenario_report(
            result, rate=rate, start_at=start_at
        )
    sustained = [
        s["offered_rate"] for s in scenarios.values() if s["sustained"]
    ]
    return {
        "benchmark": "live-load",
        "protocol": "damani-garg",
        "n": n,
        "duration_s": duration,
        "offered_rates": list(rates),
        "max_sustained_rate": max(sustained) if sustained else None,
        "peak_deliveries_per_second": max(
            (
                s["deliveries_per_second"]
                for s in scenarios.values()
                if s["deliveries_per_second"]
            ),
            default=None,
        ),
        "cpus": os.cpu_count(),
        "scenarios": scenarios,
    }


# ---------------------------------------------------------------------------
# Regression gate (CI)
# ---------------------------------------------------------------------------
def check_load_payload(
    payload: dict[str, Any], *, min_deliveries_per_sec: float
) -> list[str]:
    """CI gate over a finished sweep; returns human-readable violations.

    Checks, per scenario: the oracle verdict, non-negative latencies (a
    negative latency means the clock-anchoring contract broke again),
    and -- for the sweep's best scenario -- the throughput floor.
    """
    problems: list[str] = []
    best = 0.0
    for name, s in payload.get("scenarios", {}).items():
        if not s.get("ok"):
            problems.append(f"{name}: oracle FAIL ({s.get('verdict')})")
        lat = s.get("job_latency_s", {})
        low = lat.get("min")
        if low is not None and low < 0:
            problems.append(
                f"{name}: negative job latency {low}s -- env clocks are "
                f"warped"
            )
        rate = s.get("deliveries_per_second") or 0.0
        best = max(best, rate)
    if best < min_deliveries_per_sec:
        problems.append(
            f"peak throughput {best:.1f} deliveries/sec is below the "
            f"floor of {min_deliveries_per_sec:.1f}"
        )
    return problems


#: Cross-run trend of the sweep's peak throughput: fail below half the
#: best recorded peak (``python -m repro bench load --check-trend``).
TREND = Trend(
    row=lambda payload: {
        "n": payload.get("n"),
        "duration_s": payload.get("duration_s"),
        "offered_rates": payload.get("offered_rates"),
        "max_sustained_rate": payload.get("max_sustained_rate"),
        "peak_deliveries_per_second": payload.get(
            "peak_deliveries_per_second"
        ),
        "cpus": payload.get("cpus"),
    },
    metric=lambda row: {
        "peak deliveries/s": row.get("peak_deliveries_per_second") or 0.0
    },
    better="higher",
    tolerance=0.5,
)
