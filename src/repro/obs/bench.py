"""Benchmark wrapper: instrumented runs -> ``BENCH_obs.json``.

The ROADMAP's perf trajectory needs a machine-readable number per PR; this
module produces it.  :func:`run_bench` executes a named scenario (see
:mod:`repro.obs.scenarios`) with a live tracer and wall-clock timing;
``python -m repro bench obs`` writes the headline quantities -- wall
time, events/second, peak history records, piggyback bytes -- as a flat
JSON file that successive runs can diff.

``jobs > 1`` fans the *repeats* out over the :mod:`repro.exec` worker
pool; because each repeat is an identical seeded run, the counters and the
trace signature must come back the same from every worker, which doubles
as a cross-process determinism check.  Timing tasks are never cached
(``cacheable=False``): a wall-time served from disk would be a lie.

:func:`run_bench_matrix` benchmarks *several* scenarios in one call --
scenario x repeat tasks all share one pool -- and merges them into a
single ``BENCH_obs.json``-compatible report per scenario (format
``repro-bench-matrix-v1``).

Schema (``BENCH_obs.json``)::

    {
      "format": "repro-bench-v1",
      "scenario": "quickstart",
      "n": 4, "seed": 7,
      "repeats": 3,
      "wall_time_s": ...,            # best (min) of the repeats
      "wall_time_s_all": [...],
      "events_fired": ...,
      "events_per_sec": ...,         # events_fired / best wall time
      "delivered": ...,
      "peak_history_records": ...,   # the O(n·f) quantity, live-sampled
      "piggyback_bytes_total": ...,
      "piggyback_bytes_per_message": ...,
      "tokens_broadcast": ...,
      "rollbacks": ..., "restarts": ...,
      "trace_signature": "...",      # determinism cross-check
      "overhead": { ... }            # analysis.metrics.OverheadReport
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.obs.scenarios import SCENARIOS, build_scenario
from repro.obs.tracer import Tracer

@dataclass
class BenchResult:
    """Headline numbers from one benchmarked scenario."""

    scenario: str
    n: int
    seed: int
    repeats: int
    wall_time_s: float
    wall_time_s_all: list[float]
    events_fired: int
    events_per_sec: float
    delivered: int
    peak_history_records: int
    piggyback_bytes_total: float
    piggyback_bytes_per_message: float
    tokens_broadcast: float
    rollbacks: int
    restarts: int
    trace_signature: str
    overhead: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"format": "repro-bench-v1"}
        out.update(self.__dict__)
        return out


def _measure_once(scenario: str, seed: int | None) -> dict[str, Any]:
    """One instrumented repeat, as plain data (worker-transportable)."""
    from repro.analysis.metrics import measure_overhead
    from repro.harness.runner import run_experiment

    spec = build_scenario(scenario, seed)
    tracer = Tracer()
    spec.tracer = tracer
    start = perf_counter()
    result = run_experiment(spec)
    wall_time_s = perf_counter() - start
    app_sent = result.total("app_sent")
    piggyback_bytes = tracer.counter_value("dg.piggyback_bytes")
    return {
        "wall_time_s": wall_time_s,
        "trace_signature": result.trace.signature(),
        "n": result.spec.n,
        "seed": result.spec.seed,
        "events_fired": result.sim.events_fired,
        "delivered": result.total_delivered,
        "peak_history_records": int(
            tracer.max_gauge_over("dg.history_records.")
        ),
        "piggyback_bytes_total": piggyback_bytes,
        "piggyback_bytes_per_message": (
            piggyback_bytes / app_sent if app_sent else 0.0
        ),
        "tokens_broadcast": tracer.counter_value("dg.tokens_broadcast"),
        "rollbacks": result.total_rollbacks,
        "restarts": result.total_restarts,
        "overhead": measure_overhead(result).to_dict(),
    }


def exec_bench_repeat(payload: dict) -> dict[str, Any]:
    """Worker entry point: one repeat of one scenario.

    The payload carries a ``repeat`` index purely to keep task identities
    distinct in progress output; the measurement ignores it.
    """
    return _measure_once(payload["scenario"], payload["seed"])


def _combine(
    scenario: str, repeats_data: list[dict[str, Any]]
) -> BenchResult:
    """Merge per-repeat measurements into one BenchResult.

    Every repeat is the same seeded run, so all non-timing fields must be
    identical; a signature mismatch means the scenario (or the worker
    pool) is nondeterministic and the benchmark is meaningless.
    """
    signatures = {d["trace_signature"] for d in repeats_data}
    if len(signatures) != 1:
        raise RuntimeError(
            f"scenario {scenario!r} is nondeterministic across repeats "
            f"({len(signatures)} distinct trace signatures)"
        )
    wall_times = [d["wall_time_s"] for d in repeats_data]
    best = min(wall_times)
    sample = repeats_data[0]
    return BenchResult(
        scenario=scenario,
        n=sample["n"],
        seed=sample["seed"],
        repeats=len(repeats_data),
        wall_time_s=best,
        wall_time_s_all=wall_times,
        events_fired=sample["events_fired"],
        events_per_sec=sample["events_fired"] / best if best > 0 else 0.0,
        delivered=sample["delivered"],
        peak_history_records=sample["peak_history_records"],
        piggyback_bytes_total=sample["piggyback_bytes_total"],
        piggyback_bytes_per_message=sample["piggyback_bytes_per_message"],
        tokens_broadcast=sample["tokens_broadcast"],
        rollbacks=sample["rollbacks"],
        restarts=sample["restarts"],
        trace_signature=sample["trace_signature"],
        overhead=sample["overhead"],
    )


def _repeat_tasks(scenario: str, seed: int | None, repeats: int) -> list:
    from repro.exec.tasks import Task

    return [
        Task(
            fn="repro.obs.bench:exec_bench_repeat",
            payload={"scenario": scenario, "seed": seed, "repeat": repeat},
            label=f"{scenario} repeat {repeat}",
            cacheable=False,
        )
        for repeat in range(repeats)
    ]


def _run_tasks(tasks: list, jobs: int) -> list[dict[str, Any]]:
    """Run bench tasks through the engine; raise on any failed repeat."""
    from repro.exec.runner import ParallelRunner

    outcomes = ParallelRunner(jobs=jobs).map(tasks)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise RuntimeError(
            f"benchmark task {first.label!r} failed:\n{first.error}"
        )
    return [o.value for o in outcomes]


def run_bench(
    scenario: str = "quickstart",
    *,
    seed: int | None = None,
    repeats: int = 3,
    jobs: int = 1,
) -> BenchResult:
    """Run ``scenario`` ``repeats`` times instrumented; keep the best time.

    Every repeat must produce the same trace signature (the runs are
    seeded); a mismatch raises, because a benchmark over nondeterministic
    runs would be meaningless.  ``jobs > 1`` runs the repeats across
    worker processes.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs > 1:
        data = _run_tasks(_repeat_tasks(scenario, seed, repeats), jobs)
    else:
        data = [_measure_once(scenario, seed) for _ in range(repeats)]
    return _combine(scenario, data)


@dataclass
class BenchMatrix:
    """Several scenarios benchmarked together, one BenchResult each."""

    results: list[BenchResult] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro-bench-matrix-v1",
            "scenarios": {
                bench.scenario: bench.to_dict() for bench in self.results
            },
        }

    def summary(self) -> str:
        lines = [f"bench matrix: {len(self.results)} scenario(s)"]
        for bench in self.results:
            lines.append(
                f"  {bench.scenario}: best {bench.wall_time_s:.3f}s over "
                f"{bench.repeats} repeat(s), "
                f"{bench.events_per_sec:,.0f} events/s, "
                f"{bench.rollbacks} rollbacks"
            )
        return "\n".join(lines)


def run_bench_matrix(
    scenarios: list[str] | None = None,
    *,
    seed: int | None = None,
    repeats: int = 3,
    jobs: int = 1,
) -> BenchMatrix:
    """Benchmark several scenarios; scenario x repeat tasks share one pool.

    ``scenarios`` defaults to every registered scenario.  Each entry in the
    merged report is ``BENCH_obs.json``-compatible (same per-scenario
    schema as :func:`run_bench`).
    """
    if scenarios is None:
        scenarios = sorted(SCENARIOS)
    unknown = [name for name in scenarios if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {unknown}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    matrix = BenchMatrix()
    if jobs > 1:
        tasks = []
        for name in scenarios:
            tasks.extend(_repeat_tasks(name, seed, repeats))
        data = _run_tasks(tasks, jobs)
        for pos, name in enumerate(scenarios):
            block = data[pos * repeats : (pos + 1) * repeats]
            matrix.results.append(_combine(name, block))
    else:
        for name in scenarios:
            matrix.results.append(
                run_bench(name, seed=seed, repeats=repeats)
            )
    return matrix
