"""Serial-vs-parallel benchmark for the execution engine.

:func:`run_exec_bench` runs the same stress seed block twice -- once with
``jobs=1`` and once with ``jobs=N`` -- and reports two things:

- **equivalence**: every per-seed :class:`~repro.stress.sweep.CaseResult`
  (including its ``trace_signature``) must be identical between the two
  runs.  A speedup that changes results is a bug, not a feature.
- **speedup**: serial wall time over parallel wall time.  On a multi-core
  runner this should comfortably exceed 1; CI fails the build when
  parallel is slower than serial (see ``.github/workflows/ci.yml``).

``python -m repro bench exec`` writes the measurement as
``BENCH_exec.json`` (format ``repro-exec-bench-v1``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

from repro.stress.profiles import PROFILES, StressProfile
from repro.stress.sweep import CaseResult, sweep

EXEC_BENCH_FORMAT = "repro-exec-bench-v1"


@dataclass
class ExecBenchResult:
    """One serial-vs-parallel measurement over a stress seed block."""

    schedules: int
    jobs: int
    profile: str
    base_seed: int
    serial_wall_s: float
    parallel_wall_s: float
    identical: bool
    mismatched_seeds: list[int] = field(default_factory=list)
    failures: int = 0
    cpu_count: int = 1
    # ProcessBudget slots the parallel leg ran under (None = unlimited
    # admission, the pre-budget behaviour).
    budget_slots: int | None = None

    @property
    def speedup(self) -> float:
        if self.parallel_wall_s <= 0:
            return 0.0
        return self.serial_wall_s / self.parallel_wall_s

    def to_dict(self) -> dict:
        return {
            "format": EXEC_BENCH_FORMAT,
            "schedules": self.schedules,
            "jobs": self.jobs,
            "profile": self.profile,
            "base_seed": self.base_seed,
            "serial_wall_s": round(self.serial_wall_s, 4),
            "parallel_wall_s": round(self.parallel_wall_s, 4),
            "speedup": round(self.speedup, 3),
            "identical": self.identical,
            "mismatched_seeds": list(self.mismatched_seeds),
            "failures": self.failures,
            "cpu_count": self.cpu_count,
            "budget_slots": self.budget_slots,
        }

    def summary(self) -> str:
        verdict = (
            "bit-identical results"
            if self.identical
            else f"MISMATCH on seeds {self.mismatched_seeds}"
        )
        return (
            f"exec bench: {self.schedules} schedules "
            f"(profile={self.profile}, seeds {self.base_seed}.."
            f"{self.base_seed + self.schedules - 1})\n"
            f"  serial   (jobs=1): {self.serial_wall_s:.2f}s\n"
            f"  parallel (jobs={self.jobs}): {self.parallel_wall_s:.2f}s\n"
            f"  speedup: {self.speedup:.2f}x on {self.cpu_count} CPU(s)"
            + (
                f" (budget {self.budget_slots} slots)\n"
                if self.budget_slots
                else "\n"
            )
            + f"  {verdict}, {self.failures} failing schedule(s)"
        )


def _collecting_sweep(
    schedules: int,
    base_seed: int,
    profile: StressProfile,
    jobs: int,
    budget_slots: int | None = None,
) -> tuple[list[CaseResult], float]:
    """Run a sweep capturing *every* per-seed result, not just failures.

    Results come back keyed by seed (parallel sweeps report progress in
    completion order) and are returned sorted, so the two runs compare
    positionally.  Shrinking is off: the bench measures raw execution.
    """
    by_seed: dict[int, CaseResult] = {}

    def collect(_index: int, result: CaseResult) -> None:
        by_seed[result.case.seed] = result

    started = perf_counter()
    sweep(
        schedules,
        base_seed=base_seed,
        profile=profile,
        shrink=False,
        jobs=jobs,
        budget_slots=budget_slots,
        progress=collect,
    )
    wall_s = perf_counter() - started
    return [by_seed[seed] for seed in sorted(by_seed)], wall_s


def run_exec_bench(
    schedules: int = 200,
    *,
    jobs: int = 4,
    profile: StressProfile | str = "quick",
    base_seed: int = 0,
    budget_slots: int | None = None,
) -> ExecBenchResult:
    """Measure serial vs parallel over one seed block; verify equivalence.

    ``budget_slots`` puts the parallel leg under a
    :class:`~repro.exec.runner.ProcessBudget` (admission-controlled
    scheduling); ``None`` keeps unlimited admission.  Stress cases weigh
    one slot each, so a budget of at least ``jobs`` changes nothing and a
    smaller one caps effective concurrency -- either way the results must
    stay bit-identical to serial.
    """
    if isinstance(profile, str):
        profile = PROFILES[profile]
    if jobs < 2:
        raise ValueError(f"exec bench needs jobs >= 2, got {jobs}")

    serial, serial_wall_s = _collecting_sweep(
        schedules, base_seed, profile, jobs=1
    )
    parallel, parallel_wall_s = _collecting_sweep(
        schedules, base_seed, profile, jobs=jobs, budget_slots=budget_slots
    )

    mismatched = [
        s.case.seed
        for s, p in zip(serial, parallel)
        if s != p
    ]
    return ExecBenchResult(
        schedules=schedules,
        jobs=jobs,
        profile=profile.name,
        base_seed=base_seed,
        serial_wall_s=serial_wall_s,
        parallel_wall_s=parallel_wall_s,
        identical=len(serial) == len(parallel) and not mismatched,
        mismatched_seeds=mismatched,
        failures=sum(1 for s in serial if s.failed),
        cpu_count=os.cpu_count() or 1,
        budget_slots=budget_slots,
    )
