"""Section 6.5 extensions made concrete.

The paper's closing remarks note two pieces every practical optimistic
system needs; this module provides both on top of the core protocol:

**Output commit** -- "Before committing an output to the environment, a
process must make sure that it will never rollback the current state or
lose it in a failure."  A state is *permanently safe* once its entire
causal past is on stable storage: for each clock entry ``(v, t)`` of
process ``j`` either

- a token for ``(j, v)`` is known and ``t`` is at or below the restoration
  point (the restored prefix was replayed from stable storage, so it can
  never be lost again), or
- ``v`` is ``j``'s current version and ``t`` is within ``j``'s flushed
  frontier.

Outputs are held (per process, with stable dedup keys so crashes cannot
double-commit) until the test passes.

**Garbage collection** (Remark 2, after Wang et al. [28]) -- a checkpoint
whose clock is permanently safe can never be the target of a future
rollback scan, so every older checkpoint and the log prefix below it can
be reclaimed.

Both are driven by a :class:`StabilityCoordinator`: a control-plane object
that periodically collects each process's flushed frontier (one clock
entry per process -- the same O(n) budget as the paper's clock) and hands
the vector to every live process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.ftvc import ClockEntry
from repro.storage.intents import CrashPointReached


@dataclass
class StabilityStats:
    """What the coordinator accomplished, for the benchmarks."""

    rounds: int = 0
    outputs_committed: int = 0
    checkpoints_collected: int = 0
    log_entries_collected: int = 0


class StabilityCoordinator:
    """Periodic stability sweep over a set of Damani-Garg processes.

    The coordinator models the paper's suggested control plane: it costs
    one frontier entry per process per sweep and never touches protocol
    decisions -- it only unlocks output commit and space reclamation.
    A crashed process's frontier is read from its stable storage (the
    durable ``stable_own``), not from its last report: a flushed prefix is
    *not* recoverable forever -- a rollback after the report truncates
    the orphaned part of it, and the process's next states then reuse
    those timestamps, so a stale report would certify states that its
    restart loses.
    """

    def __init__(
        self,
        sim: Any,
        protocols,
        *,
        interval: float = 5.0,
    ) -> None:
        # ``sim`` is any scheduler with ``schedule(delay, cb, label=)`` --
        # the simulator kernel or a live event loop adapter.  Duck-typed so
        # the core layer stays free of engine imports.
        self.sim = sim
        self.protocols = list(protocols)
        self.interval = interval
        self.stats = StabilityStats()
        self._cached: dict[int, ClockEntry] = {}
        self._enabled = False

    def start(self) -> None:
        self._enabled = True
        self._schedule()

    def stop(self) -> None:
        self._enabled = False

    def _schedule(self) -> None:
        self.sim.schedule(self.interval, self._sweep, label="stability")

    def sweep_now(self) -> dict[int, ClockEntry]:
        """One synchronous sweep; returns the frontier used (for tests)."""
        for protocol in self.protocols:
            if protocol.env.alive:
                self._cached[protocol.pid] = protocol.stable_frontier()
            else:
                durable = protocol.storage.get("stable_own")
                if durable is not None:
                    self._cached[protocol.pid] = durable
        frontier = dict(self._cached)
        for protocol in self.protocols:
            if protocol.env.alive:
                try:
                    committed, ckpts, entries = protocol.apply_stability(
                        frontier
                    )
                except CrashPointReached as exc:
                    # An armed crash point fired inside this process's
                    # compaction sweep: that process crashes; the sweep
                    # continues for everyone else.
                    protocol.env.on_crash_point(exc)
                    continue
                self.stats.outputs_committed += committed
                self.stats.checkpoints_collected += ckpts
                self.stats.log_entries_collected += entries
        self.stats.rounds += 1
        return frontier

    def _sweep(self) -> None:
        if not self._enabled:
            return
        self.sweep_now()
        self._schedule()
