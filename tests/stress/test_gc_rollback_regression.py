"""Regression: checkpoint GC must never discard the last checkpoint a
future token can restore.

Shrunk from ``stress --seed 2013649541`` (profile ``default``).  P2 rolls
back on P3's token after its last frontier report, reuses the truncated
timestamps for new states, and crashes before the next stability sweep.
The coordinator used to hand out P2's *pre-rollback* report for the
crashed process, which certified P2's new, unflushed states as stable; P0
then garbage-collected every checkpoint older than one depending on them,
and P2's restart token found P0 with no checkpoint to roll back to
(``RuntimeError: no non-orphan checkpoint``).
"""

from types import SimpleNamespace

from repro.core.extensions import StabilityCoordinator
from repro.core.ftvc import ClockEntry
from repro.stress import StressCase, run_case

CASE = StressCase(
    seed=2013649541,
    n=5,
    workload="routing",
    horizon=25.726,
    order="random",
    duplicate_rate=0.0,
    checkpoint_interval=9.384,
    flush_interval=3.976,
    retransmit_on_token=True,
    commit_outputs=True,
    enable_gc=True,
    stability_interval=4.7,
    crashes=((8.933, 3, 5.216), (16.785, 2, 6.941)),
    partitions=(),
    crash_points=((0, "checkpoint:log_flushed", 3.886),),
)


def test_gc_keeps_a_checkpoint_that_survives_a_late_token():
    result = run_case(CASE)
    assert not result.failed, result.headline()


def test_crashed_process_frontier_comes_from_stable_storage():
    """The coordinator reads a crashed process's frontier from its
    durable ``stable_own``, which a rollback lowers."""

    class Storage:
        def __init__(self, value):
            self.value = value

        def get(self, key, default=None):
            return self.value if key == "stable_own" else default

    class Proc:
        def __init__(self, pid, alive, reported, durable):
            self.pid = pid
            self.env = SimpleNamespace(alive=alive)
            self.storage = Storage(durable)
            self.reported = reported

        def stable_frontier(self):
            return self.reported

        def apply_stability(self, frontier):
            return 0, 0, 0

    live = Proc(0, True, ClockEntry(0, 5), ClockEntry(0, 5))
    dead = Proc(1, True, ClockEntry(0, 13), ClockEntry(0, 13))
    coordinator = StabilityCoordinator(None, [live, dead])
    assert coordinator.sweep_now()[1] == ClockEntry(0, 13)
    # p1 rolls back (its durable frontier drops to 12) and crashes
    # before the next sweep: the stale report must not be served.
    dead.env.alive = False
    dead.storage.value = ClockEntry(0, 12)
    assert coordinator.sweep_now()[1] == ClockEntry(0, 12)
