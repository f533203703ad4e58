"""Trace batching: grouped writes, the flush-before-barrier rule, SIGKILL.

The batched :class:`LiveTrace` trades per-record flushes for grouped ones
under a bounded-loss rule: a SIGKILL loses at most the unflushed buffer,
and the buffer is forced out before every stable-storage sync barrier
(``FileStableStorage.pre_persist_hook``).  These tests pin each leg:

- the buffer actually batches (capacity flush, timer flush, close flush);
- the pre-persist hook orders the trace write *before* the storage
  barrier -- with a negative control proving the test would catch a
  broken hook;
- a live cluster under SIGKILL still grades PASS while flushing far
  fewer times than it records.
"""

import asyncio
import json
import os

import pytest

from repro.live.env import LiveTrace, merge_traces
from repro.live.storage import FileStableStorage
from repro.live.supervisor import LiveClusterSpec, LiveCrashPlan, run_cluster
from repro.live.verify import check_live_run
from repro.runtime.trace import EventKind


def _trace(fh, *, records, seconds):
    trace = LiveTrace(fh)
    trace.buffer_records, trace.buffer_seconds = records, seconds
    return trace


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Buffering unit tests
# ---------------------------------------------------------------------------
def test_records_batch_until_capacity_then_flush_in_one_write(tmp_path):
    path = str(tmp_path / "t.jsonl")

    async def go():
        fh = open(path, "w", encoding="utf-8")
        trace = _trace(fh, records=4, seconds=30.0)
        for i in range(3):
            trace.record(float(i), EventKind.SEND, 0, value=i)
        # Below capacity, timer far away: nothing on disk yet.
        assert _lines(path) == []
        assert trace.flushes == 0
        assert trace.records_buffered_max == 3

        trace.record(3.0, EventKind.SEND, 0, value=3)   # hits capacity
        assert len(_lines(path)) == 4
        assert trace.flushes == 1
        assert trace.records_written == 4
        trace.close()

    asyncio.run(go())
    assert [row["fields"]["value"] for row in _lines(path)] == [0, 1, 2, 3]


def test_timer_flushes_a_partial_buffer(tmp_path):
    path = str(tmp_path / "t.jsonl")

    async def go():
        fh = open(path, "w", encoding="utf-8")
        trace = _trace(fh, records=64, seconds=0.02)
        trace.record(0.0, EventKind.SEND, 0, value="x")
        assert _lines(path) == []
        await asyncio.sleep(0.15)
        assert len(_lines(path)) == 1
        assert trace.flushes == 1
        trace.close()

    asyncio.run(go())


def test_without_a_loop_records_flush_immediately(tmp_path):
    # Synchronous callers (unit tests, merge tooling) have no loop to
    # fire the timer, so batching degrades to the old flush-per-record.
    path = str(tmp_path / "t.jsonl")
    fh = open(path, "w", encoding="utf-8")
    trace = _trace(fh, records=64, seconds=30.0)
    trace.record(0.0, EventKind.SEND, 0, value="x")
    assert len(_lines(path)) == 1
    trace.close()


def test_close_flushes_the_tail(tmp_path):
    path = str(tmp_path / "t.jsonl")

    async def go():
        fh = open(path, "w", encoding="utf-8")
        trace = _trace(fh, records=64, seconds=30.0)
        for i in range(5):
            trace.record(float(i), EventKind.SEND, 0, value=i)
        assert _lines(path) == []
        trace.close()
        assert len(_lines(path)) == 5

    asyncio.run(go())


def test_batched_trace_merges_identically(tmp_path):
    path = str(tmp_path / "t.jsonl")

    async def go():
        fh = open(path, "w", encoding="utf-8")
        trace = _trace(fh, records=8, seconds=30.0)
        trace.record(1.0, EventKind.SEND, 0, value=("done", 3, 12))
        trace.record(3.0, EventKind.OUTPUT, 0, value=("done", 3, 12))
        trace.close()

    asyncio.run(go())
    merged = merge_traces([path])
    assert [e.kind for e in merged.events()] == [
        EventKind.SEND, EventKind.OUTPUT
    ]
    assert merged.events(EventKind.OUTPUT)[0].get("value") == ("done", 3, 12)


# ---------------------------------------------------------------------------
# The flush-before-barrier rule
# ---------------------------------------------------------------------------
def _barrier_scenario(tmp_path, *, hook: bool):
    """Buffer two trace records, then hit a storage sync barrier; return
    how many trace lines were durable at the instant of the barrier."""
    trace_path = str(tmp_path / "t.jsonl")
    at_barrier = []

    async def go():
        fh = open(trace_path, "w", encoding="utf-8")
        trace = _trace(fh, records=64, seconds=30.0)
        storage = FileStableStorage(0, str(tmp_path / "stable.pickle"))
        if hook:
            storage.pre_persist_hook = trace.flush
        # fault_hook runs inside _persist *after* pre_persist_hook and
        # before the durable image is written: exactly the barrier
        # instant the rule is about.
        storage.fault_hook = lambda **kw: at_barrier.append(
            len(_lines(trace_path))
        )
        trace.record(0.0, EventKind.OUTPUT, 0, value=("done", 0, 1))
        trace.record(0.1, EventKind.SEND, 0, value="x")
        storage.put("k", "v")               # synchronous barrier
        trace.close()

    asyncio.run(go())
    assert len(at_barrier) == 1
    return at_barrier[0]


def test_trace_buffer_is_durable_before_the_storage_barrier(tmp_path):
    assert _barrier_scenario(tmp_path, hook=True) == 2


def test_negative_control_without_hook_buffer_misses_the_barrier(tmp_path):
    """Proof the test above has teeth: drop the hook and the buffered
    records are *not* on disk when the barrier runs -- the exact state an
    ordering bug would produce."""
    assert _barrier_scenario(tmp_path, hook=False) == 0


def test_failing_pre_persist_hook_aborts_the_persist(tmp_path):
    # A hook failure must behave like a fault: the durable image is not
    # advanced past a trace write that never happened.
    storage = FileStableStorage(0, str(tmp_path / "stable.pickle"))

    def boom():
        raise OSError("trace disk gone")

    storage.pre_persist_hook = boom
    before = storage.persist_count
    with pytest.raises(OSError):
        storage.put("k", "v")
    assert storage.persist_count == before
    assert not os.path.exists(str(tmp_path / "stable.pickle"))


# ---------------------------------------------------------------------------
# Live cluster: SIGKILL under batching
# ---------------------------------------------------------------------------
def test_sigkill_mid_window_still_grades_pass_and_batches(tmp_path):
    """The crash lands while trace buffers are in flight; the merged
    trace must still satisfy every conformance oracle (bounded loss: only
    volatile state died), and the done reports must show grouped writes
    actually happening."""
    spec = LiveClusterSpec(
        n=3,
        jobs=9,
        run_seconds=3.5,
        linger=1.0,
        crashes=[LiveCrashPlan(pid=1, at=0.8, downtime=0.8)],
    )
    result = run_cluster(spec, str(tmp_path))
    assert len(result.kills) == 1

    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()
    assert verdict.outputs_committed == spec.jobs
    assert set(result.exit_codes.values()) == {0}, result.exit_codes

    for pid, done in result.done.items():
        assert done["trace_records"] > 0
        assert done["trace_flushes"] > 0
        # Batching did its job: strictly fewer grouped writes than
        # records on at least the busy nodes, never more.
        assert done["trace_flushes"] <= done["trace_records"]
    assert any(
        d["trace_flushes"] < d["trace_records"]
        for d in result.done.values()
    ), "no node ever grouped trace records into one write"
    assert any(
        d["trace_records_buffered_max"] > 1 for d in result.done.values()
    ), "buffer high-water mark never exceeded one record"
