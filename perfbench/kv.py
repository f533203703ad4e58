"""The KV workloads: open-loop client traffic against one live shard.

One shard -- gateway p0 plus replicas p1 and p2, three node processes on
loopback -- booted through :class:`repro.service.ShardManager` and driven
through :class:`repro.service.KVClient`.  The op plan is drawn from the
seed before the shard boots: ``RATE`` ops per second for ``seconds``
seconds (a fixed count, whatever the program's speed), Zipf(``ZIPF_S``)
keys over ``KEYS`` keys, ``PUT_RATIO`` puts.  Each op is sent when due
on an idle session, or on a newly opened one when every session is
busy, and its latency runs from the due time to the acked reply.

``kv-crash`` adds one SIGKILL of replica p1 at the middle of the plan,
restarted after ``DOWNTIME`` seconds.

Correctness gates: every op acked before its deadline; the read-back
audit (each key's version equals its count of distinct acked puts); no
session sees a key's version go backwards; on ``kv-crash`` the recovery
trace oracle and the client-side cross-check of ``restore_s``.

Node CPU time is scaled to the nominal host speed of
:mod:`perfbench.hostspeed`, by the median CPU time of the reference loop
timed in the client every ``SAMPLE_EVERY`` seconds while the plan runs
(the mean, not the median: the host flips between a fast and a slow
state, and the mean follows the share of time spent in each).
Latencies are not scaled.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import statistics
import sys
import time
from bisect import bisect_right
from typing import Any

from perfbench import hostspeed, procs, recovery, stats

RATE = 20.0                  # ops per second, open loop
KEYS = 64
ZIPF_S = 1.1
PUT_RATIO = 0.5
SETUPS = 3                   # boots per run; setup_s is their median
PLAN_START = 1.0             # env-time (s after the shard epoch) of op 0
OP_DEADLINE = 10.0           # an op unacked this long after due fails
REQUEST_TIMEOUT = 0.4
DOWNTIME = 0.75
VICTIM = 1                   # the replica kv-crash kills
NODES = 3
NODE_CAP = 90.0              # cluster run_seconds: a cap, stop() ends it
LINGER = 0.5
JOIN_TIMEOUT = 30.0
SAMPLE_EVERY = 0.1           # seconds between host-speed samples
HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "nodehook")


def make_plan(seed: int, count: int) -> list[tuple[float, str, str, int]]:
    """``count`` ops ``(offset_s, "put"|"get", key, value)`` from ``seed``."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYS)]
    cumulative, total = [], 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    plan = []
    for i in range(count):
        key = f"k{bisect_right(cumulative, rng.random() * total)}"
        kind = "put" if rng.random() < PUT_RATIO else "get"
        plan.append((i / RATE, kind, key, rng.randrange(1 << 16)))
    return plan


async def sample_host_speed(samples: list[float]) -> None:
    """Append the reference loop's CPU time every ``SAMPLE_EVERY`` s
    until cancelled.  CPU time, not wall time: a loop the scheduler
    preempts for a node reads the same as one it does not."""
    while True:
        begin = time.thread_time()
        hostspeed.reference_seconds()
        samples.append(time.thread_time() - begin)
        await asyncio.sleep(SAMPLE_EVERY)


def service_config(seed: int, crash: bool, seconds: float):
    from repro.service import ServiceConfig

    return ServiceConfig(
        shards=1,
        nodes_per_shard=NODES,
        run_seconds=NODE_CAP,
        linger=LINGER,
        crash_replicas=crash,
        crash_at=PLAN_START + seconds / 2.0,
        downtime=DOWNTIME,
        seed=seed,
        keys=KEYS,
        put_ratio=PUT_RATIO,
        zipf_s=ZIPF_S,
        request_timeout=REQUEST_TIMEOUT,
    )


class Shard:
    """One booted shard and its client; :meth:`close` always tears down."""

    def __init__(self, config, workdir: str) -> None:
        from repro.service import ShardManager

        self.workdir = workdir
        self.manager = ShardManager(config, workdir)
        self.client = None

    async def boot(self) -> float:
        """Boot and ack one warm-up put; returns the seconds it took."""
        from repro.service import KVClient

        begin = time.perf_counter()
        self.manager.start()
        self.manager.wait_ready()
        self.client = KVClient(
            self.manager.routing,
            self.manager.endpoints(),
            request_timeout=REQUEST_TIMEOUT,
        )
        await self.client.start()
        ack = await self.client.session().put(
            "warmup", 1, deadline=self.client.now() + 30.0
        )
        if ack is None:
            raise RuntimeError("warm-up put was never acked; node logs:\n"
                               + self.log_tails())
        return time.perf_counter() - begin

    def log_tails(self, lines: int = 5) -> str:
        """The last ``lines`` lines of every node log of the shard."""
        shard_dir = os.path.join(self.workdir, "shard0")
        tails = []
        for name in sorted(os.listdir(shard_dir)):
            if name.startswith("node_") and name.endswith(".log"):
                with open(os.path.join(shard_dir, name),
                          encoding="utf-8", errors="replace") as fh:
                    tail = fh.read().splitlines()[-lines:]
                tails.append("\n".join([f"-- {name}", *tail]))
        return "\n".join(tails)

    def env_offset(self) -> float:
        """Add to a client-clock time to get the shard's env-time."""
        with open(os.path.join(self.workdir, "shard0", "epoch.json"),
                  encoding="utf-8") as fh:
            epoch = json.load(fh)["epoch"]
        return time.time() - self.client.now() - epoch

    async def close(self) -> None:
        """Stop the shard and wait for every node; kill any that hang."""
        try:
            if self.client is not None:
                await self.client.aclose()
        finally:
            self.manager.stop()
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.manager.join, JOIN_TIMEOUT)
            finally:
                procs.kill_nodes(self.workdir)


async def drive(client, plan, start: float, primary_for) -> dict[str, Any]:
    """Send ``plan`` open loop from client-clock ``start``; log every op."""
    idle: list = []
    ops: list[dict[str, Any]] = []
    # session -> key -> (highest version seen, index of the op that saw it)
    floors: dict[int, dict[str, tuple[int, int]]] = {}
    tasks = []
    opened = 0

    async def one(index, session, kind, key, value, due, sent):
        deadline = due + OP_DEADLINE
        if kind == "put":
            reply = await session.put(key, value, deadline=deadline)
        else:
            reply = await session.get(key, deadline=deadline)
        done = client.now()
        version = None if reply is None else int(reply["version"])
        floor = floors.setdefault(session.session_id, {})
        seen, seen_by = floor.get(key, (0, None))
        monotonic = True
        if version is not None:
            monotonic = version > seen if kind == "put" else version >= seen
            if version > seen:
                floor[key] = (version, index)
        ops.append({
            "index": index, "kind": kind, "key": key,
            "primary": primary_for(key), "due": due, "start": sent,
            "done": done, "version": version, "monotonic": monotonic,
            "floor": (seen, seen_by),
        })
        idle.append(session)

    for index, (offset, kind, key, value) in enumerate(plan):
        due = start + offset
        wait = due - client.now()
        if wait > 0:
            await asyncio.sleep(wait)
        if idle:
            session = idle.pop()
        else:
            session = client.session()
            opened += 1
        tasks.append(asyncio.ensure_future(
            one(index, session, kind, key, value, due, client.now())
        ))
    await asyncio.gather(*tasks)
    ops.sort(key=lambda op: op["index"])
    return {"ops": ops, "sessions_opened": opened}


async def audit(client) -> set[str]:
    """Read every written key back; return keys whose version is wrong."""
    session = client.session()
    deadline = client.now() + OP_DEADLINE
    expected = {k: len(v) for k, v in client.acked_puts.items()}

    async def check(key: str, count: int) -> str | None:
        reply = await session.get(key, min_version=count, deadline=deadline)
        if reply is None or int(reply["version"]) != count:
            return key
        return None

    verdicts = await asyncio.gather(
        *(check(k, c) for k, c in sorted(expected.items()))
    )
    return {key for key in verdicts if key is not None}


def _client_counts(client) -> dict[str, int]:
    m = client.metrics[0]
    return {"ops": m.ops, "failures": m.failures, "retries": m.retries,
            "stale": m.stale_events, "unmatched": m.unmatched_replies}


async def run_async(
    workload: str, seed: int, seconds: float, trace: bool, work: str
) -> dict[str, Any]:
    from repro.service import KVServiceApp

    crash = workload == "kv-crash"
    config = service_config(seed, crash, seconds)
    plan = make_plan(seed, int(round(RATE * seconds)))
    primary_for = KVServiceApp(replicas=NODES - 1).primary_for

    setups = []
    for i in range(SETUPS - 1):
        # Set-up probes: the same boot, torn down after the warm-up ack.
        probe = Shard(service_config(seed, False, seconds),
                      procs.fresh_dir(os.path.join(work, f"setup{i}")))
        try:
            setups.append(await probe.boot())
        finally:
            await probe.close()

    run_dir = procs.fresh_dir(os.path.join(work, "run"))
    saved_env = dict(os.environ)
    if trace:
        # Node processes inherit the environment from the supervisor, so
        # the start-up hook reaches every incarnation of every node.
        os.environ["PERFBENCH_SPAN_DIR"] = procs.fresh_dir(
            os.path.join(work, "spans"))
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (HOOK_DIR, os.environ.get("PYTHONPATH")) if p)
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    shard = Shard(config, run_dir)
    try:
        setups.append(await shard.boot())
        client = shard.client
        offset = shard.env_offset()
        start = max(client.now(), PLAN_START - offset)
        before = _client_counts(client)
        references: list[float] = []
        sampler = asyncio.ensure_future(sample_host_speed(references))
        try:
            driven = await drive(client, plan, start, primary_for)
        finally:
            sampler.cancel()
        after = _client_counts(client)
        bad_keys = await audit(client)
    finally:
        await shard.close()
        os.environ.clear()
        os.environ.update(saved_env)
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    node_cpu = (cpu_after.ru_utime - cpu_before.ru_utime
                + cpu_after.ru_stime - cpu_before.ru_stime)
    print(f"node CPU {node_cpu:.3f} s, host-speed scale "
          f"{hostspeed.NOMINAL_S / statistics.fmean(references):.4f}",
          file=sys.stderr)

    shard_dir = os.path.join(run_dir, "shard0")
    events = recovery.load_events(
        os.path.join(shard_dir, name) for name in sorted(os.listdir(shard_dir))
        if name.startswith("trace_") and name.endswith(".jsonl")
    )
    ops = driven["ops"]
    problems = [f"audit: key {k} version differs from its acked puts"
                for k in sorted(bad_keys)]
    bad_primaries: set[int] = set()
    oracle = recovery.check_recovery_trace(events)
    crashes = [e for e in events if e["kind"] == "crash"]
    if oracle or len(crashes) != (1 if crash else 0):
        problems += oracle or [f"{len(crashes)} crash(es) in the trace"]
        bad_primaries = set(range(1, NODES))

    restore = None
    if crash and crashes:
        kill_client = crashes[0]["t"] - offset
        print(f"kill of p{VICTIM} at t={crashes[0]['t']:.3f}", file=sys.stderr)
        found = recovery.restore_time(ops, VICTIM, kill_client)
        windows = recovery.outage_windows(ops, VICTIM, REQUEST_TIMEOUT)
        if found is None:
            problems.append("no reply from the killed replica after the kill")
            bad_primaries.add(VICTIM)
        else:
            mismatch = recovery.cross_check(found[0], kill_client, windows)
            if mismatch:
                problems.append(f"restore_s cross-check: {mismatch}")
                bad_primaries.add(VICTIM)
            longest = max((e - s for s, e in windows), default=0.0)
            restore = {"restore_s": found[0],
                       "first_reply_env": found[1] + offset,
                       "outage_window_s": longest}

    failed = stats.failed_ops(ops, bad_keys=bad_keys,
                              bad_primaries=bad_primaries)
    good = [op for op in ops if op["index"] not in failed]
    latencies = [(op["done"] - op["due"]) * 1e3 for op in good]
    for op in ops:
        if op["index"] in failed and (op["version"] is None
                                      or not op["monotonic"]):
            problems.append(
                f"op {op['index']} ({op['kind']} {op['key']} on "
                f"p{op['primary']}): "
                + ("never acked" if op["version"] is None
                   else f"acked version {op['version']} at "
                   f"t={op['done'] + offset:.3f}, but its session saw "
                   f"version {op['floor'][0]} from op {op['floor'][1]} at "
                   f"t={ops[op['floor'][1]]['done'] + offset:.3f}")
            )
    for line in problems:
        print(f"gate: {line}", file=sys.stderr)
    run = {
        "attempted": len(plan),
        "failed": len(failed),
        "correct": not problems and not failed,
        "setups": setups,
        "latencies_ms": latencies,
        "node_cpu_s": node_cpu,
        "cpu_scale": hostspeed.NOMINAL_S / statistics.fmean(references),
        "acked": len(good),
        "ops": ops,
        "driven": driven,
        "client_delta": {k: after[k] - before[k] for k in before},
        "events": events,
        "restore": restore,
        "shard_dir": shard_dir,
    }
    return run


def end_to_end(run: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics, plus ``op_tail_ms`` (p99) for the traced
    run to report.  Node CPU time is scaled to the nominal host speed."""
    lat = run["latencies_ms"]
    return {
        "setup_s": statistics.median(run["setups"]),
        "op_p50_ms": stats.nearest_rank(lat, 0.50),
        "op_tail_ms": stats.tail(lat, 0.99),
        "cpu_ms_per_op": (run["node_cpu_s"] * run["cpu_scale"] * 1e3
                          / max(1, run["acked"])),
    }
