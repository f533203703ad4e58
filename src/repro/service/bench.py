"""The service benchmark: a closed-loop user simulator over real shards.

``python -m repro bench service`` boots a :class:`ShardManager`, drives
``sessions`` concurrent closed-loop user sessions (Zipfian keys, mixed
puts/gets, one op outstanding per session) through :class:`KVClient`
while each shard's supervisor SIGKILLs a replica mid-run, and grades the
whole thing from two vantage points:

- **client-side** (user-visible truth): every op completes; per shard,
  the merged [first send, completion] spans of retried ops are the
  *unavailability windows*, and get replies below a session's version
  floor open *stale-read windows* (closed by the first satisfying
  reply).  After a settle phase, the **exactly-once audit** reads every
  written key back with a floor equal to the count of distinct acked
  puts: a version above the floor means some op applied twice, a read
  stuck below it means an acked write was lost -- equality on every key
  is the paper's exactly-once promise surviving crash and rollback.
- **trace-side** (protocol truth): each shard's merged trace must show
  every supervisor crash followed by a restart, a recovery-token
  broadcast, and a post-restart checkpoint.

The result is ``BENCH_service.json`` (format
``repro-service-bench-v1``); :func:`check_service_payload` is the CI
gate over its schema and verdicts.
"""

from __future__ import annotations

import asyncio
import random
import time
from bisect import bisect_right
from typing import Any, Callable, Sequence

from repro.analysis.metrics import percentile
from repro.live.supervisor import LiveRunResult
from repro.runtime.trace import EventKind, SimTrace
from repro.service.client import KVClient, ShardClientMetrics, ShardEndpoint
from repro.service.manager import ServiceConfig, ShardManager
from repro.service.routing import RoutingTable

SERVICE_BENCH_FORMAT = "repro-service-bench-v1"


# ---------------------------------------------------------------------------
# Workload shape
# ---------------------------------------------------------------------------
def zipf_sampler(
    rng: random.Random, keys: int, s: float
) -> Callable[[], str]:
    """A Zipf(s) key sampler over ``k0..k{keys-1}`` (rank 1 hottest)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(keys)]
    cumulative, total = [], 0.0
    for w in weights:
        total += w
        cumulative.append(total)

    def sample() -> str:
        return f"k{bisect_right(cumulative, rng.random() * total)}"

    return sample


# ---------------------------------------------------------------------------
# Trace-side oracle (the generic recovery half of check_live_run)
# ---------------------------------------------------------------------------
def check_shard_trace(trace: SimTrace) -> dict[str, Any]:
    """Grade one shard's merged trace: crash -> restart + token + ckpt."""
    failures: list[str] = []
    crash_events = trace.events(EventKind.CRASH)
    restart_events = trace.events(EventKind.RESTART)
    token_events = trace.events(EventKind.TOKEN_SEND)
    for crash in crash_events:
        if not any(
            r.pid == crash.pid and r.time > crash.time
            for r in restart_events
        ):
            failures.append(
                f"p{crash.pid} crashed at t={crash.time:.3f} and never "
                "restarted"
            )
        if not any(
            t.pid == crash.pid and t.time > crash.time
            for t in token_events
        ):
            failures.append(
                f"p{crash.pid} recovered without broadcasting a token"
            )
    for restart in restart_events:
        if not any(
            c.pid == restart.pid and c.time >= restart.time
            for c in trace.events(EventKind.CHECKPOINT)
        ):
            failures.append(
                f"p{restart.pid} restarted at t={restart.time:.3f} "
                "without a post-restart checkpoint"
            )
    return {
        "ok": not failures,
        "failures": failures,
        "crashes": len(crash_events),
        "restarts": len(restart_events),
        "tokens": len(token_events),
    }


def merge_intervals(
    spans: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Union of possibly-overlapping [start, end] spans."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# ---------------------------------------------------------------------------
# The user simulator
# ---------------------------------------------------------------------------
async def _drive_users(
    config: ServiceConfig,
    routing: RoutingTable,
    endpoints: Sequence[ShardEndpoint],
) -> dict[str, Any]:
    client = KVClient(
        routing, endpoints, request_timeout=config.request_timeout
    )
    await client.start()
    # Phase budget inside the cluster's run_seconds *cap*: sessions
    # finish, the shard settles (retransmissions land), then the audit
    # reads -- after which the bench publishes the stop signal, so a
    # fast machine never sits out the rest of the cap.  The audit gets
    # its own reserved slice of the cap; without it a slow op phase
    # starves the reads and every key looks "lost" at the deadline.
    audit_budget = max(15.0, 0.25 * config.keys)
    ops_deadline = config.run_seconds - config.settle_seconds - audit_budget

    async def one_session(index: int) -> int:
        await asyncio.sleep(0.002 * index)      # staggered ramp
        session = client.session()
        rng = random.Random(config.seed * 100_003 + index)
        sample = zipf_sampler(rng, config.keys, config.zipf_s)
        for _ in range(config.ops_per_session):
            key = sample()
            if rng.random() < config.put_ratio:
                await session.put(
                    key, rng.randrange(1 << 16), deadline=ops_deadline
                )
            else:
                await session.get(key, deadline=ops_deadline)
        return session.failed_ops

    failed = sum(
        await asyncio.gather(
            *(one_session(i) for i in range(config.sessions))
        )
    )
    await asyncio.sleep(config.settle_seconds)

    # Exactly-once audit: read every written key back at a floor equal
    # to the number of *distinct acked puts* -- above means a double
    # application, stuck below means a lost acked write.  Only a clean
    # session phase is auditable: an op the client gave up on may or may
    # not have been applied, so its key has no exact expected version.
    expected = {
        key: len(op_ids) for key, op_ids in client.acked_puts.items()
    }
    mismatches: list[dict[str, Any]] = []
    audited = 0
    if failed == 0:
        audit_deadline = min(
            client.now() + audit_budget,
            config.run_seconds + config.linger - 0.3,
        )
        audit_session = client.session()

        # The reads run concurrently: each key gets the whole audit
        # budget instead of whatever a sequential sweep left over while
        # the shard drained its post-storm backlog.
        async def audit_one(key: str, count: int) -> dict[str, Any] | None:
            reply = await audit_session.get(
                key, min_version=count, deadline=audit_deadline
            )
            if reply is None:
                # A floorless probe distinguishes a genuinely lost write
                # (version short of the floor) from an audit that ran
                # out of budget before any reply came back.
                probe = await client.session().get(
                    key, deadline=client.now() + 2.0
                )
                return {"key": key, "expected": count,
                        "observed": (
                            int(probe["version"]) if probe else None
                        ),
                        "kind": "acked write lost"}
            if int(reply["version"]) != count:
                return {"key": key, "expected": count,
                        "observed": int(reply["version"]),
                        "kind": "duplicate application"}
            return None

        ordered = sorted(expected.items())
        verdicts = await asyncio.gather(
            *(audit_one(key, count) for key, count in ordered)
        )
        audited = len(ordered)
        mismatches = [v for v in verdicts if v is not None]
    monotonicity = sum(
        m.monotonicity_violations for m in client.metrics
    )
    await client.aclose()
    return {
        "metrics": client.metrics,
        "failed_ops": failed,
        "audited_keys": audited,
        "expected_keys": len(expected),
        "mismatches": mismatches,
        "monotonicity_violations": monotonicity,
        "puts_acked": sum(len(v) for v in client.acked_puts.values()),
    }


def _shard_report(
    metrics: ShardClientMetrics, result: LiveRunResult | None
) -> dict[str, Any]:
    windows = merge_intervals(metrics.unavailable)
    stale = metrics.stale_durations
    latencies = sorted(metrics.latencies)
    report: dict[str, Any] = {
        "ops": metrics.ops,
        "puts": metrics.puts,
        "gets": metrics.gets,
        "retries": metrics.retries,
        "failures": metrics.failures,
        "unmatched_replies": metrics.unmatched_replies,
        "latency_s": {
            "p50": round(percentile(latencies, 0.50), 6) if latencies else None,
            "p99": round(percentile(latencies, 0.99), 6) if latencies else None,
            "max": round(latencies[-1], 6) if latencies else None,
        },
        "unavailability": {
            "windows": len(windows),
            "total_s": round(sum(e - s for s, e in windows), 6),
            "max_s": round(max((e - s for s, e in windows), default=0.0), 6),
        },
        "stale_reads": {
            "events": metrics.stale_events,
            "total_s": round(sum(stale), 6),
            "max_s": round(max(stale, default=0.0), 6),
        },
    }
    if result is not None:
        report["kills"] = [
            [pid, round(t, 3)] for pid, t in result.kills
        ]
        report["oracle"] = check_shard_trace(result.trace)
        gateway = result.done.get(0, {}).get("service", {})
        report["ingress_requests"] = gateway.get("requests", 0)
        report["replies_forwarded"] = sum(
            d.get("service", {}).get("replies_forwarded", 0)
            for d in result.done.values()
        )
    return report


def run_service_bench(
    config: ServiceConfig, workdir: str, *, echo: Callable[[str], None] = print
) -> dict[str, Any]:
    """One full service run graded end to end; returns the payload."""
    start = time.time()
    manager = ShardManager(config, workdir)
    echo(
        f"booting {config.shards} shard(s) x {config.nodes_per_shard} "
        f"node(s) in {workdir}"
    )
    manager.start()
    manager.wait_ready()
    echo(
        f"driving {config.sessions} session(s), "
        f"{config.ops_per_session} op(s) each, "
        f"{config.keys} Zipf({config.zipf_s}) keys"
    )
    user_report = asyncio.run(
        _drive_users(config, manager.routing, manager.endpoints())
    )
    # Workload + settle + audit are done: end the run now instead of
    # sitting out the rest of the run_seconds cap.
    manager.stop()
    results = manager.join()

    per_shard = {
        str(shard): _shard_report(
            user_report["metrics"][shard], results.get(shard)
        )
        for shard in range(config.shards)
    }
    exactly_once = {
        "verified": (
            user_report["failed_ops"] == 0
            and not user_report["mismatches"]
            and user_report["monotonicity_violations"] == 0
            and user_report["audited_keys"] == user_report["expected_keys"]
        ),
        "audited_keys": user_report["audited_keys"],
        "mismatches": user_report["mismatches"],
        "monotonicity_violations": user_report["monotonicity_violations"],
    }
    oracles_ok = all(
        report.get("oracle", {}).get("ok", False)
        for report in per_shard.values()
    )
    payload = {
        "format": SERVICE_BENCH_FORMAT,
        "config": {
            "shards": config.shards,
            "nodes_per_shard": config.nodes_per_shard,
            "run_seconds": config.run_seconds,
            "crash_at": config.crash_at if config.crash_replicas else None,
            "downtime": config.downtime,
            "fault_seed": config.fault_seed,
            "sessions": config.sessions,
            "ops_per_session": config.ops_per_session,
            "keys": config.keys,
            "put_ratio": config.put_ratio,
            "zipf_s": config.zipf_s,
            "seed": config.seed,
            "request_timeout": config.request_timeout,
        },
        "routing": manager.routing.to_dict(),
        "ops_total": config.sessions * config.ops_per_session,
        "ops_failed": user_report["failed_ops"],
        "puts_acked": user_report["puts_acked"],
        "exactly_once": exactly_once,
        "per_shard": per_shard,
        "ok": bool(
            exactly_once["verified"]
            and oracles_ok
            and user_report["failed_ops"] == 0
        ),
        "wall_seconds": round(time.time() - start, 3),
    }
    return payload


def check_service_payload(payload: dict[str, Any]) -> list[str]:
    """Schema + verdict gate for CI; returns problems (empty = pass)."""
    problems: list[str] = []
    if payload.get("format") != SERVICE_BENCH_FORMAT:
        problems.append(f"bad format {payload.get('format')!r}")
        return problems
    if payload.get("ops_failed"):
        problems.append(f"{payload['ops_failed']} op(s) never completed")
    exactly_once = payload.get("exactly_once", {})
    if not exactly_once.get("verified"):
        problems.append(
            "exactly-once not verified: "
            f"{exactly_once.get('mismatches')!r}, "
            f"{exactly_once.get('monotonicity_violations')} "
            "monotonicity violation(s)"
        )
    per_shard = payload.get("per_shard", {})
    if not per_shard:
        problems.append("no per-shard reports")
    for shard, report in sorted(per_shard.items()):
        oracle = report.get("oracle")
        if oracle is None:
            problems.append(f"shard {shard}: no trace oracle")
        elif not oracle.get("ok"):
            problems.append(
                f"shard {shard}: oracle FAIL: {oracle.get('failures')}"
            )
        for section in ("unavailability", "stale_reads", "latency_s"):
            if section not in report:
                problems.append(f"shard {shard}: missing {section}")
    return problems
