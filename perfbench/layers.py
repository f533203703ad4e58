"""Per-layer metrics of a traced run, from spans and the files on disk.

KV runs read what the shard left behind: each node's done report
(``done_p<pid>.json``: protocol, transport, storage and trace counters
of the final incarnation), the durable images (``data/stable_p<pid>
.pickle``), the merged trace, and the span files the node hook wrote
(``spans_<ospid>.json``; a SIGKILLed incarnation writes none).  The
sim-stress run reads its in-process recorder.  Metrics of layers a
workload does not exercise are left out here; ``run.py`` prints them as
0, which is the prediction for that workload.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Any

from perfbench import recovery, stats
from perfbench.spans import merge_totals, self_seconds_by_layer

#: Layers whose self time is reported as ``self_s.<layer>``.
LAYERS = ("service", "protocol", "wire", "storage", "trace", "sim",
          "stress", "analysis")

STATS_FIELDS = {
    "protocol.delivered": "app_delivered",
    "protocol.discarded": "app_discarded",
    "protocol.postponed": "app_postponed",
    "protocol.duplicates_discarded": "duplicates_discarded",
    "protocol.rollbacks": "rollbacks",
    "protocol.replayed": "replayed",
    "protocol.retransmitted": "retransmitted",
}


class Spans:
    """Lookups over merged span aggregates."""

    def __init__(self, totals: dict[str, dict], samples: list[int]) -> None:
        self.totals = totals
        self.samples = samples

    def seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, {}).get("incl_ns", 0)
                   for n in names) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, {}).get("calls", 0) for n in names)


def common(spans: Spans, protocol_stats: list[dict],
           obs: dict[str, float]) -> dict[str, float]:
    """Metrics both engines measure the same way."""
    out = {
        "protocol.receive_s": spans.seconds("protocol.receive"),
        "protocol.receive_calls": spans.calls("protocol.receive"),
        "protocol.inject_s": spans.seconds("protocol.inject"),
        "protocol.checkpoint_s": spans.seconds("protocol.checkpoint"),
        "protocol.checkpoint_calls": spans.calls("protocol.checkpoint"),
        "protocol.stability_s": spans.seconds("protocol.stability"),
        "ftvc.compare_calls": spans.calls("ftvc.compare"),
        "ftvc.compare_s": spans.seconds("ftvc.compare"),
        "ftvc.merge_calls": spans.calls("ftvc.merge"),
        "history.is_obsolete_calls": spans.calls("history.is_obsolete"),
        "history.orphan_checks": spans.calls("history.orphan_check"),
        "storage.persist_ms_mean": (
            statistics.mean(spans.samples) / 1e6 if spans.samples else 0.0),
        "storage.persist_p99_ms": (
            stats.nearest_rank(spans.samples, 0.99) / 1e6
            if spans.samples else 0.0),
        "protocol.piggyback_bytes_per_msg": (
            obs.get("dg.wire_bytes_delta", 0.0)
            / max(1.0, obs.get("dg.wire_clocks_sent", 0.0))),
    }
    for metric, field in STATS_FIELDS.items():
        out[metric] = sum(s.get(field, 0) for s in protocol_stats)
    by_layer = self_seconds_by_layer(spans.totals)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = by_layer.get(layer, 0.0)
    return out


# ---------------------------------------------------------------------------
# KV workloads
# ---------------------------------------------------------------------------
def _load_json(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def kv_layers(run: dict[str, Any], span_dir: str) -> dict[str, float]:
    from perfbench import kv

    shard_dir = run["shard_dir"]
    acked = max(1, run["acked"])
    done = {
        int(os.path.basename(p)[len("done_p"):-len(".json")]): _load_json(p)
        for p in glob.glob(os.path.join(shard_dir, "done_p*.json"))
    }
    snaps = [_load_json(p) for p in
             glob.glob(os.path.join(span_dir, "spans_*.json"))]
    samples = [ns for s in snaps for ns in s["samples"].get(
        "storage.write", [])]
    spans = Spans(merge_totals(snaps), samples)
    obs: dict[str, float] = {}
    for snap in snaps:
        for name, value in snap["obs"].items():
            obs[name] = obs.get(name, 0.0) + value
    out = common(spans, [d["stats"] for d in done.values()], obs)

    ops = run["ops"]
    delta = run["client_delta"]
    transport = [d["transport"] for d in done.values()]
    out.update({
        "service.client.requests_per_op": (
            delta["ops"] + delta["failures"] + delta["retries"]) / acked,
        "service.client.gen_late_p99_ms": stats.nearest_rank(
            [(op["start"] - op["due"]) * 1e3 for op in ops], 0.99),
        "service.client.sessions_opened": run["driven"]["sessions_opened"],
        "service.client.stale_reads": delta["stale"],
        "service.client.unmatched_replies": delta["unmatched"],
        "service.gateway.requests": done.get(0, {}).get(
            "service", {}).get("requests", 0),
        "service.reply.forwarded_per_op": sum(
            d.get("service", {}).get("replies_forwarded", 0)
            for d in done.values()) / acked,
        "service.kv.handle_s": spans.seconds("service.kv.handle"),
        "service.kv.handle_calls": spans.calls("service.kv.handle"),
        "transport.bytes_sent_per_op": sum(
            t["bytes_sent"] for t in transport) / acked,
        "transport.frames_per_op": sum(
            t["data_frames_sent"] for t in transport) / acked,
        "transport.delivery_batch_mean": sum(
            t["delivered"] for t in transport) / max(1, sum(
                d["delivery_batches"] for d in done.values())),
        "transport.retransmitted": sum(t["retransmitted"] for t in transport),
        "transport.dial_attempts": sum(t["dial_attempts"] for t in transport),
        "wire.encode_s": spans.seconds("wire.encode"),
        "wire.decode_s": spans.seconds("wire.decode"),
        "trace.records_per_op": sum(
            d["trace_records"] for d in done.values()) / acked,
        "trace.flushes_per_op": sum(
            d["trace_flushes"] for d in done.values()) / acked,
        "trace.write_s": spans.seconds("trace.write"),
        "op_error_rate": run["failed"] / run["attempted"],
    })
    out.update(_kv_storage(run, snaps, spans, done, acked))
    out.update(_kv_nodes(snaps))
    if run["restore"] is not None:
        out.update(_kv_recovery(run, snaps, done, kv.VICTIM))
    return out


def _kv_storage(run, snaps, spans, done, acked) -> dict[str, float]:
    persists = sum(s["pickles"] for s in snaps)
    barrier = len(spans.samples)
    window = sum(d["storage_window_flushes"] for d in done.values())
    data_dir = os.path.join(run["shard_dir"], "data")

    def image(pid: int) -> int:
        path = os.path.join(data_dir, f"stable_p{pid}.pickle")
        return os.path.getsize(path) if os.path.exists(path) else 0

    replicas = sorted(pid for pid in done if pid != 0)
    reloads = [s["image_open_ns"] for s in snaps
               if s["boot"] > 1 and s["image_open_ns"] is not None]
    return {
        "storage.persists_per_op": persists / acked,
        "storage.persists_barrier_per_op": barrier / acked,
        "storage.persists_window_per_op": window / acked,
        "storage.persists_other_per_op": max(
            0, persists - barrier - window) / acked,
        "storage.image_bytes.gateway": image(0),
        "storage.image_bytes.replica": (
            statistics.mean(image(p) for p in replicas) if replicas else 0),
        "storage.bytes_serialised_per_op": sum(
            s["pickled_bytes"] for s in snaps) / acked,
        "storage.fsyncs_per_op": spans.calls("storage.fsync") / acked,
        "storage.pickle_s": spans.seconds("storage.pickle"),
        "storage.fsync_s": spans.seconds("storage.fsync"),
        "recovery.image_load_s": sum(reloads) / 1e9,
    }


def _kv_nodes(snaps) -> dict[str, float]:
    gateway = [s["cpu_s"] for s in snaps if s["pid"] == 0]
    replicas = [s["cpu_s"] for s in snaps if s["pid"] not in (0, None)]
    return {
        "node.cpu_s.gateway": sum(gateway),
        "node.cpu_s.replica": statistics.mean(replicas) if replicas else 0.0,
    }


def _kv_recovery(run, snaps, done, victim) -> dict[str, float]:
    restore = run["restore"]
    out = {
        "recovery.restore_s": restore["restore_s"],
        "recovery.outage_window_s": restore["outage_window_s"],
        "recovery.replayed": done.get(victim, {}).get(
            "stats", {}).get("replayed", 0),
        "recovery.retransmitted": sum(
            d["stats"].get("retransmitted", 0) for d in done.values()),
    }
    with open(os.path.join(run["shard_dir"], "epoch.json"),
              encoding="utf-8") as fh:
        epoch = json.load(fh)["epoch"]
    respawns = [s["started_wall"] - epoch for s in snaps
                if s["pid"] == victim and s["boot"] > 1]
    line = recovery.timeline(
        run["events"], victim,
        respawn_t=min(respawns) if respawns else None,
        first_reply_t=restore["first_reply_env"],
    )
    out["recovery.peer_rollbacks"] = line["peer_rollbacks"]
    for name, value in recovery.phases(line).items():
        if value is not None:
            out[f"recovery.{name}"] = value
    return out


# ---------------------------------------------------------------------------
# sim-stress
# ---------------------------------------------------------------------------
def sim_layers(run: dict[str, Any]) -> dict[str, float]:
    snap = run["recorder"].snapshot()
    schedules = max(1, len(run["durations"]))
    spans = Spans(snap["totals"], snap["samples"].get("storage.write", []))
    out = common(spans, run["protocol_stats"], run["obs"])
    sim_run = spans.seconds("sim.run")
    out.update({
        "sim.run_s": sim_run,
        "sim.events": run["sim_events"],
        "sim.events_per_s": run["sim_events"] / sim_run if sim_run else 0.0,
        "stress.schedules_per_s": schedules / run["elapsed"],
        "stress.generate_s": spans.seconds("stress.generate"),
        "analysis.check_case_s": spans.seconds("analysis.check_case"),
        "analysis.theorem1_s": spans.seconds("analysis.theorem1"),
        "analysis.check_recovery_s": spans.seconds("analysis.check_recovery"),
        "analysis.overhead_s": spans.seconds("analysis.overhead"),
        "analysis.ground_truth_s": spans.seconds("analysis.ground_truth"),
        "analysis.ground_truth_builds_per_schedule": (
            spans.calls("analysis.ground_truth") / schedules),
        "storage.persists_per_op": spans.calls("storage.write") / schedules,
        "storage.persists_barrier_per_op": (
            spans.calls("storage.write") / schedules),
        "op_error_rate": run["failed"] / max(1, run["attempted"]),
    })
    return out
