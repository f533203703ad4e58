"""Recovery timeline of one SIGKILL, from the files a live shard leaves.

Inputs are plain event dicts as the node traces and the supervisor's
crash record store them on disk (``{"t", "kind", "pid", "fields"}``, one
per JSONL line, ``t`` in env-time seconds since the shard epoch) and the
benchmark's client op log (client-clock seconds).  Everything here is
pure so the tests can feed it synthetic traces.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence


def load_events(paths: Iterable[str]) -> list[dict[str, Any]]:
    """Every trace record of ``paths``, ordered by env-time."""
    events = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    # A SIGKILL can cut the last line of a node trace.
                    continue
    events.sort(key=lambda e: e["t"])
    return events


def _first(events, kind, *, pid, after=float("-inf")):
    for e in events:
        if e["kind"] == kind and e["pid"] == pid and e["t"] >= after:
            return e
    return None


def check_recovery_trace(events: Sequence[dict[str, Any]]) -> list[str]:
    """The recovery oracle: each crash is followed by restart, token and
    a checkpoint taken at or after that restart (same pid)."""
    failures = []
    for crash in (e for e in events if e["kind"] == "crash"):
        pid, t = crash["pid"], crash["t"]
        restart = _first(events, "restart", pid=pid, after=t)
        if restart is None:
            failures.append(f"p{pid} crashed at t={t:.3f} and never restarted")
            continue
        if _first(events, "token_send", pid=pid, after=t) is None:
            failures.append(f"p{pid} recovered without sending a token")
        if _first(events, "checkpoint", pid=pid, after=restart["t"]) is None:
            failures.append(
                f"p{pid} restarted at t={restart['t']:.3f} without a "
                "post-restart checkpoint"
            )
    return failures


def timeline(
    events: Sequence[dict[str, Any]],
    pid: int,
    *,
    respawn_t: float | None = None,
    first_reply_t: float | None = None,
) -> dict[str, Any]:
    """Env-times of one recovery: kill -> respawn -> RESTORE -> RESTART
    -> first client reply, and how many peer ROLLBACKs it caused.

    ``respawn_t`` (when the new incarnation's interpreter started) and
    ``first_reply_t`` (mapped onto env-time) come from outside the trace.
    Missing steps are ``None``.
    """
    crash = _first(events, "crash", pid=pid)
    if crash is None:
        return {"kill": None}
    kill = crash["t"]
    restore = _first(events, "restore", pid=pid, after=kill)
    restart = _first(events, "restart", pid=pid, after=kill)
    rollbacks = [
        e for e in events
        if e["kind"] == "rollback" and e["pid"] != pid and e["t"] >= kill
    ]
    return {
        "kill": kill,
        "respawn": respawn_t,
        "restore": restore["t"] if restore else None,
        "restart": restart["t"] if restart else None,
        "peer_rollbacks": len(rollbacks),
        "first_reply": first_reply_t,
    }


def phases(line: dict[str, Any]) -> dict[str, float | None]:
    """Durations between consecutive timeline steps (seconds)."""

    def gap(a: str, b: str) -> float | None:
        if line.get(a) is None or line.get(b) is None:
            return None
        return line[b] - line[a]

    return {
        "kill_to_respawn_s": gap("kill", "respawn"),
        "respawn_to_restore_s": gap("respawn", "restore"),
        "restore_to_restart_s": gap("restore", "restart"),
        "restart_to_first_reply_s": gap("restart", "first_reply"),
    }


def restore_time(
    ops: Sequence[dict[str, Any]], pid: int, kill_client_t: float
) -> tuple[float, float] | None:
    """``(restore_s, reply time)``: the SIGKILL to the first reply for an
    op whose key's primary is ``pid``.

    Only ops first sent at or after the kill count: a reply the old
    incarnation wrote just before dying can still arrive after the kill
    and would otherwise read as an instant recovery.
    """
    replies = [
        op["done"] for op in ops
        if op["primary"] == pid
        and op["version"] is not None
        and op["start"] >= kill_client_t
    ]
    if not replies:
        return None
    first = min(replies)
    return first - kill_client_t, first


def outage_windows(
    ops: Sequence[dict[str, Any]], pid: int, slow_after: float
) -> list[tuple[float, float]]:
    """Merged ``[start, done]`` spans of ``pid``'s ops slower than
    ``slow_after`` -- the client's view of that replica's outage."""
    spans = sorted(
        (op["start"], op["done"]) for op in ops
        if op["primary"] == pid and op["done"] - op["start"] > slow_after
    )
    merged: list[tuple[float, float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def cross_check(
    restore_s: float,
    kill_client_t: float,
    windows: Sequence[tuple[float, float]],
    *,
    slack: float = 0.1,
) -> str | None:
    """``None`` when the longest outage window agrees with ``restore_s``.

    The window must open by the kill (an op was pending at it, or was
    sent within ``slack`` after it) and must not close before the
    measured first reply.
    """
    if not windows:
        return "no client outage window for the killed replica"
    start, end = max(windows, key=lambda w: w[1] - w[0])
    if start > kill_client_t + slack:
        return (f"longest outage opens at {start:.3f}, kill at "
                f"{kill_client_t:.3f}")
    if end < kill_client_t + restore_s - slack:
        return (f"longest outage closes at {end:.3f}, before the first "
                f"reply at {kill_client_t + restore_s:.3f}")
    return None
