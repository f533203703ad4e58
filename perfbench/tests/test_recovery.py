"""Recovery timeline, oracle and restore_s from a synthetic run."""

import json

import pytest

from perfbench import recovery


def ev(t, kind, pid):
    return {"t": t, "kind": kind, "pid": pid, "fields": {}}


TRACE = [
    ev(1.0, "checkpoint", 1),
    ev(5.0, "crash", 1),
    ev(5.9, "restore", 1),
    ev(6.0, "restart", 1),
    ev(6.0, "token_send", 1),
    ev(6.05, "rollback", 2),
    ev(6.07, "rollback", 0),
    ev(6.1, "checkpoint", 1),
]


def test_oracle_accepts_a_complete_recovery():
    assert recovery.check_recovery_trace(TRACE) == []


@pytest.mark.parametrize("dropped, message", [
    ("restart", "never restarted"),
    ("token_send", "without sending a token"),
    ("checkpoint", "without a post-restart checkpoint"),
])
def test_oracle_flags_each_missing_step(dropped, message):
    trace = [e for e in TRACE if not (e["kind"] == dropped and e["t"] > 5)]
    failures = recovery.check_recovery_trace(trace)
    assert len(failures) == 1 and message in failures[0]


def test_timeline_and_phases():
    line = recovery.timeline(TRACE, 1, respawn_t=5.75, first_reply_t=6.3)
    assert line["kill"] == 5.0 and line["peer_rollbacks"] == 2
    phases = recovery.phases(line)
    assert phases["kill_to_respawn_s"] == pytest.approx(0.75)
    assert phases["respawn_to_restore_s"] == pytest.approx(0.15)
    assert phases["restore_to_restart_s"] == pytest.approx(0.1)
    assert phases["restart_to_first_reply_s"] == pytest.approx(0.3)
    unknown = recovery.phases(recovery.timeline(TRACE, 1))
    assert unknown["kill_to_respawn_s"] is None


def test_timeline_without_a_crash():
    assert recovery.timeline(TRACE[:1], 1) == {"kill": None}


def _op(start, done, primary=1, version=1):
    return {"start": start, "done": done, "primary": primary,
            "version": version}


# Client clock: the kill lands at 10.0.
OPS = [
    _op(9.95, 10.002),          # sent before the kill, its reply raced it
    _op(9.99, 11.40),           # pending at the kill, answered after
    _op(10.01, 11.35),          # first op sent after the kill
    _op(10.02, 10.03, primary=2),
    _op(10.03, 11.36),
    _op(10.04, 11.20, version=None),   # never acked
]


def test_restore_time_ignores_replies_sent_before_the_kill():
    restore_s, reply_t = recovery.restore_time(OPS, 1, 10.0)
    assert reply_t == 11.35
    assert restore_s == pytest.approx(1.35)
    assert recovery.restore_time(OPS, 2, 10.5) is None


def test_outage_windows_and_cross_check():
    windows = recovery.outage_windows(OPS, 1, slow_after=0.4)
    assert windows == [(9.99, 11.40)]
    assert recovery.cross_check(1.35, 10.0, windows) is None
    assert "before the first reply" in recovery.cross_check(
        1.35, 10.0, [(9.99, 10.5)])
    assert "opens at" in recovery.cross_check(1.35, 10.0, [(10.5, 11.5)])
    assert recovery.cross_check(1.35, 10.0, []) is not None


def test_load_events_orders_files_and_skips_a_cut_line(tmp_path):
    node = tmp_path / "trace_p1.jsonl"
    node.write_text(json.dumps(ev(6.0, "restart", 1)) + "\n{\"t\": 7")
    sup = tmp_path / "trace_supervisor.jsonl"
    sup.write_text(json.dumps(ev(5.0, "crash", 1)) + "\n")
    events = recovery.load_events([str(node), str(sup)])
    assert [e["kind"] for e in events] == ["crash", "restart"]
