"""Open-loop load generator: schedule honesty, engine-agnosticism, gates.

The source's contract is the deterministic injection schedule
``intended_time(j) = start_at + j/rate``: latency is graded against it,
so these tests pin (a) the schedule itself, (b) that the source runs
unmodified on the simulator (it only touches the ``RuntimeEnv`` surface),
and (c) the sweep's CI gates (floor, trend, negative-latency detection).
The live-engine smoke runs one real cluster at a modest rate.
"""

import json
import os

import pytest

from repro.analysis import check_recovery
from repro.apps.applications import mix64
from repro.core.recovery import DamaniGargProcess
from repro.bench import append_trend_row, check_trend
from repro.live.load import (
    TREND,
    LoadPipelineApp,
    OpenLoopSource,
    check_load_payload,
    job_latencies,
    load_spec,
    run_load_bench,
)
from repro.live.verify import pipeline_reference
from repro.protocols.base import ProtocolConfig
from repro.runtime.trace import EventKind
from repro.sim.kernel import Simulator
from repro.sim.network import DeliveryOrder, Network, ScriptedLatency
from repro.sim.process import ProcessHost
from repro.sim.rng import RandomStreams
from repro.runtime.trace import SimTrace


def test_intended_schedule_is_deterministic():
    source = OpenLoopSource.__new__(OpenLoopSource)
    source.rate = 50.0
    source.start_at = 0.25
    assert source.intended_time(0) == 0.25
    assert source.intended_time(50) == pytest.approx(1.25)
    assert source.intended_time(100) == pytest.approx(2.25)


def test_source_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OpenLoopSource(object(), rate=0.0, jobs=1)
    with pytest.raises(ValueError):
        OpenLoopSource(object(), rate=10.0, jobs=-1)


def test_load_app_has_no_bootstrap_burst():
    class Ctx:
        def __init__(self):
            self.sent = []

        def send(self, dst, payload):
            self.sent.append((dst, payload))

    ctx = Ctx()
    LoadPipelineApp(jobs=8).bootstrap(0, 4, ctx)
    assert ctx.sent == []


def _run_sim_load(n=4, rate=20.0, jobs=10, start_at=1.0, horizon=400.0):
    """The source on the deterministic simulator: same protocol objects,
    same ``RuntimeEnv`` surface, zero real time."""
    sim = Simulator()
    trace = SimTrace()
    network = Network(
        sim,
        n,
        streams=RandomStreams(0),
        latency=ScriptedLatency(default=1.0),
        order=DeliveryOrder.RANDOM,
        trace=trace,
    )
    hosts = [ProcessHost(pid, sim, network, trace) for pid in range(n)]
    protocols = [
        DamaniGargProcess(
            host.runtime_env(),
            LoadPipelineApp(jobs=jobs),
            ProtocolConfig(checkpoint_interval=1e9, flush_interval=1e9),
        )
        for host in hosts
    ]
    for host in hosts:
        host.start()
    source = OpenLoopSource(
        protocols[0], rate=rate, jobs=jobs, start_at=start_at
    )
    source.start()
    sim.run(until=horizon)
    for protocol in protocols:
        protocol.halt_periodic_tasks()
    sim.drain()
    return source, trace, protocols, sim, network, hosts


def test_source_runs_on_the_simulator():
    jobs, rate, start_at = 10, 20.0, 1.0
    source, trace, protocols, *_ = _run_sim_load(
        jobs=jobs, rate=rate, start_at=start_at
    )
    assert source.injected == jobs
    assert source.done

    expected = pipeline_reference(4, jobs)
    outputs = {
        e.get("value")[1]: e.get("value")[2]
        for e in trace.events(EventKind.OUTPUT)
    }
    assert outputs == expected

    latencies = job_latencies(trace, rate=rate, start_at=start_at)
    assert sorted(latencies) == list(range(jobs))
    assert all(v >= 0.0 for v in latencies.values())


def test_sim_injections_follow_the_open_loop_schedule():
    jobs, rate, start_at = 10, 20.0, 1.0
    source, trace, *_ = _run_sim_load(jobs=jobs, rate=rate, start_at=start_at)
    # pid 0 sends nothing but its injections here (no checkpoints, no
    # crashes, no tokens), so its SEND events are the injection schedule.
    sends = trace.events(EventKind.SEND, pid=0)
    assert len(sends) == jobs
    for j, event in enumerate(sends):
        intended = start_at + j / rate
        assert event.time == pytest.approx(intended), (
            f"job {j} injected at t={event.time}, schedule says {intended}"
        )


def test_sim_load_run_passes_the_recovery_oracle():
    source, trace, protocols, sim, network, hosts = _run_sim_load()

    class Run:
        pass

    run = Run()
    run.trace = trace
    run.protocols = protocols
    run.sim = sim
    run.network = network
    run.hosts = hosts
    assert check_recovery(run).ok


def test_injected_payloads_match_the_bootstrap_wire_format():
    """The oracle's closed-form reference only grades load runs because
    an injected job is identical to a bootstrap job."""

    class FakeEnv:
        now = 10.0   # every intended time has passed: one burst

        def schedule_after(self, delay, callback, **kwargs):
            callback()

    class FakeProtocol:
        env = FakeEnv()

        def __init__(self):
            self.sent = []

        def inject_app_send(self, dst, payload):
            self.sent.append((dst, payload))

    protocol = FakeProtocol()
    source = OpenLoopSource(protocol, rate=100.0, jobs=3, start_at=0.0)
    source.start()
    assert source.done
    for j, (dst, payload) in enumerate(protocol.sent):
        assert dst == 1
        assert payload.job_id == j
        assert payload.stage == 1
        assert payload.value == mix64(j, 0)


def test_load_spec_budgets_drain_for_the_backlog():
    quick = load_spec(n=4, rate=10.0, duration=1.0)
    saturated = load_spec(n=4, rate=2000.0, duration=1.0)
    assert quick.jobs == 10
    assert saturated.jobs == 2000
    assert saturated.run_seconds > quick.run_seconds
    assert saturated.app["kind"] == "load"
    # Pruning must be on: open-loop runs would otherwise grow the
    # storage image with every delivered message.
    assert saturated.gossip_stability
    assert saturated.enable_gc
    assert saturated.compact_history


# ---------------------------------------------------------------------------
# CI gates (pure functions)
# ---------------------------------------------------------------------------
def _payload(ok=True, lat_min=0.001, rate=300.0):
    return {
        "n": 4,
        "duration_s": 1.0,
        "offered_rates": [100.0],
        "max_sustained_rate": 100.0,
        "peak_deliveries_per_second": rate,
        "cpus": 1,
        "scenarios": {
            "rate_100": {
                "ok": ok,
                "verdict": "PASS" if ok else "FAIL: boom",
                "deliveries_per_second": rate,
                "job_latency_s": {"min": lat_min},
            }
        },
    }


def test_check_load_payload_passes_a_clean_sweep():
    assert check_load_payload(_payload(), min_deliveries_per_sec=100.0) == []


def test_check_load_payload_flags_oracle_failure():
    problems = check_load_payload(
        _payload(ok=False), min_deliveries_per_sec=0.0
    )
    assert any("oracle FAIL" in p for p in problems)


def test_check_load_payload_flags_negative_latency():
    problems = check_load_payload(
        _payload(lat_min=-0.004), min_deliveries_per_sec=0.0
    )
    assert any("negative job latency" in p for p in problems)


def test_check_load_payload_flags_throughput_below_floor():
    problems = check_load_payload(
        _payload(rate=50.0), min_deliveries_per_sec=100.0
    )
    assert any("below the floor" in p for p in problems)


def test_trend_rows_append_and_gate(tmp_path):
    path = os.path.join(tmp_path, "trend.jsonl")
    assert check_trend(path, _payload(), TREND) == []   # no history yet

    append_trend_row(path, _payload(rate=1000.0), TREND)
    append_trend_row(path, _payload(rate=900.0), TREND)
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [r["peak_deliveries_per_second"] for r in rows] == [1000.0, 900.0]

    # within tolerance
    assert check_trend(path, _payload(rate=800.0), TREND) == []
    problems = check_trend(path, _payload(rate=100.0), TREND)
    assert problems and "regressed" in problems[0]


# ---------------------------------------------------------------------------
# Live-engine smoke
# ---------------------------------------------------------------------------
def test_live_load_smoke(tmp_path):
    """One real cluster at a modest offered rate: oracle PASS, honest
    non-negative latencies, sane throughput accounting."""
    payload = run_load_bench(
        str(tmp_path), n=3, rates=(40.0,), duration=1.0, start_at=0.25
    )
    (scenario,) = payload["scenarios"].values()
    assert scenario["ok"], scenario["verdict"]
    assert scenario["injected"] == scenario["jobs"] == 40
    assert scenario["outputs_committed"] == 40

    lat = scenario["job_latency_s"]
    assert lat["min"] is not None and lat["min"] >= 0.0
    assert lat["min"] <= lat["p50"] <= lat["p99"] <= lat["max"]

    assert scenario["active_seconds"] > 0
    assert scenario["deliveries_per_second"] > 0
    assert scenario["deliveries_per_second_wall"] > 0
    # Active window excludes spawn/linger overhead, so it can only give
    # a throughput reading at or above the wall-clock one.
    assert (
        scenario["deliveries_per_second"]
        >= scenario["deliveries_per_second_wall"]
    )
    assert check_load_payload(payload, min_deliveries_per_sec=10.0) == []
