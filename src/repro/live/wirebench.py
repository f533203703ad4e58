"""Piggyback wire-cost benchmark (``BENCH_wire.json``).

Replays the adversarial ``stress-mix`` scenario on the simulator with the
obs layer on and reads the per-send clock cost counters: what every app
message paid for its FTVC under a full-clock JSON encoding versus the
per-link delta encoding the live mesh uses (full clock on the first send
of a link and after every crash, diffs after).  Same schedule, same
messages, so the ratio is exact and machine-independent.

The live cost of the same encoding (wire bytes, data frames and fsyncs
per delivery on real clusters) is reported by the ``live`` suite.
"""

from __future__ import annotations

from typing import Any


def measure_piggyback(seed: int | None = None) -> dict[str, Any]:
    """Full-clock JSON vs per-link delta clock cost on ``stress-mix``."""
    from repro.harness.runner import run_experiment
    from repro.obs.scenarios import build_scenario
    from repro.obs.tracer import Tracer

    spec = build_scenario("stress-mix", seed)
    tracer = Tracer()
    spec.tracer = tracer
    run_experiment(spec)

    clocks = tracer.counter_value("dg.wire_clocks_sent")
    full_json = tracer.counter_value("dg.wire_bytes_full_json")
    delta = tracer.counter_value("dg.wire_bytes_delta")
    fallbacks = tracer.counter_value("dg.wire_full_fallbacks")
    return {
        "scenario": "stress-mix",
        "clocks_sent": int(clocks),
        "full_clock_fallbacks": int(fallbacks),
        "full_json_bytes_total": int(full_json),
        "delta_bytes_total": int(delta),
        "full_json_bytes_per_msg": (
            round(full_json / clocks, 2) if clocks else None
        ),
        "delta_bytes_per_msg": (
            round(delta / clocks, 2) if clocks else None
        ),
        "reduction_factor": (
            round(full_json / delta, 2) if delta else None
        ),
    }


def run_wire_bench(*, seed: int | None = None) -> dict[str, Any]:
    """The ``BENCH_wire.json`` payload."""
    return {
        "benchmark": "wire-storage-fast-path",
        "protocol": "damani-garg",
        "piggyback": measure_piggyback(seed),
    }
