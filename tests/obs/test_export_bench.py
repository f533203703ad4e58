"""Exporter tests: JSON-lines trace files, MetricsReport, BENCH_obs.json."""

import json

from repro.bench import write_payload
from repro.harness.reporting import render_metrics_report
from repro.harness.runner import run_experiment
from repro.obs import (
    MetricsReport,
    Tracer,
    build_scenario,
    run_bench,
    write_jsonl,
)


def _instrumented_run():
    spec = build_scenario("quickstart")
    tracer = Tracer()
    spec.tracer = tracer
    return run_experiment(spec), tracer


def test_write_jsonl_round_trips(tmp_path):
    result, tracer = _instrumented_run()
    path = tmp_path / "trace.jsonl"
    lines = write_jsonl(
        tracer, str(path), meta={"scenario": "quickstart", "seed": 7}
    )
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    assert len(records) == lines
    assert records[0]["type"] == "meta"
    assert records[0]["format"] == "repro-obs-v1"
    assert records[0]["scenario"] == "quickstart"
    by_type: dict[str, list[dict]] = {}
    for record in records[1:]:
        by_type.setdefault(record["type"], []).append(record)
    assert set(by_type) == {"event", "counter", "gauge", "histogram"}
    counters = {r["name"]: r["value"] for r in by_type["counter"]}
    assert counters["dg.tokens_broadcast"] == 3
    gauges = {r["name"] for r in by_type["gauge"]}
    assert any(name.startswith("dg.history_records.") for name in gauges)
    # Gauge series entries are (virtual time, value) pairs.
    series = next(
        r for r in by_type["gauge"] if r["name"] == "sim.virtual_time"
    )
    assert all(len(pair) == 2 for pair in series["series"])


def test_jsonl_handles_non_serialisable_event_fields(tmp_path):
    tracer = Tracer()
    tracer.event("weird", payload=object(), nested={"k": (1, 2)})
    path = tmp_path / "t.jsonl"
    write_jsonl(tracer, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    event = records[1]
    assert event["name"] == "weird"
    assert isinstance(event["payload"], str)      # repr() fallback
    assert event["nested"] == {"k": [1, 2]}


def test_metrics_report_from_run_and_render():
    result, tracer = _instrumented_run()
    report = MetricsReport.from_run(result, tracer, wall_time_s=0.5)
    assert report.overhead is not None
    assert report.overhead.restarts == result.total_restarts
    assert report.extra["trace_signature"] == result.trace.signature()
    d = report.to_dict()
    assert d["wall_time_s"] == 0.5
    assert d["overhead"]["control_messages"] == 3
    json.dumps(d)                                  # fully serialisable
    rendered = render_metrics_report(report)
    assert "dg.tokens_broadcast" in rendered
    assert "history records (max)" in rendered
    assert "events/sec" in rendered


def test_run_bench_and_write_bench_json(tmp_path):
    bench = run_bench("quickstart", repeats=2)
    assert bench.repeats == 2
    assert len(bench.wall_time_s_all) == 2
    assert bench.wall_time_s == min(bench.wall_time_s_all)
    assert bench.events_per_sec > 0
    assert bench.peak_history_records > 0
    assert bench.piggyback_bytes_total > 0
    assert bench.tokens_broadcast == 3
    path = tmp_path / "BENCH_obs.json"
    written = write_payload(bench.to_dict(), str(path))
    assert written == str(path)
    data = json.loads(path.read_text())
    assert data["format"] == "repro-bench-v1"
    for key in (
        "scenario", "n", "seed", "wall_time_s", "events_fired",
        "events_per_sec", "delivered", "peak_history_records",
        "piggyback_bytes_total", "piggyback_bytes_per_message",
        "tokens_broadcast", "rollbacks", "restarts", "trace_signature",
        "overhead",
    ):
        assert key in data, key
    assert data["overhead"]["history_within_bound"] is True


def test_run_bench_repeats_are_deterministic():
    a = run_bench("quickstart", repeats=1)
    b = run_bench("quickstart", repeats=1)
    assert a.trace_signature == b.trace_signature
    assert a.piggyback_bytes_total == b.piggyback_bytes_total
    assert a.peak_history_records == b.peak_history_records


# ---------------------------------------------------------------------------
# Parallel repeats and the multi-scenario matrix
# ---------------------------------------------------------------------------
def test_parallel_repeats_match_serial():
    from repro.obs import run_bench

    serial = run_bench("quickstart", repeats=2)
    parallel = run_bench("quickstart", repeats=2, jobs=2)
    assert serial.trace_signature == parallel.trace_signature
    assert serial.events_fired == parallel.events_fired
    assert serial.peak_history_records == parallel.peak_history_records
    assert serial.overhead == parallel.overhead


def test_bench_matrix_merges_scenarios(tmp_path):
    from repro.obs import run_bench_matrix

    matrix = run_bench_matrix(
        ["quickstart", "failure-free"], repeats=1, jobs=2
    )
    assert [b.scenario for b in matrix.results] == [
        "quickstart", "failure-free"
    ]
    path = write_payload(matrix.to_dict(), str(tmp_path / "matrix.json"))
    data = json.loads(open(path).read())
    assert data["format"] == "repro-bench-matrix-v1"
    assert set(data["scenarios"]) == {"quickstart", "failure-free"}
    for entry in data["scenarios"].values():
        # Each cell stays BENCH_obs.json-compatible.
        assert entry["format"] == "repro-bench-v1"
        assert entry["trace_signature"]
    assert "2 scenario(s)" in matrix.summary()


def test_bench_matrix_rejects_unknown_scenario():
    import pytest

    from repro.obs import run_bench_matrix

    with pytest.raises(KeyError):
        run_bench_matrix(["no-such-scenario"], repeats=1)
