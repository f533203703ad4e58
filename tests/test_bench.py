"""The shared bench core: one payload writer, one trend gate.

The load and scale suites each used to carry their own
``append_trend_row``/``check_trend`` pair.  The references below are
those two gates, kept verbatim as oracles: the single
:func:`repro.bench.check_trend`, driven by each suite's
:class:`~repro.bench.Trend`, must reach the same verdict on the committed
``BENCH_*.json`` files against the committed trend rows, and on
synthetic payloads around the tolerance.
"""

import copy
import json
import os
from pathlib import Path

import pytest

from repro.bench import append_trend_row, check_trend, write_payload
from repro.live import load, scalebench

ROOT = Path(__file__).resolve().parents[1]


def _reference_load_check_trend(path, payload, *, tolerance=0.5):
    if not os.path.exists(path):
        return []
    best_prior = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            best_prior = max(
                best_prior, row.get("peak_deliveries_per_second") or 0.0
            )
    current = payload.get("peak_deliveries_per_second") or 0.0
    if best_prior > 0 and current < tolerance * best_prior:
        return ["regressed"]
    return []


def _reference_scale_check_trend(path, payload, *, tolerance=1.5):
    if not os.path.exists(path):
        return []
    best_prior = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            for n, value in (row.get("delta_bytes_per_msg") or {}).items():
                if value is None:
                    continue
                if n not in best_prior or value < best_prior[n]:
                    best_prior[n] = value
    problems = []
    current = payload.get("growth", {}).get("delta_bytes_per_msg", {})
    for n, value in current.items():
        prior = best_prior.get(n)
        if prior is None or value is None:
            continue
        if value > tolerance * prior:
            problems.append(f"n={n}")
    return problems


def _committed(name):
    with open(ROOT / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_variant(factor):
    payload = copy.deepcopy(_committed("BENCH_load.json"))
    payload["peak_deliveries_per_second"] *= factor
    return payload


def _scale_variant(factor):
    payload = copy.deepcopy(_committed("BENCH_scale.json"))
    per_n = payload["growth"]["delta_bytes_per_msg"]
    for n in per_n:
        per_n[n] *= factor
    return payload


LOAD_TREND = str(ROOT / "benchmarks" / "load_trend.jsonl")
SCALE_TREND = str(ROOT / "benchmarks" / "scale_trend.jsonl")


@pytest.mark.parametrize("factor", [1.2, 1.0, 0.8, 0.75, 0.7, 0.5, 0.0])
def test_load_trend_matches_the_reference_gate(factor):
    payload = _load_variant(factor)
    expected = _reference_load_check_trend(LOAD_TREND, payload)
    got = check_trend(LOAD_TREND, payload, load.TREND)
    assert bool(got) == bool(expected), (factor, got, expected)


@pytest.mark.parametrize("factor", [0.5, 1.0, 1.2, 1.4, 1.6, 2.0, 10.0])
def test_scale_trend_matches_the_reference_gate(factor):
    payload = _scale_variant(factor)
    expected = _reference_scale_check_trend(SCALE_TREND, payload)
    got = check_trend(SCALE_TREND, payload, scalebench.TREND)
    assert len(got) == len(expected), (factor, got, expected)


def test_committed_payloads_pass_their_committed_trends():
    assert check_trend(
        LOAD_TREND, _committed("BENCH_load.json"), load.TREND
    ) == []
    assert check_trend(
        SCALE_TREND, _committed("BENCH_scale.json"), scalebench.TREND
    ) == []


def test_collapsed_payloads_fail():
    collapsed_load = _load_variant(1.0)
    collapsed_load["peak_deliveries_per_second"] = None
    assert check_trend(LOAD_TREND, collapsed_load, load.TREND)
    assert _reference_load_check_trend(LOAD_TREND, collapsed_load)

    collapsed_scale = _scale_variant(1.0)
    collapsed_scale["growth"]["delta_bytes_per_msg"]["64"] = 1000.0
    problems = check_trend(SCALE_TREND, collapsed_scale, scalebench.TREND)
    assert problems and "n=64" in problems[0]
    assert _reference_scale_check_trend(SCALE_TREND, collapsed_scale)


def test_trend_rows_keep_the_committed_schema(tmp_path):
    path = str(tmp_path / "trend.jsonl")
    load_row = append_trend_row(path, _committed("BENCH_load.json"),
                                load.TREND)
    scale_row = append_trend_row(path, _committed("BENCH_scale.json"),
                                 scalebench.TREND)
    with open(LOAD_TREND, "r", encoding="utf-8") as fh:
        assert set(load_row) == set(json.loads(fh.readline()))
    with open(SCALE_TREND, "r", encoding="utf-8") as fh:
        assert set(scale_row) == set(json.loads(fh.readline()))


def test_missing_trend_file_has_no_history(tmp_path):
    assert check_trend(
        str(tmp_path / "none.jsonl"), _load_variant(0.0), load.TREND
    ) == []


def test_write_payload_is_sorted_and_creates_parents(tmp_path):
    path = tmp_path / "sub" / "BENCH_x.json"
    assert write_payload({"b": 1, "a": [1, 2]}, str(path)) == str(path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [1, 2], "b": 1}
    assert not (tmp_path / "sub" / "BENCH_x.json.tmp").exists()
