"""BENCHMARK.json and the manifest describe the same metrics."""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _load(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_manifest():
    bench = _load("BENCHMARK.json")
    manifest = _load("perfbench", "manifest.json")
    assert [w["name"] for w in bench["workloads"]] == \
        manifest["benchmark_workloads"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: spec["unit"] for name, spec in manifest["end_to_end"].items()}
    shown = set(manifest["benchmark_workloads"])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: spec["unit"] for name, spec in manifest["per_layer"].items()
        if shown & set(spec["workloads"])}


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in _load("BENCHMARK.json")[
        "end_to_end"]}
    assert all(b <= 0.25 for b in bounds.values())
    assert all(bounds["setup_s"] > b for n, b in bounds.items()
               if n != "setup_s")
