"""The bench core shared by every ``python -m repro bench <suite>``.

Each suite (``obs exec live wire load scale service``) builds its own
payload; this module owns what they have in common:

- :func:`write_payload` -- the one writer every ``BENCH_*.json`` goes
  through (sorted keys, two-space indent, atomic replace);
- :class:`Trend` with :func:`append_trend_row` / :func:`check_trend` --
  the cross-run trend file (one JSON row per run, ``benchmarks/*.jsonl``)
  and the collapse gate over it.  A suite supplies its trend row, the
  metric read from a row, which direction is better and the tolerance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable


def write_payload(payload: dict[str, Any], path: str) -> str:
    """Write ``payload`` as JSON to ``path`` atomically; returns the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


@dataclass(frozen=True)
class Trend:
    """How one suite records and gates its cross-run trend.

    ``row`` turns a payload into the fields of one trend row; ``metric``
    reads the gated values from a row as ``{label: value}`` (``None``
    values are skipped).  With ``better="higher"`` a value fails below
    ``tolerance`` times the best recorded one; with ``"lower"`` it fails
    above ``tolerance`` times the best (smallest) recorded one.
    """

    row: Callable[[dict[str, Any]], dict[str, Any]]
    metric: Callable[[dict[str, Any]], dict[str, float | None]]
    better: str
    tolerance: float


def append_trend_row(
    path: str, payload: dict[str, Any], trend: Trend
) -> dict[str, Any]:
    """Append this run's trend row (stamped with ``ts``) to ``path``."""
    row = {"ts": round(time.time(), 3), **trend.row(payload)}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def check_trend(
    path: str, payload: dict[str, Any], trend: Trend
) -> list[str]:
    """Compare this run against the best rows recorded in ``path``.

    Machines differ, so tolerances are loose: the gate catches
    collapses, not noise.  A missing file has no history and passes.
    """
    if not os.path.exists(path):
        return []
    higher = trend.better == "higher"
    pick = max if higher else min
    best: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            for label, value in trend.metric(json.loads(line)).items():
                if value is not None:
                    best[label] = pick(best.get(label, value), value)
    problems = []
    for label, value in trend.metric(trend.row(payload)).items():
        prior = best.get(label)
        if prior is None or value is None:
            continue
        bound = trend.tolerance * prior
        if (value < bound) if higher else (value > bound):
            problems.append(
                f"{label} {value:.1f} regressed "
                f"{'below' if higher else 'beyond'} {trend.tolerance:g}x "
                f"the best recorded {prior:.1f}"
            )
    return problems
