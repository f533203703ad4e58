"""Small statistics the benchmark reports: percentiles and error rates."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``values``.

    The value at 1-based rank ``ceil(q * n)`` of the sorted samples, so
    no interpolation: every reported percentile is a measured sample.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q * count - 1e-9))


def reportable(count: int, q: float) -> bool:
    """Whether the ``q`` percentile of ``count`` samples may be reported."""
    return count > 0 and samples_beyond(count, q) >= MIN_BEYOND


def tail(values: Sequence[float], q: float) -> float:
    """The ``q`` percentile, refusing one with too few samples beyond it."""
    if not reportable(len(values), q):
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return nearest_rank(values, q)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (the steadiness figure)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def failed_ops(
    ops: Iterable[dict],
    *,
    bad_keys: set[str] = frozenset(),
    bad_primaries: set[int] = frozenset(),
) -> set[int]:
    """Indices of ops that count as failed (``op_error_rate`` is their
    number over the ops attempted).

    ``ops`` are op records with ``index``, ``key``, ``primary``,
    ``version`` (``None`` when unacked) and ``monotonic`` (False when the
    op saw its session's version floor go backwards).  A key that failed
    the read-back audit fails every op on it; a replica whose recovery
    trace failed its oracle fails every op it is primary for.
    """
    failed = set()
    for op in ops:
        if (
            op["version"] is None
            or not op.get("monotonic", True)
            or op["key"] in bad_keys
            or op["primary"] in bad_primaries
        ):
            failed.add(op["index"])
    return failed
