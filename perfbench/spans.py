"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files: :func:`Recorder.wrap`
replaces a function or method of the program with a wrapper that times
each call.  Every call updates per-name aggregates (calls, inclusive
time, self time); the first ``keep`` calls are also kept as whole spans
``(id, name, start_ns, end_ns, parent_id)``.  Nothing is written until
:meth:`Recorder.dump`, which the caller runs once at exit.

Only synchronous callables are wrapped, so spans nest properly even on
an asyncio loop: a wrapped call never yields to another task.  Hot leaf
calls (:meth:`Recorder.wrap_leaf`) keep aggregates only.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter_ns
from typing import Any, Callable


class Recorder:
    """Per-process span store: aggregates for every call, spans for some."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.layer_of: dict[str, str] = {}
        # name -> [outermost calls, inclusive_ns of those, self_ns]
        self.totals: dict[str, list[int]] = {}
        # name -> durations (ns) of sampled outermost calls
        self.samples: dict[str, list[int]] = {}
        self._sampled: dict[str, Callable[[], int] | None] = {}
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._leaf_active: dict[str, list[bool]] = {}
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = {}
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        depth = self._local.depth
        self._next_id += 1
        parent = stack[-1][3] if stack else 0
        # [name, start_ns, child_ns, span_id]
        frame = [name, perf_counter_ns(), 0, self._next_id]
        stack.append(frame)
        outer = depth.get(name, 0) == 0
        depth[name] = depth.get(name, 0) + 1
        sampled = outer and name in self._sampled
        counter = self._sampled[name] if sampled else None
        before = counter() if counter is not None else 0
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            depth[name] -= 1
            elapsed = end - frame[1]
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0, 0]
            if outer:
                total[0] += 1
                total[1] += elapsed
                if sampled and (counter is None or counter() != before):
                    self.samples.setdefault(name, []).append(elapsed)
            total[2] += elapsed - frame[2]
            if stack:
                stack[-1][2] += elapsed
            if len(self.spans) < self.keep:
                self.spans.append((frame[3], name, frame[1], end, parent))

    def sample(
        self, name: str, counter: Callable[[], int] | None = None
    ) -> None:
        """Keep the duration of each outermost call of ``name``.

        With ``counter``, only calls during which ``counter()`` moved are
        kept (a storage write call that actually reached the disk).
        """
        self._sampled[name] = counter

    def wrap(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as span ``name`` of ``layer``."""
        fn = getattr(owner, attr)
        if getattr(fn, "__perfbench__", None) == name:
            return   # already wrapped (a second install is a no-op)
        self.layer_of[name] = layer
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs)

        wrapper.__perfbench__ = name
        setattr(owner, attr, wrapper)

    def wrap_leaf(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Like :meth:`wrap` for hot calls that wrap nothing themselves:
        aggregates only (no kept span, no nesting bookkeeping), so the
        millions of clock comparisons an oracle makes stay cheap to time.
        A call reached from inside another call of ``name`` is not timed
        again."""
        fn = getattr(owner, attr)
        if getattr(fn, "__perfbench__", None) == name:
            return
        self.layer_of[name] = layer
        total = self.totals.setdefault(name, [0, 0, 0])
        active = self._leaf_active.setdefault(name, [False])
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                active[0] = False
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed
                stack = stack_of()
                if stack:
                    stack[-1][2] += elapsed

        wrapper.__perfbench__ = name
        setattr(owner, attr, wrapper)

    def snapshot(self) -> dict[str, Any]:
        return {
            "totals": {
                name: {"calls": c, "incl_ns": i, "self_ns": s,
                       "layer": self.layer_of.get(name, "other")}
                for name, (c, i, s) in self.totals.items()
            },
            "samples": self.samples,
            "spans_kept": len(self.spans),
            "spans_seen": self._next_id,
        }

    def dump(self, path: str, **extra: Any) -> None:
        """Write aggregates, kept spans and ``extra`` as one JSON file."""
        payload = self.snapshot()
        payload.update(extra)
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def merge_totals(snapshots: list[dict[str, Any]]) -> dict[str, dict]:
    """Sum the per-name aggregates of several processes' snapshots."""
    merged: dict[str, dict] = {}
    for snap in snapshots:
        for name, tot in snap["totals"].items():
            into = merged.setdefault(
                name, {"calls": 0, "incl_ns": 0, "self_ns": 0,
                       "layer": tot["layer"]}
            )
            for field in ("calls", "incl_ns", "self_ns"):
                into[field] += tot[field]
    return merged


def self_seconds_by_layer(totals: dict[str, dict]) -> dict[str, float]:
    """A layer's self time: its spans' durations minus their children's."""
    layers: dict[str, float] = {}
    for tot in totals.values():
        layer = tot["layer"]
        layers[layer] = layers.get(layer, 0.0) + tot["self_ns"] / 1e9
    return layers
