"""Span recorder: nesting, self time and sampling."""

from perfbench.spans import Recorder, merge_totals, self_seconds_by_layer


class Box:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return "done"

    def inner(self):
        return sum(range(1000))


def test_nested_spans_split_self_time():
    recorder = Recorder(keep=3)
    recorder.wrap(Box, "outer", "box.outer", "outer-layer")
    recorder.wrap(Box, "inner", "box.inner", "inner-layer")
    recorder.wrap(Box, "inner", "box.inner", "inner-layer")  # idempotent
    try:
        assert Box().outer(4) == "done"
    finally:
        Box.outer = Box.outer.__wrapped__
        Box.inner = Box.inner.__wrapped__
    snap = recorder.snapshot()
    outer, inner = snap["totals"]["box.outer"], snap["totals"]["box.inner"]
    assert (outer["calls"], inner["calls"]) == (1, 4)
    assert outer["self_ns"] == outer["incl_ns"] - inner["incl_ns"]
    assert len(recorder.spans) == 3                    # capped at keep
    parent_ids = {span[4] for span in recorder.spans}
    assert parent_ids == {recorder.spans[0][4]} != {0}  # all under outer
    layers = self_seconds_by_layer(merge_totals([snap, snap]))
    assert layers["inner-layer"] == 2 * inner["self_ns"] / 1e9


class Counter:
    moved = 0

    @classmethod
    def fact(cls, k):
        if k == 3:
            cls.moved += 1
        return 1 if k <= 1 else k * cls.fact(k - 1)


def test_recursive_calls_count_once_and_sampling_follows_a_counter():
    recorder = Recorder()
    original = Counter.__dict__["fact"]
    recorder.wrap(Counter, "fact", "fact", "math")
    recorder.sample("fact", lambda: Counter.moved)
    try:
        assert Counter.fact(4) == 24 and Counter.fact(2) == 2
    finally:
        Counter.fact = original
    totals = recorder.snapshot()["totals"]["fact"]
    assert totals["calls"] == 2                  # outermost calls only
    assert totals["self_ns"] <= totals["incl_ns"]
    assert len(recorder.samples["fact"]) == 1    # only fact(4) moved it


class Clock:
    def __le__(self, other):
        return True

    def __lt__(self, other):
        return self <= other      # re-enters the leaf through __le__


def test_leaf_calls_count_once_and_charge_their_parent():
    recorder = Recorder()
    originals = {a: Clock.__dict__[a] for a in ("__le__", "__lt__")}
    for attr in originals:
        recorder.wrap_leaf(Clock, attr, "clock.compare", "protocol")
    recorder.wrap(Box, "outer", "box.outer", "outer-layer")
    box_outer, box_inner = Box.outer, Box.__dict__["inner"]
    try:
        Box.inner = lambda self: Clock() < Clock()
        assert box_outer(Box(), 3) == "done"
    finally:
        for attr, fn in originals.items():
            setattr(Clock, attr, fn)
        Box.outer = box_outer.__wrapped__
        Box.inner = box_inner
    snap = recorder.snapshot()["totals"]
    assert snap["clock.compare"]["calls"] == 3
    outer, leaf = snap["box.outer"], snap["clock.compare"]
    assert outer["self_ns"] == outer["incl_ns"] - leaf["incl_ns"]
    assert recorder.spans == [recorder.spans[0]]      # leaves keep no span
