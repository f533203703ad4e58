"""Percentiles and op accounting of the benchmark."""

import pytest

from perfbench import stats


def test_nearest_rank_returns_a_sample():
    assert stats.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    # Two samples: p50 is the lower one, not an interpolation.
    assert stats.nearest_rank([10.0, 20.0], 0.5) == 10.0
    assert stats.nearest_rank([7.0], 0.99) == 7.0
    assert stats.nearest_rank(list(range(1, 101)), 0.99) == 99
    assert stats.nearest_rank(list(range(1, 101)), 1.0) == 100


def test_nearest_rank_rejects_empty_and_bad_quantiles():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0.0)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.reportable(1000, 0.99)
    assert not stats.reportable(999, 0.99)
    assert stats.reportable(100, 0.90)
    assert not stats.reportable(99, 0.90)
    with pytest.raises(ValueError):
        stats.tail(list(range(999)), 0.99)
    assert stats.tail(list(range(1, 1001)), 0.99) == 990


def test_relative_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q3 = 9.5, 10.5   # statistics.quantiles(values, n=4), exclusive
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / 10.0)


def _op(index, key="k0", primary=1, version=1, monotonic=True):
    return {"index": index, "key": key, "primary": primary,
            "version": version, "monotonic": monotonic}


def test_error_accounting_counts_unacked_and_gated_ops():
    ops = [
        _op(0),
        _op(1, version=None),                 # never acked
        _op(2, monotonic=False),              # session saw a regression
        _op(3, key="bad"),                    # key failed the audit
        _op(4, key="bad", primary=2),
        _op(5, primary=2),                    # replica failed its oracle
        _op(6, key="k9"),
    ]
    failed = stats.failed_ops(ops, bad_keys={"bad"}, bad_primaries={2})
    assert failed == {1, 2, 3, 4, 5}
    assert len(failed) / len(ops) == pytest.approx(5 / 7)
    assert stats.failed_ops(ops[:1]) == set()
