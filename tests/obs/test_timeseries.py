"""Windowed telemetry primitives: histograms, timelines, merging."""

import pytest

from repro.analysis.stats import percentile_of_sorted
from repro.errors import ConfigError
from repro.obs.timeseries import (
    DEFAULT_RETENTION,
    TIMELINE_SCHEMA,
    LogLinearHistogram,
    TimelineRegistry,
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
)

MS = 1_000_000


# -- log-linear histogram ----------------------------------------------------


def test_bucket_relative_error_bound():
    hist = LogLinearHistogram(subbucket_bits=5)
    for value in [1, 31, 32, 33, 100, 1023, 1024, 65_537, 10**9]:
        rep = hist.bucket_representative(hist.bucket_index(value))
        assert abs(rep - value) <= max(1, value * 2**-5)


def test_bucket_index_monotone_and_clamped():
    hist = LogLinearHistogram(subbucket_bits=2, max_value=1 << 10)
    indices = [hist.bucket_index(v) for v in range(0, 1 << 10)]
    assert indices == sorted(indices)
    assert hist.bucket_index(-5) == hist.bucket_index(0)
    assert hist.bucket_index(1 << 20) == hist.bucket_index(1 << 10)


def test_linear_range_is_exact():
    hist = LogLinearHistogram(subbucket_bits=5)
    for value in range(32):
        assert hist.bucket_representative(hist.bucket_index(value)) == value


def test_merge_equals_recording_together():
    one, two, both = (LogLinearHistogram() for _ in range(3))
    for v in [5, 70, 70, 4096]:
        one.record_log_linear(v)
        both.record_log_linear(v)
    for v in [9, 70, 123_456]:
        two.record_log_linear(v)
        both.record_log_linear(v)
    one.merge_log_linear(two)
    assert one.buckets == both.buckets
    assert one.count == both.count and one.total == both.total
    assert one.snapshot_log_linear() == both.snapshot_log_linear()


def test_merge_rejects_scheme_mismatch():
    with pytest.raises(ConfigError, match="different schemes"):
        LogLinearHistogram(subbucket_bits=5).merge_log_linear(
            LogLinearHistogram(subbucket_bits=6)
        )


def test_snapshot_round_trip():
    hist = LogLinearHistogram()
    for v in [1, 50, 50, 9000]:
        hist.record_log_linear(v)
    clone = LogLinearHistogram.from_snapshot(hist.snapshot_log_linear())
    assert clone.snapshot_log_linear() == hist.snapshot_log_linear()
    assert clone.percentile(99) == hist.percentile(99)


def test_count_le_and_mean():
    hist = LogLinearHistogram()
    hist.record_log_linear(10, n=3)
    hist.record_log_linear(1000)
    assert hist.count_le(10) == 3
    assert hist.count_le(0) == 0
    assert hist.count_le(10**9) == 4
    assert hist.mean() == pytest.approx((3 * 10 + 1000) / 4)
    assert LogLinearHistogram().mean() == 0.0


# -- shared percentile core (stats <-> histogram cross-tests) ----------------


def _reference_samples(hist):
    out = []
    for index in sorted(hist.buckets):
        out.extend([hist.bucket_representative(index)] * hist.buckets[index])
    return out


@pytest.mark.parametrize("method", ["nearest-rank", "linear"])
def test_histogram_percentiles_match_stats_core(method):
    hist = LogLinearHistogram()
    for v in [3, 17, 17, 90, 4_000, 250_000]:
        hist.record_log_linear(v)
    reference = _reference_samples(hist)
    pcts = [0.1, 25, 50, 75, 99, 99.9, 100]
    for p in pcts:
        assert hist.percentile(p, method=method) == percentile_of_sorted(
            reference, p, method=method
        )


def test_percentile_clamp_edges_match():
    # Linear interpolation exists only at p=0 / p=100 edges and single
    # samples; nearest-rank rejects p=0 in both implementations.
    hist = LogLinearHistogram()
    hist.record_log_linear(64)
    assert hist.percentile(100) == percentile_of_sorted(
        _reference_samples(hist), 100, method="nearest-rank"
    )
    assert hist.percentile(0, method="linear") == percentile_of_sorted(
        _reference_samples(hist), 0, method="linear"
    )
    with pytest.raises(ValueError):
        hist.percentile(0, method="nearest-rank")
    with pytest.raises(ValueError):
        percentile_of_sorted([64], 0, method="nearest-rank")
    with pytest.raises(ValueError):
        hist.percentile(101, method="linear")
    assert LogLinearHistogram().percentile(99) == 0


def test_percentiles_dict_shape():
    hist = LogLinearHistogram()
    for v in range(1, 101):
        hist.record_log_linear(v)
    pcts = hist.percentiles((50, 99, 99.9))
    assert set(pcts) == {50, 99, 99.9}
    assert pcts[50] <= pcts[99] <= pcts[99.9]


# -- windowed series ---------------------------------------------------------


def test_windowed_counter_records_and_evicts():
    counter = WindowedCounter("k", window_ns=10 * MS, retention=3)
    for w in range(5):
        counter.record_windowed_count(w * 10 * MS, n=w + 1)
    # Ring retention keeps the newest three windows.
    assert [wi for wi, _ in counter.items()] == [2, 3, 4]
    assert dict(counter.items())[4] == 5


def test_windowed_counter_absorb_adds():
    a = WindowedCounter("k", window_ns=10 * MS, retention=DEFAULT_RETENTION)
    b = WindowedCounter("k", window_ns=10 * MS, retention=DEFAULT_RETENTION)
    a.record_windowed_count(5 * MS, n=2)
    b.record_windowed_count(7 * MS, n=3)
    b.record_windowed_count(25 * MS, n=1)
    a.absorb_windowed_counter(b.snapshot_windowed()["windows"])
    assert a.items() == [(0, 5), (2, 1)]


def test_windowed_gauge_last_and_max():
    gauge = WindowedGauge("k", window_ns=10 * MS, retention=8)
    gauge.record_windowed_gauge(1 * MS, 7)
    gauge.record_windowed_gauge(2 * MS, 3)
    assert gauge.items() == [(0, (3, 7))]  # last=3, max=7
    other = WindowedGauge("k", window_ns=10 * MS, retention=8)
    other.record_windowed_gauge(3 * MS, 9)
    gauge.absorb_windowed_gauge(other.snapshot_windowed()["windows"])
    assert gauge.items() == [(0, (9, 9))]  # incoming last wins, maxima join


def test_windowed_histogram_merged_and_absorb():
    a = WindowedHistogram("k", window_ns=10 * MS, retention=64)
    b = WindowedHistogram("k", window_ns=10 * MS, retention=64)
    a.record_windowed_value(1 * MS, 100)
    a.record_windowed_value(11 * MS, 200)
    b.record_windowed_value(1 * MS, 300)
    a.absorb_windowed_histogram(
        (wi, h.snapshot_log_linear()) for wi, h in b.items()
    )
    assert [wi for wi, _ in a.items()] == [0, 1]
    merged = a.merged()
    assert merged.count == 3
    assert merged.count_le(150) == 1


def test_window_config_validation():
    with pytest.raises(ConfigError, match="window_ns"):
        WindowedCounter("k", window_ns=0, retention=1)
    with pytest.raises(ConfigError, match="retention"):
        WindowedCounter("k", window_ns=1, retention=0)


# -- registry ----------------------------------------------------------------


def _populated_registry():
    registry = TimelineRegistry(window_ns=10 * MS)
    registry.windowed_counter("net/x/drops").record_windowed_count(1 * MS)
    registry.windowed_gauge("rpc/slots").record_windowed_gauge(2 * MS, 4)
    registry.windowed_histogram("syscall/lat").record_windowed_value(
        3 * MS, 777
    )
    return registry


def test_registry_get_or_create_and_kind_guard():
    registry = _populated_registry()
    assert registry.windowed_counter("net/x/drops") is registry.get(
        "net/x/drops"
    )
    assert len(registry) == 3
    with pytest.raises(TypeError, match="already registered"):
        registry.windowed_gauge("net/x/drops")
    assert registry.get("missing") is None


def test_registry_snapshot_round_trip():
    registry = _populated_registry()
    snap = registry.snapshot()
    assert snap["schema"] == TIMELINE_SCHEMA
    clone = TimelineRegistry.from_snapshot(snap)
    assert clone.snapshot() == snap


def test_registry_merge_equals_serial_recording():
    # Two registries record disjoint clients; merging their snapshots
    # into a third must reproduce recording everything in one.
    serial = TimelineRegistry(window_ns=10 * MS)
    part_a = TimelineRegistry(window_ns=10 * MS)
    part_b = TimelineRegistry(window_ns=10 * MS)
    for registry in (serial, part_a):
        registry.windowed_histogram("client0/lat").record_windowed_value(
            5 * MS, 50
        )
        registry.windowed_counter("shared/bytes").record_windowed_count(
            5 * MS, n=10
        )
    for registry in (serial, part_b):
        registry.windowed_histogram("client1/lat").record_windowed_value(
            15 * MS, 60
        )
        registry.windowed_counter("shared/bytes").record_windowed_count(
            15 * MS, n=20
        )
    merged = TimelineRegistry(window_ns=10 * MS)
    merged.merge_snapshot(part_a.snapshot())
    merged.merge_snapshot(part_b.snapshot())
    assert merged.snapshot() == serial.snapshot()


def test_registry_merge_rejects_mismatches():
    registry = TimelineRegistry(window_ns=10 * MS)
    with pytest.raises(ConfigError, match="schema"):
        registry.merge_snapshot({"schema": "bogus@9"})
    other = TimelineRegistry(window_ns=20 * MS)
    with pytest.raises(ConfigError, match="window mismatch"):
        registry.merge_snapshot(other.snapshot())
    snap = TimelineRegistry(window_ns=10 * MS).snapshot()
    snap["series"]["x"] = {"kind": "bogus", "windows": []}
    with pytest.raises(ConfigError, match="unknown timeline kind"):
        registry.merge_snapshot(snap)
