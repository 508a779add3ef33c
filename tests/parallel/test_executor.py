"""Unit tests for JobSpec / SweepExecutor mechanics."""

import pickle

import pytest

from repro.cache import ResultCache
from repro.errors import ConfigError
from repro.parallel import JobSpec, PointResult, SweepExecutor, run_job
from repro.bench.workloads import parallel_size_sweep

SMALL = JobSpec(target="netapp", client="stock", file_bytes=1_000_000)


def test_jobspec_is_picklable():
    clone = pickle.loads(pickle.dumps(SMALL))
    assert clone == SMALL
    assert clone.fingerprint(version="x") == SMALL.fingerprint(version="x")


def test_run_job_rejects_an_unknown_spec_type():
    with pytest.raises(ConfigError, match="unknown job spec type"):
        run_job(object())


def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        SweepExecutor(jobs=0)


def test_run_job_produces_a_complete_point():
    point = run_job(SMALL)
    assert point.file_bytes == SMALL.file_bytes
    assert point.write_elapsed_ns > 0
    assert point.write_mbps > 0
    assert point.events_processed > 0
    # One latency sample per 8 KB write call.
    assert len(point.latencies_ns) == SMALL.file_bytes // SMALL.chunk_bytes + 1
    assert len(point.latency_starts_ns) == len(point.latencies_ns)


def test_point_result_payload_round_trip():
    point = run_job(SMALL)
    clone = PointResult.from_payload(point.to_payload())
    assert clone == point
    assert clone.write_mbps == point.write_mbps


def test_map_preserves_spec_order():
    specs = [
        JobSpec(target="netapp", client="stock", file_bytes=n * 1_000_000)
        for n in (3, 1, 2)
    ]
    results = SweepExecutor(jobs=1).map(specs)
    assert [r.file_bytes for r in results] == [3_000_000, 1_000_000, 2_000_000]


def test_cache_hits_and_misses_interleave(tmp_path):
    cache = ResultCache(str(tmp_path))
    a = SMALL
    b = JobSpec(target="netapp", client="stock", file_bytes=2_000_000)
    first = SweepExecutor(jobs=1, cache=cache).map([a])
    assert cache.stores == 1
    executor = SweepExecutor(jobs=1, cache=cache)
    results = executor.map([b, a, b])
    assert [r.file_bytes for r in results] == [2_000_000, 1_000_000, 2_000_000]
    assert results[1] == first[0]
    # a was served from disk; each b was computed (the second b hits the
    # entry stored moments earlier only on a future map() call).
    assert cache.hits >= 1

    warm = SweepExecutor(jobs=1, cache=cache).map([b, a, b])
    assert warm == results
    assert SweepExecutor(jobs=1, cache=cache).map([a]) == first


def test_parallel_size_sweep_matches_serial_points(tmp_path):
    sizes = [1_000_000, 2_000_000]
    pairs = parallel_size_sweep(
        "netapp", "stock", sizes, cache=ResultCache(str(tmp_path))
    )
    assert [size for size, _ in pairs] == sizes
    for size, point in pairs:
        direct = run_job(
            JobSpec(target="netapp", client="stock", file_bytes=size)
        )
        assert point == direct
