"""Unit tests for SweepExecutor mechanics over one-client sweep points."""

import pickle

import pytest

from repro.cache import ResultCache
from repro.errors import ConfigError
from repro.parallel import SweepExecutor
from repro.topology import FleetJobSpec, FleetPointResult, run_fleet_job


def point(file_bytes):
    """One stock client writing ``file_bytes`` to the filer."""
    return FleetJobSpec.homogeneous(1, target="netapp", file_bytes=file_bytes)


def payloads(results):
    return [r.to_payload() for r in results]


SMALL = point(1_000_000)


def test_jobspec_is_picklable():
    clone = pickle.loads(pickle.dumps(SMALL))
    assert clone == SMALL
    assert clone.fingerprint(version="x") == SMALL.fingerprint(version="x")


def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        SweepExecutor(jobs=0)


def test_run_job_produces_a_complete_point():
    result = run_fleet_job(SMALL)
    (row,) = result.clients
    assert row["file_bytes"] == SMALL.file_bytes
    assert row["write_elapsed_ns"] > 0
    assert result.client_mbps()[0] > 0
    assert result.events_processed > 0
    # One latency sample per 8 KB write call, carried as a digest.
    assert row["calls"] == SMALL.file_bytes // SMALL.chunk_bytes + 1
    assert len(row["trace_sha"]) == 64


def test_point_result_payload_round_trip():
    result = run_fleet_job(SMALL)
    clone = FleetPointResult.from_payload(result.to_payload())
    assert clone.to_payload() == result.to_payload()
    assert clone.run_fingerprint() == result.run_fingerprint()
    assert clone.client_mbps() == result.client_mbps()


def test_map_preserves_spec_order():
    specs = [point(n * 1_000_000) for n in (3, 1, 2)]
    results = SweepExecutor(jobs=1).map(specs)
    assert [r.total_bytes for r in results] == [3_000_000, 1_000_000, 2_000_000]


def test_cache_hits_and_misses_interleave(tmp_path):
    cache = ResultCache(str(tmp_path))
    a = SMALL
    b = point(2_000_000)
    first = SweepExecutor(jobs=1, cache=cache).map([a])
    assert cache.stores == 1
    executor = SweepExecutor(jobs=1, cache=cache)
    results = executor.map([b, a, b])
    assert [r.total_bytes for r in results] == [2_000_000, 1_000_000, 2_000_000]
    assert results[1].to_payload() == first[0].to_payload()
    # a was served from disk; each b was computed (the second b hits the
    # entry stored moments earlier only on a future map() call).
    assert cache.hits >= 1

    warm = SweepExecutor(jobs=1, cache=cache).map([b, a, b])
    assert payloads(warm) == payloads(results)
    assert payloads(SweepExecutor(jobs=1, cache=cache).map([a])) == payloads(first)
