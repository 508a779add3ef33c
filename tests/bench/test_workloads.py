"""Tests for the workload drivers."""

import pytest

from repro.bench import TestBed
from repro.bench.workloads import run_workload
from repro.units import MB, PAGE_SIZE, throughput


def make_bed(target="netapp", client="enhanced"):
    return TestBed(target=target, client=client)


def run_writers(bed, nwriters, bytes_each, chunk_bytes=8192):
    """N processes each streaming into its own fresh file, then closing
    it; returns each writer's per-call latencies.

    The §3.5 concern writ large: every writer contends with rpciod and
    the flush daemon for the kernel lock.
    """
    latencies = [[] for _ in range(nwriters)]

    def writer(index):
        file = yield from bed.open_file(f"writer{index}")
        remaining = bytes_each
        while remaining:
            chunk = min(chunk_bytes, remaining)
            call_start = bed.sim.now
            yield from bed.syscalls.write(file, chunk)
            latencies[index].append(bed.sim.now - call_start)
            remaining -= chunk
        yield from bed.syscalls.close(file)

    run_workload(bed, [(f"writer{i}", writer(i)) for i in range(nwriters)])
    return latencies


def test_writers_conserve_bytes():
    bed = make_bed()
    latencies = run_writers(bed, nwriters=3, bytes_each=1 * MB)
    assert sum(f.size for f in bed.server.files.values()) == 3 * MB
    assert len(latencies) == 3
    assert all(len(calls) == -(-MB // 8192) for calls in latencies)
    assert throughput(3 * MB, bed.sim.now) > 0


def test_more_writers_do_not_scale_linearly():
    """Shared client: N writers share the lock, CPUs and the wire."""

    def total_throughput(nwriters):
        bed = make_bed()
        run_writers(bed, nwriters, 2 * MB)
        return throughput(nwriters * 2 * MB, bed.sim.now)

    single, quad = total_throughput(1), total_throughput(4)
    assert quad < 4 * single
    assert quad > 0.5 * single


def test_transaction_log_commit_latency():
    def commits(target):
        params = {"transactions": 50}
        return make_bed(target).topology.run_workload("database-fsync", params).trace

    filer, linux = commits("netapp"), commits("linux")
    # Each fsync on the Linux server pays COMMIT + disk.
    assert linux.mean_ns() > filer.mean_ns()
    assert len(filer) == 50


def test_random_write_completes_and_is_deterministic():
    def one():
        bed = make_bed()
        params = {"file_bytes": 4 * MB, "writes": 100, "seed": 7}
        outcome = bed.topology.run_workload("random-write", params)
        return bed.sim.now, outcome.trace.latencies_ns

    a, b = one(), one()
    assert a == b
    assert a[0] > 0


def test_random_write_rewrites_wait_for_inflight_pages():
    bed = make_bed()
    params = {"file_bytes": 64 * PAGE_SIZE, "writes": 300, "seed": 3}
    bed.topology.run_workload("random-write", params)
    # A small extent guarantees overlapping rewrites of in-flight pages.
    assert bed.nfs.stats.page_waits + bed.nfs.stats.coalesced_updates > 0


def test_run_workload_surfaces_failures():
    bed = make_bed()

    def boom():
        yield bed.sim.timeout(10)
        raise RuntimeError("dead")

    with pytest.raises(RuntimeError):
        run_workload(bed, [("boom", boom())])
