"""Tests for the local ext2 + bdflush model."""

from repro.bench import TestBed
from repro.config import ClientHwConfig, LocalFsConfig, scaled
from repro.topology import ServerSpec
from repro.units import MB, PAGE_SIZE, seconds


def run_local(nbytes, hw=None, do_fsync=True, config=None):
    bed = TestBed(client="stock", hw=hw, server=ServerSpec("local", config))
    result = bed.run_sequential_write(nbytes, do_fsync=do_fsync)
    return bed, result


def test_memory_speed_writes_within_cache():
    bed, result = run_local(10 * MB, do_fsync=False)
    # 10 MB untouched by the 15 MB/s disk: far faster than disk speed.
    assert result.write_mbps > 100


def test_close_leaves_dirty_data_cached():
    """§2.3: ext2 does not flush on close."""
    bed, result = run_local(10 * MB, do_fsync=False)
    assert bed.pagecache.dirty_bytes > 0
    # write and close throughput nearly identical - close did no I/O.
    assert result.close_mbps > 0.9 * result.write_mbps


def test_fsync_forces_disk_writeback():
    bed, result = run_local(10 * MB, do_fsync=True)
    file = next(iter(bed.ext2._files.values()))
    assert not file.dirty_pages
    assert bed.ext2.disk.bytes_written >= 10 * MB
    # Flush throughput collapses toward disk speed.
    assert result.flush_mbps < 20
    assert result.write_mbps > 5 * result.flush_mbps


def test_writer_throttles_once_cache_full():
    hw = scaled(ClientHwConfig(), 16)  # 16 MB client
    bed, result = run_local(30 * MB, hw=hw, do_fsync=False)
    assert bed.pagecache.throttled_count > 0
    assert bed.pagecache.peak_dirty <= hw.dirty_limit_bytes
    # Cumulative write throughput degrades toward disk speed.
    assert result.write_mbps < 60


def test_bdflush_starts_at_background_threshold():
    hw = scaled(ClientHwConfig(), 8)  # 32 MB client, background ~8 MB
    bed, result = run_local(12 * MB, hw=hw, do_fsync=False)
    # The benchmark ends at memory speed; give bdflush simulated time to
    # drain the above-background dirty data it was kicked about.
    bed.sim.run_for(seconds(2))
    assert bed.ext2.pages_written_back > 0
    assert bed.pagecache.dirty_bytes < 12 * MB


def test_bdflush_idle_below_threshold():
    bed, result = run_local(1 * MB, do_fsync=False)
    assert bed.ext2.pages_written_back == 0


def test_overwrite_same_pages_does_not_recharge():
    bed = TestBed(target="local", client="stock")
    sim = bed.sim

    def body():
        file = yield from bed.ext2.open_new("f")
        yield from bed.syscalls.write(file, 8192)
        first = bed.pagecache.dirty_bytes
        file.pos = 0  # rewind and overwrite
        yield from bed.syscalls.write(file, 8192)
        return first, bed.pagecache.dirty_bytes

    task = sim.spawn(body())
    sim.run_until(lambda: task.done)
    first, second = task.result
    assert first == second == 2 * PAGE_SIZE


def test_disk_rate_config_respected():
    fast = LocalFsConfig(disk_bytes_per_sec=100 * MB)
    bed, result = run_local(10 * MB, do_fsync=True, config=fast)
    slow_bed, slow_result = run_local(10 * MB, do_fsync=True)
    assert result.flush_elapsed_ns < slow_result.flush_elapsed_ns
