"""Filer behaviour under sustained overload: drain-bound throughput."""

from repro.bench import TestBed
from repro.config import FilerConfig, NfsClientConfig
from repro.topology import ServerSpec
from repro.units import MB, mbps, ms


LAZY = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)


def test_back_to_back_checkpoints_throttle_to_drain_rate():
    """When the RAID drains slower than ingest, NVRAM halves fill faster
    than they empty and sustained throughput becomes drain-bound."""
    slow_drain = FilerConfig(
        nvram_bytes=4 * MB,
        raid_drain_bytes_per_sec=mbps(10),  # slower than 38 MBps ingest
        checkpoint_pause_ns=ms(1),
    )
    bed = TestBed(client=LAZY, server=ServerSpec("netapp", slow_drain))
    result = bed.run_sequential_write(20 * MB)
    # Flush-inclusive throughput collapses to ~ the drain rate.
    assert result.flush_mbps < 14
    assert bed.server.checkpoints >= 8


def test_fast_drain_keeps_filer_ingest_bound():
    fast_drain = FilerConfig(nvram_bytes=4 * MB, checkpoint_pause_ns=ms(1))
    bed = TestBed(client=LAZY, server=ServerSpec("netapp", fast_drain))
    result = bed.run_sequential_write(20 * MB)
    assert result.flush_mbps > 25  # near the 38 MBps ingest


def test_checkpoint_windows_are_recorded_in_order():
    config = FilerConfig(nvram_bytes=4 * MB, checkpoint_pause_ns=ms(2))
    bed = TestBed(client=LAZY, server=ServerSpec("netapp", config))
    bed.run_sequential_write(10 * MB)
    windows = bed.server.checkpoint_windows
    assert windows
    starts = [w[0] for w in windows]
    assert starts == sorted(starts)
    for begin, end in windows:
        assert end - begin == ms(2)
