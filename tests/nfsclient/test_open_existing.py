"""Tests for LOOKUP, close-to-open revalidation, and write gathering."""

import pytest

from repro.bench import TestBed
from repro.config import LinuxServerConfig, NfsClientConfig
from repro.errors import ProtocolError
from repro.topology import ServerSpec
from repro.units import MB

LAZY = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)


def drive(bed, gen):
    task = bed.sim.spawn(gen, daemon=True)
    bed.sim.run_until(lambda: task.done)
    if task.error:
        raise task.error
    return task.result


def test_open_existing_finds_file_and_size():
    bed = TestBed(target="netapp", client=LAZY)

    def body():
        file = yield from bed.nfs.open_new("data")
        yield from bed.syscalls.write(file, 64 * 1024)
        yield from bed.syscalls.close(file)
        reopened = yield from bed.nfs.open_existing("data")
        return reopened.size, reopened.fileid, file.fileid

    size, fid_new, fid_old = drive(bed, body())
    assert size == 64 * 1024
    assert fid_new == fid_old


def test_lookup_missing_file_fails():
    bed = TestBed(target="netapp", client=LAZY)

    def body():
        yield from bed.nfs.open_existing("ghost")

    with pytest.raises(ProtocolError):
        drive(bed, body())


def test_reopen_after_remote_change_invalidates_cache():
    bed = TestBed(target="netapp", client=LAZY)

    def body():
        file = yield from bed.nfs.open_new("data")
        yield from bed.syscalls.write(file, 32 * 1024)
        yield from bed.syscalls.close(file)
        file2 = yield from bed.nfs.open_existing("data")
        cached_before = len(file2.cached_pages)
        # Simulate another client changing the file on the server.
        server_file = next(iter(bed.server.files.values()))
        server_file.change_id += 1
        file3 = yield from bed.nfs.open_existing("data")
        return cached_before, len(file3.cached_pages)

    before, after = drive(bed, body())
    assert before > 0  # post-op attrs kept our own writes cached
    assert after == 0  # the remote change flushed them


def test_reopen_unchanged_keeps_cache():
    bed = TestBed(target="netapp", client=LAZY)

    def body():
        file = yield from bed.nfs.open_new("data")
        yield from bed.syscalls.write(file, 32 * 1024)
        yield from bed.syscalls.close(file)
        file2 = yield from bed.nfs.open_existing("data")
        reads_before = bed.nfs.stats.reads_sent
        while (yield from bed.syscalls.read(file2, 8192)):
            pass
        return bed.nfs.stats.reads_sent - reads_before

    extra_reads = drive(bed, body())
    assert extra_reads == 0  # cache survived close + unchanged re-open


def test_write_gathering_amortises_sync_seeks():
    """Concurrent sync writers to ONE file: gathering shares the seek."""

    def sync_elapsed(gathering):
        cfg = LinuxServerConfig(write_gathering=gathering)
        bed = TestBed(client=LAZY, server=ServerSpec("linux", cfg))

        def body():
            from repro.nfsclient import NfsFile

            shared = yield from bed.nfs.open_new("journal", sync=True)
            start = bed.sim.now

            def writer(index):
                # Each process has its own descriptor (own position) on
                # the one inode.
                file = NfsFile(bed.nfs, shared.inode, sync=True)
                file.pos = index * 8 * 4096
                file.size = shared.size
                for _ in range(8):
                    yield from bed.syscalls.write(file, 4096)

            tasks = [bed.sim.spawn(writer(i), daemon=True) for i in range(4)]
            while not all(t.done for t in tasks):
                yield bed.sim.timeout(1_000_000)
            return bed.sim.now - start

        elapsed = drive(bed, body())
        return elapsed, bed.server.disk.ops

    plain, plain_ops = sync_elapsed(False)
    gathered, gathered_ops = sync_elapsed(True)
    assert gathered_ops < plain_ops  # fewer disk passes
    assert gathered < plain
