"""TestBed configuration plumbing."""

import pytest

from repro.bench import TestBed
from repro.config import (
    ClientHwConfig,
    FilerConfig,
    LinuxServerConfig,
    LocalFsConfig,
    MountConfig,
    NetConfig,
    NfsClientConfig,
)
from repro.errors import SimulationError
from repro.topology import ServerSpec
from repro.units import MB, mbps


def test_targets_build_expected_components():
    for target, has_nfs in (("netapp", True), ("linux", True),
                            ("linux-100", True), ("local", False)):
        bed = TestBed(target=target, client="stock")
        assert (bed.nfs is not None) == has_nfs
        assert (bed.ext2 is not None) == (not has_nfs)


def test_variant_string_resolves():
    bed = TestBed(target="netapp", client="enhanced")
    assert bed.client_config.release_bkl_for_send
    assert bed.client_config.hashtable_index


def test_explicit_config_object():
    cfg = NfsClientConfig(rpc_slots=4)
    bed = TestBed(target="netapp", client=cfg)
    assert bed.nfs.xprt.slots == 4


def test_custom_hw_applies():
    hw = ClientHwConfig(ncpus=1)
    bed = TestBed(target="netapp", client="stock", hw=hw)
    assert bed.client_host.cpus.ncpus == 1


def test_custom_mount_applies():
    mount = MountConfig(wsize=16384)
    bed = TestBed(target="netapp", client="stock", mount=mount)
    assert bed.nfs.pages_per_rpc == 4


def test_custom_server_configs_apply():
    bed = TestBed(
        client="stock",
        server=ServerSpec("netapp", FilerConfig(ingest_bytes_per_sec=mbps(5))),
    )
    assert bed.server.ingest_bytes_per_sec == mbps(5)
    bed = TestBed(
        client="stock",
        server=ServerSpec("linux", LinuxServerConfig(disk_bytes_per_sec=mbps(99))),
    )
    assert bed.server.disk.transfer_bytes_per_sec == mbps(99)
    bed = TestBed(
        client="stock",
        server=ServerSpec("local", LocalFsConfig(disk_bytes_per_sec=mbps(7))),
    )
    assert bed.ext2.disk.transfer_bytes_per_sec == mbps(7)


def test_larger_wsize_fewer_rpcs():
    results = {}
    lazy = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)
    for wsize in (8192, 32768):
        bed = TestBed(target="netapp", client=lazy, mount=MountConfig(wsize=wsize))
        bed.run_sequential_write(1 * MB, chunk_bytes=8192)
        results[wsize] = bed.nfs.stats.writes_sent
    assert results[32768] < results[8192]
    assert results[32768] == -(-1 * MB // 32768)


def test_closed_file_rejected():
    bed = TestBed(target="netapp", client="enhanced")

    def body():
        file = yield from bed.nfs.open_new("f")
        yield from bed.syscalls.write(file, 8192)
        yield from bed.syscalls.close(file)
        yield from bed.syscalls.write(file, 8192)

    task = bed.sim.spawn(body(), daemon=True)
    bed.sim.run_until(lambda: task.done)
    assert isinstance(task.error, SimulationError)
    assert "EBADF" in str(task.error)
