"""TestBed is a shim over a 1-client Topology — same surface, same bits."""

import pytest

from repro.bench import TestBed
from repro.config import FilerConfig, NetConfig
from repro.errors import ConfigError
from repro.topology import ServerSpec, Topology
from repro.units import KIB


def _result_tuple(result):
    return (
        result.write_elapsed_ns,
        result.flush_elapsed_ns,
        result.close_elapsed_ns,
        tuple(result.trace.latencies_ns),
    )


def test_testbed_exposes_historical_surface():
    bed = TestBed(target="netapp")
    for attr in (
        "target",
        "hw",
        "net",
        "mount",
        "client_config",
        "sim",
        "switch",
        "client_host",
        "pagecache",
        "server",
        "nfs",
        "ext2",
        "syscalls",
        "profiler",
        "sanitizer",
        "obs",
    ):
        assert hasattr(bed, attr), attr
    assert bed.target == "netapp"
    assert bed.nfs is not None and bed.ext2 is None
    assert bed.client_host.name == "client"


def test_testbed_accepts_server_spec():
    filer = FilerConfig(nvram_bytes=2 * 1024 * 1024)
    bed = TestBed(server=ServerSpec("netapp", filer))
    assert bed.server.config is filer
    assert bed.target == "netapp"


def test_target_must_agree_with_server_kind():
    with pytest.raises(ConfigError, match="contradicts"):
        TestBed(target="linux", server=ServerSpec("netapp"))
    # Matching target is fine.
    assert TestBed(target="linux", server=ServerSpec("linux")).target == "linux"


def test_server_must_be_a_server_spec():
    with pytest.raises(ConfigError, match="must be a ServerSpec"):
        TestBed(server=FilerConfig())


def test_testbed_bit_identical_to_one_client_topology():
    params = {"file_bytes": 256 * KIB, "file_name": "testfile"}
    for target in ("netapp", "linux", "local"):
        bed = TestBed(target=target)
        via_shim = _result_tuple(bed.run_sequential_write(256 * KIB))
        topo = Topology(clients=1, servers=(ServerSpec(target),))
        direct = _result_tuple(topo.run_workload("sequential-write", params))
        assert via_shim == direct, target


#: The sequential writer's exact timings, pinned: (write, flush, close
#: elapsed ns, first 16 hex chars of the latency-trace digest).  These
#: are the bit-for-bit compatibility contract for the
#: ``run_sequential_write`` surface across the workload-registry
#: redesign — a change here is a behaviour change, not a refactor.
PINNED_SEQUENTIAL_WRITE = {
    "netapp": (2440562, 7413023, 7419023, "a009e2a97c2fef4d"),
    "linux": (2190443, 21520083, 21526083, "37fe3c5af29141f8"),
}


def _pin_tuple(result):
    import hashlib

    digest = hashlib.sha256(
        repr(tuple(result.trace.latencies_ns)).encode()
    ).hexdigest()[:16]
    return (
        result.write_elapsed_ns,
        result.flush_elapsed_ns,
        result.close_elapsed_ns,
        digest,
    )


def test_run_workload_matches_deprecated_shim():
    params = {"file_bytes": 256 * KIB, "file_name": "testfile"}
    for target, pinned in PINNED_SEQUENTIAL_WRITE.items():
        topo = Topology(clients=1, servers=(ServerSpec(target),))
        result = topo.run_workload("sequential-write", params)
        assert _pin_tuple(result) == pinned, target


#: A 4-client netapp fleet's reduced fingerprint, pinned across the
#: workload-registry redesign (verified identical to the pre-registry
#: FleetWorkload writer).
PINNED_FLEET_FINGERPRINT = (
    "6762011a3ba78f15af2faf70607c64a3842872424441992821d320a2fe8dc622"
)


def test_fleet_fingerprint_pinned():
    from repro.topology import FleetJobSpec, run_fleet_job

    spec = FleetJobSpec.homogeneous(4, target="netapp", file_bytes=96 * KIB)
    assert run_fleet_job(spec).run_fingerprint() == PINNED_FLEET_FINGERPRINT


def test_legacy_net_inheritance_reaches_the_server():
    # Historical behaviour: the server's port shared the client's
    # NetConfig; a slow client link slows the server's downlink too.
    slow = NetConfig.fast_ethernet()
    bed = TestBed(target="netapp", net=slow)
    assert bed.switch.port(bed.server.name).net == slow
    # But an explicit ServerSpec keeps its own default link.
    bed2 = TestBed(net=slow, server=ServerSpec("netapp"))
    assert bed2.switch.port(bed2.server.name).net != slow
