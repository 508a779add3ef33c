"""Fleet workloads: concurrency, staggering, fairness, cache roundtrip."""

import pytest

from repro.errors import ConfigError
from repro.topology import (
    ClientSpec,
    FleetJobSpec,
    FleetPointResult,
    FleetWorkload,
    ServerSpec,
    Topology,
    run_fleet_job,
)
from repro.units import KIB, us

FILE = 128 * KIB


def test_fleet_runs_every_client_to_completion():
    topo = Topology(clients=4)
    fleet = FleetWorkload(topo, FILE).run()
    assert len(fleet.clients) == 4
    assert fleet.total_bytes == 4 * FILE
    assert all(c.result.file_bytes == FILE for c in fleet.clients)
    # Everything landed on the one server (file data plus RPC headers).
    assert topo.server().bytes_received >= 4 * FILE
    assert fleet.span_ns > 0
    assert 0.0 < fleet.fairness <= 1.0
    assert "4 client(s)" in fleet.summary()


def test_identical_clients_share_fairly():
    topo = Topology(clients=4)
    fleet = FleetWorkload(topo, FILE).run()
    assert fleet.fairness >= 0.95
    shares = fleet.servers[0]["ingest_shares"]
    assert set(shares) == {"client0", "client1", "client2", "client3"}
    assert sum(shares.values()) == pytest.approx(1.0)
    # Emergent FIFO fairness: every client near 1/4 of the ingest.
    for share in shares.values():
        assert share == pytest.approx(0.25, abs=0.05)


def test_contention_beats_one_client_but_not_linearly():
    solo = FleetWorkload(Topology(clients=1), FILE).run()
    quad = FleetWorkload(Topology(clients=4), FILE).run()
    assert quad.aggregate_mbps > solo.aggregate_mbps
    assert quad.aggregate_mbps < 4 * solo.aggregate_mbps
    # The contended port actually queued frames.
    assert quad.servers[0]["downlink_queue_ns"] > solo.servers[0]["downlink_queue_ns"]


def test_stagger_shifts_start_times():
    topo = Topology(clients=3)
    fleet = FleetWorkload(topo, FILE, stagger_ns=us(500)).run()
    starts = [c.start_ns for c in fleet.clients]
    assert starts == [0, us(500), us(1000)]


def test_spec_start_offset_adds_to_stagger():
    topo = Topology(
        clients=(ClientSpec(), ClientSpec(start_offset_ns=us(100)))
    )
    fleet = FleetWorkload(topo, FILE, stagger_ns=us(500)).run()
    assert [c.start_ns for c in fleet.clients] == [0, us(600)]


def test_per_client_chunk_override_mixes_write_sizes():
    topo = Topology(
        clients=(ClientSpec(), ClientSpec(chunk_bytes=32 * KIB))
    )
    fleet = FleetWorkload(topo, FILE, chunk_bytes=8 * KIB).run()
    assert fleet.clients[0].result.chunk_bytes == 8 * KIB
    assert fleet.clients[1].result.chunk_bytes == 32 * KIB
    # Fewer, larger write() calls for the override client.
    assert len(fleet.clients[1].result.trace) < len(fleet.clients[0].result.trace)


def test_split_fleet_across_two_servers():
    topo = Topology(
        clients=(
            ClientSpec(server=0),
            ClientSpec(server=0),
            ClientSpec(server=1),
        ),
        servers=(ServerSpec("netapp"), ServerSpec("linux")),
    )
    fleet = FleetWorkload(topo, FILE).run()
    assert [row["name"] for row in fleet.servers] == ["netapp-f85", "linux-nfsd"]
    filer, knfsd = fleet.servers
    assert set(filer["ingest_shares"]) == {"client0", "client1"}
    assert set(knfsd["ingest_shares"]) == {"client2"}
    assert knfsd["ingest_shares"]["client2"] == pytest.approx(1.0)


def test_workload_validates_inputs():
    topo = Topology(clients=1)
    with pytest.raises(ConfigError, match="file_bytes"):
        FleetWorkload(topo, 0)
    with pytest.raises(ConfigError, match="stagger_ns"):
        FleetWorkload(topo, FILE, stagger_ns=-1)


def test_time_limit_stops_a_runaway_fleet():
    from repro.errors import SimulationError

    topo = Topology(clients=2)
    with pytest.raises(SimulationError, match="time limit"):
        FleetWorkload(topo, FILE).run(time_limit_ns=us(1))


def test_point_result_payload_roundtrip():
    point = run_fleet_job(FleetJobSpec.homogeneous(2, file_bytes=FILE))
    payload = point.to_payload()
    assert payload["__kind__"] == "fleet"
    revived = FleetPointResult.from_payload(payload)
    assert revived.run_fingerprint() == point.run_fingerprint()
    assert revived.aggregate_mbps == point.aggregate_mbps
    assert revived.fairness == point.fairness
    assert revived.client_mbps() == point.client_mbps()
