"""Topology assembly: ports, naming, multi-server wiring."""

import pytest

from repro.config import FilerConfig, MountConfig
from repro.errors import ConfigError
from repro.topology import ClientSpec, ServerSpec, Topology
from repro.units import KIB


def test_int_clients_builds_homogeneous_fleet():
    topo = Topology(clients=4)
    assert len(topo.clients) == 4
    names = [stack.name for stack in topo.clients]
    assert names == ["client0", "client1", "client2", "client3"]
    # Every host plus the server own a switch port, in attachment order.
    port_names = [p.name for p in topo.switch.ports()]
    assert port_names == names + ["netapp-f85"]
    assert len(topo.switch) == 5


def test_single_client_keeps_historical_name():
    topo = Topology(clients=1)
    assert topo.client().name == "client"
    assert topo.client().target == "netapp"


def test_client_names_can_be_explicit_and_must_be_unique():
    topo = Topology(
        clients=(ClientSpec(name="alice"), ClientSpec(name="bob"))
    )
    assert [s.name for s in topo.clients] == ["alice", "bob"]
    with pytest.raises(ConfigError, match="already attached"):
        Topology(clients=(ClientSpec(name="alice"), ClientSpec(name="alice")))


def test_server_index_out_of_range_rejected():
    with pytest.raises(ConfigError, match="only 1 server"):
        Topology(clients=(ClientSpec(server=1),))


def test_local_kind_builds_ext2_without_server():
    topo = Topology(clients=1, servers=(ServerSpec("local"),))
    stack = topo.client()
    assert stack.ext2 is not None
    assert stack.nfs is None
    assert topo.server() is None
    assert stack.target == "local"
    # Only the client host is on the switch — no server port.
    assert [p.name for p in topo.switch.ports()] == ["client"]


def test_duplicate_server_names_get_index_suffix():
    topo = Topology(
        clients=(ClientSpec(server=0), ClientSpec(server=1)),
        servers=(ServerSpec("netapp"), ServerSpec("netapp")),
    )
    server_names = [s.name for s in topo.servers]
    assert server_names == ["netapp-f85", "netapp-f85-1"]
    # Each client mounts the server its spec points at.
    assert topo.client(0).server is topo.server(0)
    assert topo.client(1).server is topo.server(1)
    assert topo.client(0).nfs.xprt.server != topo.client(1).nfs.xprt.server


def test_explicit_server_name_overrides_config_name():
    topo = Topology(
        clients=1, servers=(ServerSpec("netapp", FilerConfig(), name="filer-a"),)
    )
    assert topo.server().name == "filer-a"
    assert topo.switch.port("filer-a") is not None


def test_empty_topology_rejected():
    with pytest.raises(ConfigError, match="at least one client"):
        Topology(clients=())
    with pytest.raises(ConfigError, match="at least one server"):
        Topology(clients=1, servers=())


def test_per_client_mount_and_variant():
    topo = Topology(
        clients=(
            ClientSpec(client="stock"),
            ClientSpec(client="enhanced", mount=MountConfig(wsize=32768)),
        )
    )
    assert topo.client(0).client_config != topo.client(1).client_config
    assert topo.client(1).mount.wsize == 32768


def test_run_sequential_write_targets_one_client():
    topo = Topology(clients=2)
    result = topo.run_workload("sequential-write", {"file_bytes": 64 * KIB}, client=1)
    assert result.file_bytes == 64 * KIB
    # Only client1's file landed on the server.
    assert topo.server().bytes_received >= 64 * KIB
    assert topo.client(0).syscalls.write_calls == 0
