"""Tests for switch forwarding, reassembly and its GC."""

import random

import pytest

from repro.config import MountConfig, NetConfig
from repro.errors import ConfigError
from repro.faults import DropFrames, Duplicate, FaultChain
from repro.net import Host, Switch
from repro.net.switch import IPFRAG_TIME_NS
from repro.sim import Simulator
from repro.topology import ClientSpec, FleetWorkload, Topology
from repro.units import KIB, ms, seconds, us


def test_three_hosts_forwarding_isolated():
    sim = Simulator()
    switch = Switch(sim)
    net = NetConfig.gigabit()
    hosts = {name: Host(sim, name, switch, net) for name in ("a", "b", "c")}
    socks = {name: host.udp.socket(9) for name, host in hosts.items()}
    got = {name: [] for name in hosts}

    def rx(name):
        while True:
            dgram = yield from socks[name].recv()
            got[name].append(dgram.payload)

    for name in hosts:
        sim.spawn(rx(name), daemon=True)
    socks["a"].sendto("b", 9, "ab", 100)
    socks["a"].sendto("c", 9, "ac", 100)
    socks["b"].sendto("a", 9, "ba", 100)
    sim.run_until(lambda: sum(map(len, got.values())) == 3)
    assert got == {"a": ["ba"], "b": ["ab"], "c": ["ac"]}


def test_duplicate_attachment_rejected():
    sim = Simulator()
    switch = Switch(sim)
    Host(sim, "a", switch, NetConfig.gigabit())
    with pytest.raises(ConfigError):
        switch.attach("a", NetConfig.gigabit())


def test_unknown_port_lookup_rejected():
    sim = Simulator()
    switch = Switch(sim)
    with pytest.raises(ConfigError):
        switch.port("ghost")


def test_frames_to_detached_host_vanish():
    sim = Simulator()
    switch = Switch(sim)
    a = Host(sim, "a", switch, NetConfig.gigabit())
    sock = a.udp.socket(9)
    sock.sendto("nobody", 9, "x", 100)
    sim.run()  # no crash, nothing delivered


def test_reassembly_table_bounded_under_loss():
    sim = Simulator()
    switch = Switch(sim)
    lossy = NetConfig(loss_probability=0.5)
    a = Host(sim, "a", switch, NetConfig.gigabit())
    b = Host(sim, "b", switch, lossy)
    b.udp.socket(9)
    sock = a.udp.socket(9)
    for i in range(6000):
        sock.sendto("b", 9, i, 8392)  # 6 fragments each, half dropped
    sim.run()
    assert len(b.port._partial) <= 4096
    assert switch.fragments_dropped > 0


def _damaged_fleet(duplicate):
    """Two clients; three frames on client1's uplink are lost and, with
    ``duplicate``, a fifth of its frames arrive twice."""
    topo = Topology(
        clients=ClientSpec(mount=MountConfig(timeo_ns=ms(20))).replicate(2)
    )
    faults = [DropFrames([4, 5, 9])]
    if duplicate:
        faults.append(Duplicate(random.Random(7), probability=0.2, lag_ns=us(30)))
    topo.switch.install_fault("client1", uplink=FaultChain(faults))
    FleetWorkload(topo, 96 * KIB).run()
    return topo


@pytest.mark.parametrize("duplicate", [False, True])
def test_duplicate_fragment_does_not_complete_a_datagram(duplicate):
    # Duplicates of the damaged datagrams' other fragments must not
    # count toward reassembly, so each damaged WRITE still times out
    # and is sent again, as it is with no duplicates.
    topo = _damaged_fleet(duplicate)
    retransmits = [stack.nfs.xprt.stats.retransmits for stack in topo.clients]
    assert retransmits == [0, 2]


def test_reassembly_entries_expire_after_ipfrag_time():
    topo = _damaged_fleet(duplicate=True)
    sim, filer = topo.sim, topo.server(0)
    port = filer.host.port
    # Damaged datagrams, and duplicates of completed ones, left entries.
    assert port._partial
    sim.run(until=sim.now + IPFRAG_TIME_NS + seconds(1))
    # Expiry is checked when a datagram's first fragment arrives.
    sock = topo.client(0).host.udp.socket(4000)
    sock.sendto(filer.host.name, 4000, "late", 8 * KIB)
    sim.run(until=sim.now + ms(1))
    assert port._partial == {} and port._born == {}
