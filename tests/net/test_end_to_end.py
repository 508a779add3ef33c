"""Integration tests: host-to-host datagrams through the switch."""

import pytest

from repro.config import CpuCosts, NetConfig
from repro.net import Host, Switch
from repro.sim import Simulator
from repro.units import us


def make_pair(sim, net=None):
    net = net or NetConfig.gigabit()
    switch = Switch(sim)
    a = Host(sim, "alice", switch, net, ncpus=1)
    b = Host(sim, "bob", switch, net, ncpus=1)
    return a, b


def test_datagram_round_trip():
    sim = Simulator()
    alice, bob = make_pair(sim)
    bob_sock = bob.udp.socket(2049)
    alice_sock = alice.udp.socket(800)
    log = []

    def server():
        dgram = yield from bob_sock.recv()
        log.append(("bob got", dgram.payload))
        bob_sock.sendto(dgram.src, dgram.src_port, "pong", 100)

    def client():
        alice_sock.sendto("bob", 2049, "ping", 100)
        dgram = yield from alice_sock.recv()
        log.append(("alice got", dgram.payload))

    sim.spawn(server())
    sim.spawn(client())
    sim.run()
    assert log == [("bob got", "ping"), ("alice got", "pong")]


def test_large_datagram_fragmented_and_reassembled():
    sim = Simulator()
    alice, bob = make_pair(sim)
    bob_sock = bob.udp.socket(2049)
    alice_sock = alice.udp.socket(800)
    received = []

    def server():
        dgram = yield from bob_sock.recv()
        received.append(dgram.size)

    def client():
        alice_sock.sendto("bob", 2049, b"...", 8392)
        return
        yield  # pragma: no cover

    sim.spawn(server())
    sim.spawn(client())
    sim.run()
    assert received == [8392]
    # 6 fragments traversed the receiver's NIC.
    assert bob.rx_fragments == 6
    assert bob.rx_datagrams == 1


def test_receive_charges_interrupt_cpu():
    sim = Simulator()
    costs = CpuCosts()
    alice, bob = make_pair(sim)
    alice_sock = alice.udp.socket(800)
    bob.udp.socket(2049)
    alice_sock.sendto("bob", 2049, "x", 8392)
    sim.run()
    assert bob.cpus.time_by_label.get("net_rx_irq") == 6 * costs.rx_frame_irq


def test_receive_path_error_propagates_out_of_run():
    sim = Simulator()
    alice, bob = make_pair(sim)
    alice_sock = alice.udp.socket(800)
    bob_sock = bob.udp.socket(2049)

    def broken_hook():
        raise RuntimeError("on_deliver failed")

    bob_sock.on_deliver = broken_hook
    alice_sock.sendto("bob", 2049, "x", 100)
    with pytest.raises(RuntimeError, match="on_deliver failed"):
        sim.run()


def test_datagram_to_unbound_port_dropped():
    sim = Simulator()
    alice, bob = make_pair(sim)
    alice_sock = alice.udp.socket(800)
    alice_sock.sendto("bob", 999, "void", 50)
    sim.run()
    assert bob.udp.dropped_no_socket == 1


def test_wire_time_scales_with_bandwidth():
    fast_net = NetConfig.gigabit()
    slow_net = NetConfig.fast_ethernet()
    times = {}
    for label, net in (("fast", fast_net), ("slow", slow_net)):
        sim = Simulator()
        alice, bob = make_pair(sim, net)
        sock = bob.udp.socket(2049)
        asock = alice.udp.socket(800)
        done = []

        def server(sock=sock, done=done):
            yield from sock.recv()
            done.append(sim.now)

        sim.spawn(server())
        asock.sendto("bob", 2049, "x", 8392)
        sim.run()
        times[label] = done[0]
    assert times["slow"] > times["fast"] * 5


def test_send_cost_reflects_fragmentation():
    sim = Simulator()
    switch = Switch(sim)
    costs = CpuCosts()
    gige = Host(sim, "g", switch, NetConfig.gigabit(), costs=costs)
    jumbo = Host(sim, "j", switch, NetConfig.gigabit(jumbo=True), costs=costs)
    # 8 KB + RPC header: full fragmentation cost matches the paper's 50 µs.
    assert gige.udp.send_cost(8392) == costs.sock_sendmsg
    # Jumbo frames eliminate 5 of 6 fragments' worth of work.
    assert jumbo.udp.send_cost(8392) < costs.sock_sendmsg * 0.6
