"""Unit tests for the serialising link."""

import random

import pytest

from repro.errors import ConfigError
from repro.faults.link import DelayJitter
from repro.net import Link
from repro.sim import Simulator
from repro.units import ms, us


def test_single_frame_timing():
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_sec=1e9, latency_ns=us(10))
    arrivals = []
    link.send(1000, arrivals.append, "a")
    sim.run()
    # 1000 B at 1 GB/s = 1 µs serialisation + 10 µs latency.
    assert arrivals == ["a"]
    assert sim.now == us(11)


def test_frames_serialise_back_to_back():
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_sec=1e9, latency_ns=0)
    times = []
    link.send(1000, lambda: times.append(sim.now))
    link.send(1000, lambda: times.append(sim.now))
    sim.run()
    assert times == [us(1), us(2)]


def test_queue_delay_reflects_backlog():
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_sec=1e9, latency_ns=0)
    link.send(5000, lambda: None)
    assert link.queue_delay_ns() == us(5)
    sim.run()
    assert link.queue_delay_ns() == 0


def test_stats_and_utilization():
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_sec=1e6, latency_ns=0)
    link.send(500, lambda: None)
    sim.run()
    assert link.frames_sent == 1
    assert link.bytes_sent == 500
    assert link.utilization() == pytest.approx(1.0)


def test_bad_configs_rejected():
    sim = Simulator()
    with pytest.raises(ConfigError):
        Link(sim, bandwidth_bytes_per_sec=0, latency_ns=0)
    link = Link(sim, bandwidth_bytes_per_sec=1e6, latency_ns=0)
    with pytest.raises(ConfigError):
        link.send(0, lambda: None)


def test_every_frame_in_flight_is_one_heap_entry():
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_sec=1e6, latency_ns=1000, name="l")
    delivered = []
    for i in range(10):
        link.send(1500, delivered.append, i)
    assert len(sim._queue) == 10
    sim.run()
    assert delivered == list(range(10))
    assert sim.events_processed == 10


def test_jittered_link_delivers_every_frame():
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_sec=1e6, latency_ns=1000, name="l")
    link.fault = DelayJitter(random.Random(1), max_jitter_ns=ms(1))
    delivered = []
    for i in range(5):
        link.send(1500, delivered.append, i)
    sim.run()
    assert sorted(delivered) == list(range(5))
