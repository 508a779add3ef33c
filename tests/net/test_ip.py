"""Unit and property tests for IP fragmentation."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetConfig
from repro.errors import ConfigError
from repro.net import fragment_count, fragment_sizes

GIGE = NetConfig.gigabit()
JUMBO = NetConfig.gigabit(jumbo=True)


def test_8k_write_fragments_six_ways_at_1500_mtu():
    # 8 KB payload + RPC overhead needs 6 fragments at MTU 1500,
    # the case the paper blames for the network-layer cost.
    assert fragment_count(8192 + 200, GIGE) == 6


def test_jumbo_frames_avoid_fragmentation():
    assert fragment_count(8192 + 200, JUMBO) == 1


def test_small_datagram_single_fragment():
    assert fragment_count(100, GIGE) == 1
    assert fragment_count(0, GIGE) == 1


def test_fragment_payloads_are_8_byte_aligned_except_last():
    sizes = fragment_sizes(8392, GIGE)
    payloads = [s - GIGE.header_bytes for s in sizes]
    for p in payloads[:-1]:
        assert p % 8 == 0


def test_negative_payload_rejected():
    with pytest.raises(ConfigError):
        fragment_sizes(-1, GIGE)


@given(st.integers(min_value=0, max_value=70_000))
@settings(max_examples=200, deadline=None)
def test_fragments_conserve_payload(payload):
    for net in (GIGE, JUMBO):
        sizes = fragment_sizes(payload, net)
        carried = sum(s - net.header_bytes for s in sizes)
        assert carried == payload
        assert all(s <= net.mtu for s in sizes)
        assert len(sizes) == fragment_count(payload, net)


@pytest.mark.parametrize("mtu", [576, 1500, 9000])
def test_fragment_count_is_the_length_of_the_sizes_list(mtu):
    net = NetConfig(mtu=mtu)
    per_fragment = (mtu - net.header_bytes) // 8 * 8
    # Every size either side of each fragment boundary, plus a sweep.
    edges = {
        k * per_fragment + d
        for k in range(70_000 // per_fragment + 2)
        for d in (-1, 0, 1)
    }
    payloads = set(range(0, 70_001, 7)) | {p for p in edges if 0 <= p <= 70_000}
    for payload in sorted(payloads):
        assert fragment_count(payload, net) == len(fragment_sizes(payload, net))


def test_fragment_count_rejects_what_fragment_sizes_rejects():
    with pytest.raises(ConfigError):
        fragment_count(-1, GIGE)
    # Four payload bytes per frame: not one 8-byte fragment unit.
    tiny = NetConfig(mtu=50)
    # An MTU below the headers cannot be a NetConfig; the bare fields can
    # still reach the function.
    below = SimpleNamespace(mtu=40, header_bytes=46)
    for net in (tiny, below):
        with pytest.raises(ConfigError):
            fragment_count(100, net)
        with pytest.raises(ConfigError):
            fragment_sizes(100, net)
