"""IP fragmentation model.

An 8 KB NFS WRITE over UDP does not fit a 1500-byte Ethernet frame, so
the IP layer fragments it — the paper suspects this fragmentation and
reassembly is the major part of the 50 µs/RPC network-layer cost and
names jumbo frames as the prospective fix (§3.5).  This module computes
fragment counts and wire sizes for a given MTU.
"""

from __future__ import annotations

from typing import List

from ..config import NetConfig
from ..errors import ConfigError

__all__ = ["fragment_sizes", "fragment_count"]


def fragment_sizes(payload_bytes: int, net: NetConfig) -> List[int]:
    """Wire sizes (headers included) of the fragments carrying a datagram.

    Fragment payloads are multiples of 8 bytes except the last, per the
    IP fragmentation rules; each fragment carries its own headers.
    """
    if payload_bytes < 0:
        raise ConfigError(f"negative payload {payload_bytes}")
    max_frag_payload = (net.mtu - net.header_bytes) // 8 * 8
    if max_frag_payload <= 0:
        raise ConfigError(f"MTU {net.mtu} cannot carry any payload")
    sizes: List[int] = []
    remaining = payload_bytes
    while True:
        chunk = min(remaining, max_frag_payload)
        sizes.append(chunk + net.header_bytes)
        remaining -= chunk
        if remaining <= 0:
            break
    return sizes


def fragment_count(payload_bytes: int, net: NetConfig) -> int:
    """Number of fragments a datagram of ``payload_bytes`` needs:
    ``len(fragment_sizes(payload_bytes, net))``, without the list."""
    if payload_bytes < 0:
        raise ConfigError(f"negative payload {payload_bytes}")
    max_frag_payload = (net.mtu - net.header_bytes) // 8 * 8
    if max_frag_payload <= 0:
        raise ConfigError(f"MTU {net.mtu} cannot carry any payload")
    # An empty datagram still travels as one fragment.
    return max(1, -(-payload_bytes // max_frag_payload))
