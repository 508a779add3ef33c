"""Wire units: datagrams and the IP fragments they travel as."""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["Datagram", "Fragment"]


class Datagram(NamedTuple):
    """A UDP datagram addressed host-to-host.

    ``payload`` is the simulated message object (e.g. an RPC call);
    ``size`` is the UDP payload size in bytes, which drives wire timing.
    ``dgram_id`` keys IP reassembly; the sender draws it from the
    switch (:meth:`~repro.net.switch.Switch.next_dgram_id`).
    """

    src: str
    src_port: int
    dst: str
    dst_port: int
    payload: Any
    size: int
    dgram_id: int = 0


class Fragment(NamedTuple):
    """One IP fragment of a datagram, as it appears on the wire."""

    dgram: Datagram
    index: int
    count: int
    wire_bytes: int

    @property
    def is_last(self) -> bool:
        return self.index == self.count - 1
