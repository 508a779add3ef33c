"""Unidirectional serialising link.

Frames queue behind each other at the link's bandwidth, then experience
a fixed propagation/switching latency.  The O(1) ``busy_until``
bookkeeping avoids a task per frame, which matters for multi-hundred-MB
simulated transfers.  Each frame in flight is one simulator heap entry:
:meth:`Link.send` schedules its delivery with one ``call_at`` at the
arrival time, so frames reach the far end in ``(arrival, send order)``.

Fault injection: a pluggable :attr:`Link.fault` hook (any object with
``on_frame(wire_bytes) -> list[int]``, see :mod:`repro.faults.link`)
decides each frame's fate *after* serialisation: an empty list drops
the frame, ``[0]`` delivers normally, and each additional/positive
entry delivers one (possibly delayed, hence reordered or duplicated)
copy, each its own ``call_at``.  Bandwidth occupancy is charged either
way — a dropped frame still burned wire time, like a frame lost to
corruption.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import ConfigError
from ..obs.core import DISABLED
from ..sim import Simulator
from ..units import transfer_time

__all__ = ["Link"]


class Link:
    """One direction of a point-to-point wire."""

    __slots__ = (
        "_sim",
        "name",
        "bandwidth",
        "latency_ns",
        "_busy_until",
        "frames_sent",
        "bytes_sent",
        "total_queue_ns",
        "peak_queue_ns",
        "fault",
        "frames_dropped",
        "frames_duplicated",
        "obs",
        "_queue_series_key",
        "_tx_ns",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_sec: float,
        latency_ns: int,
        name: str = "link",
    ):
        if bandwidth_bytes_per_sec <= 0:
            raise ConfigError(f"{name}: bandwidth must be positive")
        if latency_ns < 0:
            raise ConfigError(f"{name}: negative latency")
        self._sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_sec
        self.latency_ns = latency_ns
        self._busy_until = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Output-port contention accounting: time frames spent queued
        #: behind earlier frames on this link (ns, cumulative and peak).
        #: On a server's downlink this is the multi-client contention
        #: the Topology fairness reports read.
        self.total_queue_ns = 0
        self.peak_queue_ns = 0
        #: Pluggable per-frame fault hook (``on_frame(bytes) -> [delay...]``).
        self.fault: Optional[Any] = None
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.obs = DISABLED
        #: Cached timeline key: send() is the hottest path in the net
        #: layer, so the per-link key string is built exactly once.
        self._queue_series_key = f"net/{name}/queue_ns"
        #: Serialisation time per frame size: a link sees a handful of
        #: sizes (full MTU frames, tails, small replies) millions of times.
        self._tx_ns: Dict[int, int] = {}

    @staticmethod
    def _payload_span(args) -> int:
        """Span id carried by the frame's RPC payload, if any."""
        if args:
            frag = args[0]
            dgram = getattr(frag, "dgram", None)
            if dgram is not None:
                return getattr(dgram.payload, "span_id", 0)
        return 0

    def send(self, wire_bytes: int, deliver: Callable[..., None], *args: Any) -> int:
        """Queue a frame; ``deliver(*args)`` fires on arrival.

        Returns the simulated arrival time (of the undisturbed copy).
        """
        if wire_bytes <= 0:
            raise ConfigError(f"{self.name}: empty frame")
        now = self._sim.now
        start = max(now, self._busy_until)
        queued = start - now
        if queued > 0:
            self.total_queue_ns += queued
            if queued > self.peak_queue_ns:
                self.peak_queue_ns = queued
        tx_ns = self._tx_ns.get(wire_bytes)
        if tx_ns is None:
            tx_ns = self._tx_ns[wire_bytes] = transfer_time(wire_bytes, self.bandwidth)
        done_sending = start + tx_ns
        self._busy_until = done_sending
        arrival = done_sending + self.latency_ns
        self.frames_sent += 1
        self.bytes_sent += wire_bytes
        obs = self.obs
        name = "frame"
        if self.fault is not None:
            deliveries = self.fault.on_frame(wire_bytes)
            if not deliveries:
                self.frames_dropped += 1
                name = "frame_dropped"
                if obs.enabled:
                    obs.count(
                        f"net/frames_dropped/{type(self.fault).__name__}"
                    )
            elif len(deliveries) > 1:
                self.frames_duplicated += len(deliveries) - 1
                if obs.enabled:
                    obs.count("net/frames_duplicated", len(deliveries) - 1)
            for extra_delay in deliveries:
                self._sim.call_at(arrival + extra_delay, deliver, *args)
        else:
            self._sim.call_at(arrival, deliver, *args)
        if obs.enabled:
            obs.frame(
                self.name,
                self._queue_series_key,
                wire_bytes,
                queued,
                start,
                arrival,
                self._payload_span(args),
                name,
            )
        return arrival

    def queue_delay_ns(self) -> int:
        """Backlog currently ahead of a new frame."""
        return max(0, self._busy_until - self._sim.now)

    def utilization(self) -> float:
        """Bytes sent divided by capacity of elapsed time."""
        if self._sim.now == 0:
            return 0.0
        return self.bytes_sent / (self.bandwidth * self._sim.now / 1e9)
