"""Unidirectional serialising link.

Frames queue behind each other at the link's bandwidth, then experience
a fixed propagation/switching latency.  The O(1) ``busy_until``
bookkeeping avoids a task per frame, which matters for multi-hundred-MB
simulated transfers.

Delivery is *batched per link*: a clean (un-faulted) link keeps its
in-flight frames in a local FIFO and only the head frame occupies the
simulator heap; each delivery re-arms the next one.  Because arrivals
on one link are monotone (``busy_until`` never decreases and latency is
constant) and every frame's ``(time, seq)`` key is reserved at send
time via :meth:`Simulator.alloc_seq`, pop order — and therefore every
simulated outcome — is bit-identical to the historical
one-heap-event-per-frame scheme, while heap residency drops from
O(in-flight frames) to O(links).  A congested server downlink with a
thousand queued frames costs one heap slot instead of a thousand.

Fault injection: a pluggable :attr:`Link.fault` hook (any object with
``on_frame(wire_bytes) -> list[int]``, see :mod:`repro.faults.link`)
decides each frame's fate *after* serialisation: an empty list drops
the frame, ``[0]`` delivers normally, and each additional/positive
entry delivers one (possibly delayed, hence reordered or duplicated)
copy.  Bandwidth occupancy is charged either way — a dropped frame
still burned wire time, like a frame lost to corruption.  Extra fault
delays break per-link arrival monotonicity, so faulted deliveries take
the eager per-frame path (which reserves seqs identically).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

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
        "batch_delivery",
        "_pending",
        "_head_armed",
        "_queue_series_key",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_sec: float,
        latency_ns: int,
        name: str = "link",
        batch_delivery: bool = True,
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
        #: One-live-heap-event-per-link delivery (bit-identical to the
        #: eager per-frame path; disable to measure that equivalence).
        self.batch_delivery = batch_delivery
        #: In-flight frames: (arrival, seq, deliver, args), arrival- and
        #: seq-monotone.  Only the head is in the simulator heap.
        self._pending: deque = deque()
        self._head_armed = False
        #: Cached timeline key: send() is the hottest path in the net
        #: layer, so the per-link key string is built exactly once.
        self._queue_series_key = f"net/{name}/queue_ns"

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
        start = max(self._sim.now, self._busy_until)
        queued = start - self._sim.now
        if queued > 0:
            self.total_queue_ns += queued
            if queued > self.peak_queue_ns:
                self.peak_queue_ns = queued
        done_sending = start + transfer_time(wire_bytes, self.bandwidth)
        self._busy_until = done_sending
        arrival = done_sending + self.latency_ns
        self.frames_sent += 1
        self.bytes_sent += wire_bytes
        obs = self.obs
        if obs.enabled:
            obs.count("net/frames_sent")
            obs.count("net/bytes_sent", wire_bytes)
            obs.series_gauge(self._queue_series_key, queued)
        if self.fault is not None:
            deliveries = self.fault.on_frame(wire_bytes)
            if not deliveries:
                self.frames_dropped += 1
                if obs.enabled:
                    obs.count(
                        f"net/frames_dropped/{type(self.fault).__name__}"
                    )
                    sid = obs.span_begin(
                        "net",
                        "frame_dropped",
                        parent=self._payload_span(args),
                        ts=start,
                        bytes=wire_bytes,
                        link=self.name,
                    )
                    obs.span_end(sid, ts=arrival)
                return arrival
            if len(deliveries) > 1:
                self.frames_duplicated += len(deliveries) - 1
                if obs.enabled:
                    obs.count("net/frames_duplicated", len(deliveries) - 1)
            # Fault delays break per-link arrival monotonicity, so every
            # copy takes the eager per-frame path.
            for extra_delay in deliveries:
                self._sim.call_at(arrival + extra_delay, deliver, *args)
        elif self.batch_delivery:
            # Reserve the frame's ``(time, seq)`` key now but park it in
            # the per-link FIFO; only the head frame holds a heap slot,
            # and :meth:`_deliver_head` re-arms the next one.
            sim = self._sim
            seq = sim.alloc_seq()
            self._pending.append((arrival, seq, deliver, args))
            if not self._head_armed:
                self._head_armed = True
                sim.push_at(arrival, seq, self._deliver_head)
        else:
            self._sim.call_at(arrival, deliver, *args)
        self._record_frame(start, arrival, wire_bytes, args)
        return arrival

    def _deliver_head(self) -> None:
        _arrival, _seq, deliver, args = self._pending.popleft()
        if self._pending:
            head = self._pending[0]
            self._sim.push_at(head[0], head[1], self._deliver_head)
        else:
            self._head_armed = False
        deliver(*args)

    def _record_frame(self, start: int, arrival: int, wire_bytes: int, args) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        sid = obs.span_begin(
            "net",
            "frame",
            parent=self._payload_span(args),
            ts=start,
            bytes=wire_bytes,
            link=self.name,
        )
        obs.span_end(sid, ts=arrival)

    def queue_delay_ns(self) -> int:
        """Backlog currently ahead of a new frame."""
        return max(0, self._busy_until - self._sim.now)

    def utilization(self) -> float:
        """Bytes sent divided by capacity of elapsed time."""
        if self._sim.now == 0:
            return 0.0
        return self.bytes_sent / (self.bandwidth * self._sim.now / 1e9)
