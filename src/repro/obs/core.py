"""The observability core: one passive observer per TestBed.

An :class:`Observability` bundles a :class:`~repro.obs.metrics.
MetricsRegistry` with a :class:`~repro.sim.trace.Tracer` used as the
span sink.  Components hold a reference (``self.obs``) that defaults to
the module-level :data:`DISABLED` singleton, so the disabled hot path
costs one attribute load plus a boolean check.

Spans form a causal tree: an id is minted at each ``write()``/
``fsync()`` syscall and propagated page → request → RPC xid → frame →
server op → reply → completion.  Span ids are a plain counter — fully
deterministic — and recording never schedules events, draws randomness,
or touches component state, so an instrumented run's fingerprint is
bit-identical to an uninstrumented one (the obs test suite replays runs
to prove it).

Usage mirrors the sanitizers (:mod:`repro.analysis.sanitize.runtime`)::

    with observed() as session:
        bed = TestBed(target="netapp", client="stock")
        bed.run_sequential_write(2 * MIB)
    obs = session.observabilities[0]

or explicitly: ``TestBed(..., observe=True)``.
"""

from __future__ import annotations

import copy
import itertools
import sys
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import SAMPLE, SPAN, SPAN_BEGIN, SPAN_END, SPAN_END_ATTRS, Tracer
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .timeseries import (
    DEFAULT_WINDOW_NS,
    TimelineRegistry,
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
)

__all__ = [
    "Observability",
    "DISABLED",
    "ObsSession",
    "observed",
    "active_session",
    "attach",
    "attach_if_active",
]

#: Default trace capacity, in entries, per observed bed.
DEFAULT_CAPACITY = 1_000_000

#: Field names of the leading values of a span entry (see
#: :mod:`repro.sim.trace`); span attribute names follow them.
_BEGIN = ("span", "parent", "name")
_END = ("span",)
#: Attributes of a link frame's span, after the observer's own.
_FRAME = ("bytes", "link")


class Observability:
    """Metrics + causal span tracing for one simulation.

    :meth:`scoped` returns a client view that shares this observer's
    registries, tracer, span numbering and per-task spans, so span
    ids stay globally unique and causal edges across clients resolve in
    one tree; the view prefixes metric keys and sample names with
    ``<client>/`` and tags its spans with a ``client`` attribute.

    Each observer caches the metric and timeline cells it has
    registered, keyed by the caller's (unprefixed) key: recording is a
    dict probe plus an update, and only a first use goes through the
    registries, which intern the key and reject a kind conflict.  It
    also caches the field names of its span entries per attribute
    signature, so a span is stored as names plus values.
    """

    __slots__ = (
        "sim",
        "enabled",
        "metrics",
        "timelines",
        "tracer",
        "profiler",
        "latency_trace",
        "_prefix",
        "_span_names",
        "_span_values",
        "_span_ids",
        "_task_spans",
        "_counters",
        "_gauges",
        "_histograms",
        "_series_counters",
        "_series_gauges",
        "_series_histograms",
        "_begin_names",
        "_frame_names",
    )

    def __init__(
        self,
        sim=None,
        enabled: bool = False,
        capacity: int = DEFAULT_CAPACITY,
        window_ns: int = DEFAULT_WINDOW_NS,
    ):
        self.sim = sim
        self.enabled = bool(enabled) and sim is not None
        self.metrics = MetricsRegistry()
        self.timelines = TimelineRegistry(window_ns=window_ns)
        self.tracer: Optional[Tracer] = (
            Tracer(sim, capacity=capacity, enabled=self.enabled)
            if sim is not None
            else None
        )
        #: Optional companions carried for bundle export (set by the
        #: trace runner, not by the hot path).
        self.profiler = None
        self.latency_trace = None
        #: Key prefix and leading span attributes: empty on the root.
        self._prefix = ""
        self._span_names: Tuple[str, ...] = ()
        self._span_values: Tuple[Any, ...] = ()
        self._span_ids = itertools.count(1)
        #: Root span of the syscall each task is currently executing,
        #: keyed by the task object itself (never iterated, so object
        #: keys stay deterministic).
        self._task_spans: Dict[Any, int] = {}
        self._new_caches()

    def _new_caches(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series_counters: Dict[str, WindowedCounter] = {}
        self._series_gauges: Dict[str, WindowedGauge] = {}
        self._series_histograms: Dict[str, WindowedHistogram] = {}
        #: Attribute names of a ``span_begin`` call -> its entry's names.
        self._begin_names: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._frame_names = _BEGIN + self._span_names + _FRAME

    def scoped(self, client: str) -> "Observability":
        """A view of this observer that records for fleet ``client``."""
        # A shallow copy shares the registries, the tracer, the span-id
        # counter and the task-span map; only the caches are its own.
        view = copy.copy(self)
        view._prefix = f"{client}/"
        view._span_names = ("client",)
        view._span_values = (client,)
        view._new_caches()
        return view

    # -- metrics ------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = self.metrics.counter(
                    self._prefix + key
                )
            counter.value += n

    def gauge(self, key: str, value) -> None:
        if self.enabled:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = self.metrics.gauge(self._prefix + key)
            gauge.set(value)

    def observe(self, key: str, value, bounds=None) -> None:
        """Record into ``key``'s histogram; ``bounds`` apply on first use."""
        if self.enabled:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = self.metrics.histogram(
                    self._prefix + key, bounds
                )
            histogram.observe(value)

    # -- timelines (windowed by simulated time) ------------------------------

    def series_count(self, key: str, n: int = 1) -> None:
        """Add to ``key``'s count in the current time window."""
        if self.enabled:
            series = self._series_counters.get(key)
            if series is None:
                series = self._series_counters[key] = (
                    self.timelines.windowed_counter(self._prefix + key)
                )
            series.record_windowed_count(self.sim.now, n)

    def series_gauge(self, key: str, value) -> None:
        """Sample a level (queue depth, dirty bytes) into the window."""
        if self.enabled:
            series = self._series_gauges.get(key)
            if series is None:
                series = self._series_gauges[key] = self.timelines.windowed_gauge(
                    self._prefix + key
                )
            series.record_windowed_gauge(self.sim.now, value)

    def series_observe(self, key: str, value) -> None:
        """Record a latency/size sample into the window's histogram."""
        if self.enabled:
            series = self._series_histograms.get(key)
            if series is None:
                series = self._series_histograms[key] = (
                    self.timelines.windowed_histogram(self._prefix + key)
                )
            series.record_windowed_value(self.sim.now, value)

    # -- samples (time series; exported as Chrome counter events) -----------

    def sample(self, component: str, name: str, value) -> None:
        if self.enabled:
            tracer = self.tracer
            tracer.ints.append(self.sim.now)
            tracer.objs.extend((component, sys.intern(self._prefix + name), value))
            codes = tracer.codes
            codes.append(SAMPLE)
            if len(codes) > tracer.limit:
                tracer.trim()

    # -- spans ---------------------------------------------------------------

    def span_begin(
        self,
        component: str,
        name: str,
        parent: int = 0,
        ts: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Mint a span id and record its opening edge; 0 when disabled."""
        if not self.enabled:
            return 0
        sid = next(self._span_ids)
        keys = tuple(attrs)
        names = self._begin_names.get(keys)
        if names is None:
            names = self._begin_names[keys] = _BEGIN + self._span_names + keys
        tracer = self.tracer
        tracer.ints.fromlist([self.sim.now if ts is None else ts, sid, parent])
        tracer.objs.extend(
            (names, component, name, *self._span_values, *attrs.values())
        )
        codes = tracer.codes
        codes.append(SPAN_BEGIN)
        if len(codes) > tracer.limit:
            tracer.trim()
        return sid

    def span_end(self, span_id: int, ts: Optional[int] = None, **attrs: Any) -> None:
        if self.enabled and span_id:
            tracer = self.tracer
            tracer.ints.fromlist([self.sim.now if ts is None else ts, span_id])
            codes = tracer.codes
            if attrs:
                # Closing attributes are rare (an error code).
                tracer.objs.extend((_END + tuple(attrs), *attrs.values()))
                codes.append(SPAN_END_ATTRS)
            else:
                codes.append(SPAN_END)
            if len(codes) > tracer.limit:
                tracer.trim()

    def span_point(
        self, component: str, name: str, parent: int = 0, **attrs: Any
    ) -> int:
        """A zero-duration span: an instant in the causal tree."""
        sid = self.span_begin(component, name, parent=parent, **attrs)
        self.span_end(sid)
        return sid

    def frame(
        self,
        link: str,
        queue_key: str,
        wire_bytes: int,
        queued: int,
        start: int,
        end: int,
        parent: int,
        name: str = "frame",
    ) -> None:
        """Record one frame a link put on the wire, in one call.

        Adds to ``net/frames_sent`` and ``net/bytes_sent``, samples the
        ``queued`` delay into the link's ``queue_key`` gauge, and stores
        the frame's span (serialisation ``start`` to arrival ``end``,
        under the RPC span ``parent``) as one complete-span trace entry.
        A dropped frame is recorded with ``name="frame_dropped"``.
        """
        if not self.enabled:
            return
        # count() twice and series_gauge(), inlined: this runs per frame.
        frames = self._counters.get("net/frames_sent")
        if frames is None:
            frames = self._counters["net/frames_sent"] = self.metrics.counter(
                self._prefix + "net/frames_sent"
            )
        frames.value += 1
        sent = self._counters.get("net/bytes_sent")
        if sent is None:
            sent = self._counters["net/bytes_sent"] = self.metrics.counter(
                self._prefix + "net/bytes_sent"
            )
        sent.value += wire_bytes
        series = self._series_gauges.get(queue_key)
        if series is None:
            series = self._series_gauges[queue_key] = self.timelines.windowed_gauge(
                self._prefix + queue_key
            )
        series.record_windowed_gauge(self.sim.now, queued)
        tracer = self.tracer
        tracer.ints.fromlist([start, end, next(self._span_ids), parent, wire_bytes])
        tracer.objs.extend((self._frame_names, name, *self._span_values, link))
        codes = tracer.codes
        codes.append(SPAN)
        if len(codes) > tracer.limit:
            tracer.trim()

    # -- per-task syscall context --------------------------------------------
    #
    # The write path runs in the writer's task; the root span minted at
    # the syscall boundary is stashed per task so code deeper in the
    # stack (nfs_updatepage) can parent to it without threading an
    # argument through every layer.

    def task_span(self) -> int:
        if not self.enabled:
            return 0
        return self._task_spans.get(self.sim.current_task, 0)

    def set_task_span(self, span_id: int) -> None:
        if self.enabled and span_id:
            self._task_spans[self.sim.current_task] = span_id

    def clear_task_span(self) -> None:
        if self.enabled:
            self._task_spans.pop(self.sim.current_task, None)

    # -- end-of-run harvesting ----------------------------------------------

    def harvest_lock(self, lock, component: str = "bkl") -> None:
        """Fold a :class:`~repro.sim.sync.MonitoredLock`'s stats into the
        registry — called at export time, never on the hot path."""
        if not self.enabled:
            return
        component = self._prefix + component
        stats = lock.stats
        self.metrics.counter(f"{component}/acquisitions").value = stats.acquisitions
        self.metrics.counter(f"{component}/contended").value = stats.contended
        self.metrics.counter(f"{component}/wait_ns").value = stats.total_wait_ns
        self.metrics.counter(f"{component}/hold_ns").value = stats.total_hold_ns
        for label in sorted(stats.hold_by_label):
            self.metrics.counter(
                f"{component}/hold_ns/{label}"
            ).value = stats.hold_by_label[label]
        for label in sorted(stats.wait_by_label):
            self.metrics.counter(
                f"{component}/wait_ns/{label}"
            ).value = stats.wait_by_label[label]


#: Shared no-op observer: components point here until a real one attaches.
DISABLED = Observability()


class ObsSession:
    """Collects the observers of every TestBed built while active."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        window_ns: int = DEFAULT_WINDOW_NS,
    ):
        self.capacity = capacity
        self.window_ns = window_ns
        self.observabilities: List[Observability] = []


_session: Optional[ObsSession] = None


def active_session() -> Optional[ObsSession]:
    return _session


@contextmanager
def observed(
    capacity: int = DEFAULT_CAPACITY, window_ns: int = DEFAULT_WINDOW_NS
):
    """Context manager: observe every TestBed built inside."""
    global _session
    previous = _session
    _session = ObsSession(capacity, window_ns=window_ns)
    try:
        yield _session
    finally:
        _session = previous


def attach(bed, obs: Observability) -> None:
    """Point every component of an assembled TestBed at ``obs``."""
    bed.syscalls.obs = obs
    bed.pagecache.obs = obs
    nfs = getattr(bed, "nfs", None)
    if nfs is not None:
        nfs.obs = obs
        nfs.xprt.obs = obs
    server = getattr(bed, "server", None)
    if server is not None:
        server.obs = obs
        server.rpc.obs = obs
    switch = getattr(bed, "switch", None)
    if switch is not None:
        switch.obs = obs
        for port in switch.ports():
            port.uplink.obs = obs
            port.downlink.obs = obs


def attach_if_active(bed, observe: bool = False) -> Observability:
    """Called by ``TestBed.__init__``; returns :data:`DISABLED` unless
    ``observe`` is set or an ``observed()`` session is active."""
    session = _session
    if not observe and session is None:
        return DISABLED
    obs = Observability(
        bed.sim,
        enabled=True,
        capacity=session.capacity if session is not None else DEFAULT_CAPACITY,
        window_ns=session.window_ns if session is not None else DEFAULT_WINDOW_NS,
    )
    attach(bed, obs)
    if session is not None:
        session.observabilities.append(obs)
    return obs


def attach_topology(topology, obs: Observability) -> None:
    """Point every component of an assembled Topology at ``obs``.

    Single-client topologies attach the root observer directly (metric
    keys identical to the historical ``TestBed`` surface); fleets give
    each client stack a :meth:`~Observability.scoped` view keyed by its
    host name, adding the client-id dimension without splitting the
    span tree.
    """
    switch = topology.switch
    switch.obs = obs
    for port in switch.ports():
        port.uplink.obs = obs
        port.downlink.obs = obs
    for server in topology.servers:
        if server is not None:
            server.obs = obs
            server.rpc.obs = obs
    scoped = len(topology.clients) > 1
    for stack in topology.clients:
        view = obs.scoped(stack.name) if scoped else obs
        stack.obs = view
        stack.syscalls.obs = view
        stack.pagecache.obs = view
        if stack.nfs is not None:
            stack.nfs.obs = view
            stack.nfs.xprt.obs = view


def attach_topology_if_active(topology, observe: bool = False) -> Observability:
    """Called by ``Topology.__init__``; mirrors :func:`attach_if_active`."""
    session = _session
    if not observe and session is None:
        return DISABLED
    obs = Observability(
        topology.sim,
        enabled=True,
        capacity=session.capacity if session is not None else DEFAULT_CAPACITY,
        window_ns=session.window_ns if session is not None else DEFAULT_WINDOW_NS,
    )
    attach_topology(topology, obs)
    if session is not None:
        session.observabilities.append(obs)
    return obs
