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

import sys
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from ..sim.trace import Tracer
from .metrics import MetricsRegistry
from .timeseries import DEFAULT_WINDOW_NS, TimelineRegistry

__all__ = [
    "Observability",
    "ScopedObservability",
    "DISABLED",
    "ObsSession",
    "observed",
    "active_session",
    "attach",
    "attach_if_active",
]

#: Default span/sample ring capacity per observed bed.
DEFAULT_CAPACITY = 1_000_000


class Observability:
    """Metrics + causal span tracing for one simulation."""

    __slots__ = (
        "sim",
        "enabled",
        "metrics",
        "timelines",
        "tracer",
        "profiler",
        "latency_trace",
        "_next_span",
        "_task_spans",
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
        self._next_span = 0
        #: Root span of the syscall each task is currently executing,
        #: keyed by the task object itself (never iterated, so object
        #: keys stay deterministic).
        self._task_spans: Dict[Any, int] = {}

    # -- metrics ------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(key).inc(n)

    def gauge(self, key: str, value) -> None:
        if self.enabled:
            self.metrics.gauge(key).set(value)

    def observe(self, key: str, value, bounds=None) -> None:
        if self.enabled:
            self.metrics.histogram(key, bounds).observe(value)

    # -- timelines (windowed by simulated time) ------------------------------

    def series_count(self, key: str, n: int = 1) -> None:
        """Add to ``key``'s count in the current time window."""
        if self.enabled:
            self.timelines.windowed_counter(key).record_windowed_count(
                self.sim.now, n
            )

    def series_gauge(self, key: str, value) -> None:
        """Sample a level (queue depth, dirty bytes) into the window."""
        if self.enabled:
            self.timelines.windowed_gauge(key).record_windowed_gauge(
                self.sim.now, value
            )

    def series_observe(self, key: str, value) -> None:
        """Record a latency/size sample into the window's histogram."""
        if self.enabled:
            self.timelines.windowed_histogram(key).record_windowed_value(
                self.sim.now, value
            )

    # -- samples (time series; exported as Chrome counter events) -----------

    def sample(self, component: str, name: str, value) -> None:
        if self.enabled:
            self.tracer.record(component, "sample", name=name, value=value)

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
        self._next_span += 1
        sid = self._next_span
        self.tracer.record_at(
            self.sim.now if ts is None else ts,
            component,
            "span_begin",
            span=sid,
            parent=parent,
            name=name,
            **attrs,
        )
        return sid

    def span_end(self, span_id: int, ts: Optional[int] = None, **attrs: Any) -> None:
        if not self.enabled or not span_id:
            return
        self.tracer.record_at(
            self.sim.now if ts is None else ts, "", "span_end", span=span_id, **attrs
        )

    def span_point(
        self, component: str, name: str, parent: int = 0, **attrs: Any
    ) -> int:
        """A zero-duration span: an instant in the causal tree."""
        sid = self.span_begin(component, name, parent=parent, **attrs)
        self.span_end(sid)
        return sid

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


class ScopedObservability:
    """A client-scoped view of one :class:`Observability`.

    Multi-client topologies share a single observer per simulation (the
    span tree crosses clients at the switch and the server), but each
    client stack's components see a scoped facade: metric keys gain a
    ``<client>/`` prefix and every span carries a ``client`` attribute —
    the client-id dimension of fleet metrics.  All recording delegates
    to the root, so span ids stay globally unique and causal edges
    across clients resolve in one tree.
    """

    __slots__ = ("root", "client", "_prefix", "_keys")

    def __init__(self, root: Observability, client: str):
        self.root = root
        self.client = client
        self._prefix = f"{client}/"
        # Prefixed-key cache: instrument call sites pass a small fixed
        # vocabulary of literals, so building (and re-hashing) the
        # f"{client}/{key}" string on every count() is pure overhead.
        # Interned cached keys also make the registry probe pointer-fast.
        self._keys: Dict[str, str] = {}

    def _scoped(self, key: str) -> str:
        scoped = self._keys.get(key)
        if scoped is None:
            scoped = sys.intern(self._prefix + key)
            self._keys[key] = scoped
        return scoped

    @property
    def enabled(self) -> bool:
        return self.root.enabled

    @property
    def sim(self):
        return self.root.sim

    @property
    def metrics(self) -> MetricsRegistry:
        return self.root.metrics

    @property
    def timelines(self) -> TimelineRegistry:
        return self.root.timelines

    @property
    def tracer(self) -> Optional[Tracer]:
        return self.root.tracer

    # -- metrics (key-prefixed) ---------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.root.count(self._scoped(key), n)

    def gauge(self, key: str, value) -> None:
        self.root.gauge(self._scoped(key), value)

    def observe(self, key: str, value, bounds=None) -> None:
        self.root.observe(self._scoped(key), value, bounds)

    # -- timelines (key-prefixed) --------------------------------------------

    def series_count(self, key: str, n: int = 1) -> None:
        self.root.series_count(self._scoped(key), n)

    def series_gauge(self, key: str, value) -> None:
        self.root.series_gauge(self._scoped(key), value)

    def series_observe(self, key: str, value) -> None:
        self.root.series_observe(self._scoped(key), value)

    def sample(self, component: str, name: str, value) -> None:
        self.root.sample(component, self._scoped(name), value)

    # -- spans (client-attributed, globally numbered) ------------------------

    def span_begin(
        self,
        component: str,
        name: str,
        parent: int = 0,
        ts: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        if not self.root.enabled:
            return 0
        return self.root.span_begin(
            component, name, parent=parent, ts=ts, client=self.client, **attrs
        )

    def span_end(self, span_id: int, ts: Optional[int] = None, **attrs: Any) -> None:
        self.root.span_end(span_id, ts=ts, **attrs)

    def span_point(
        self, component: str, name: str, parent: int = 0, **attrs: Any
    ) -> int:
        sid = self.span_begin(component, name, parent=parent, **attrs)
        self.span_end(sid)
        return sid

    # -- per-task syscall context (shared with the root) ---------------------

    def task_span(self) -> int:
        return self.root.task_span()

    def set_task_span(self, span_id: int) -> None:
        self.root.set_task_span(span_id)

    def clear_task_span(self) -> None:
        self.root.clear_task_span()

    def harvest_lock(self, lock, component: str = "bkl") -> None:
        self.root.harvest_lock(lock, component=self._prefix + component)


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
    each client stack a :class:`ScopedObservability` keyed by its host
    name, adding the client-id dimension without splitting the span
    tree.
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
        view = ScopedObservability(obs, stack.name) if scoped else obs
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
