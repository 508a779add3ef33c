"""The unified Workload protocol, registry, and workload drivers.

The paper's benchmark is deliberately simple (§2.3); this module
extends it to the scenarios the paper motivates or speculates about —
and, since PR 10, provides the *single* entry point every driver in the
repo goes through: a :class:`Workload` is a named, parameterised
generator body that runs on one client stack (a
:class:`~repro.topology.build.ClientStack` or a duck-typed
:class:`TestBed`) and reports per-op latency and bytes into the
observability timelines.

Closed-loop benchmarks (:class:`~repro.topology.fleet.FleetWorkload`),
the promoted example workloads (``examples/*.py`` are thin wrappers
now), and the open-loop traffic sessions of :mod:`repro.traffic` all
implement the same protocol, replacing the four parallel entry points
that predated it (free-function drivers, ``FleetWorkload``'s hardwired
writer, a ``Topology`` sequential-write method, and copy-pasted example
bodies).  :func:`run_workload` remains for ad-hoc generators that are
not registered workloads.

A workload body is a generator that returns ``(start_ns, end_ns,
result)``.  ``Workload.row`` reduces one finished body to the JSON-able
per-client dict that fleet results, the sweep cache, and run
fingerprints are built from.

All randomness inside workload bodies comes from named
:class:`~repro.sim.RngStreams` streams keyed by the client's name, so
fleets stay bit-reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from ..errors import ConfigError
from ..obs.core import DISABLED
from ..sim import AllOf, RngStreams
from ..units import KIB, MB, PAGE_SIZE, throughput, to_us
from .bonnie import SequentialWriteBenchmark
from .latency import LatencyTrace
from .runner import TestBed

__all__ = [
    "Workload",
    "WorkloadOutcome",
    "register_workload",
    "get_workload",
    "workload_names",
    "workload_type",
    "client_workload_body",
    "run_client_workload",
    "trace_sha",
    "workload_row",
    "run_workload",
]


#: Sentinel for parameters a workload cannot default.
_REQUIRED = object()


def _client_name(stack) -> str:
    """The stack's client name; TestBeds duck-type as ``"client"``."""
    return getattr(stack, "name", "client")


def _obs(stack):
    """The stack's observer, or the disabled singleton."""
    return getattr(stack, "obs", None) or DISABLED


def trace_sha(latencies_ns) -> str:
    """Checksum of a latency series — the per-client fingerprint leaf."""
    blob = ",".join(map(str, latencies_ns))
    return hashlib.sha256(blob.encode()).hexdigest()


class WorkloadOutcome:
    """The reduced outcome of one generic workload body.

    ``extra`` carries deterministic, JSON-able workload-specific
    figures (they enter the run fingerprint through the row).
    """

    __slots__ = ("workload", "bytes_written", "ops", "trace", "extra")

    def __init__(
        self,
        workload: str,
        bytes_written: int = 0,
        ops: int = 0,
        trace: Optional[LatencyTrace] = None,
        extra: Optional[Dict[str, Any]] = None,
    ):
        self.workload = workload
        self.bytes_written = bytes_written
        self.ops = ops
        self.trace = LatencyTrace() if trace is None else trace
        self.extra = {} if extra is None else extra


def workload_row(
    name: str, start_ns: int, end_ns: int, outcome: WorkloadOutcome
) -> Dict[str, Any]:
    """One client's reduced row for a generic workload outcome.

    Keeps the aggregate-facing keys of the sequential-write row
    (``file_bytes``, ``write_elapsed_ns``, ``p99_ns``...) so
    :class:`~repro.topology.fleet.FleetPointResult` fairness and
    throughput properties work unchanged on mixed fleets.
    """
    return {
        "name": name,
        "workload": outcome.workload,
        "file_bytes": outcome.bytes_written,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "write_elapsed_ns": end_ns - start_ns,
        "p99_ns": outcome.trace.percentile_ns(99) if len(outcome.trace) else 0,
        "calls": len(outcome.trace),
        "ops": outcome.ops,
        "trace_sha": trace_sha(outcome.trace.latencies_ns),
        "extra": {k: outcome.extra[k] for k in sorted(outcome.extra)},
    }


class Workload:
    """One named, parameterised client workload.

    Subclasses set :attr:`name` (the registry key) and :attr:`PARAMS`
    (defaults; ``REQUIRED`` marks parameters a caller must supply) and
    implement :meth:`body`.  Bodies must draw randomness only from
    named seeded streams and may report per-op telemetry through the
    stack's observer — recording is passive, so an observed run stays
    bit-identical to an unobserved one.
    """

    #: Registry key, e.g. ``"sequential-write"``.
    name: ClassVar[str] = ""
    #: Parameter defaults; :data:`REQUIRED` marks mandatory ones.
    PARAMS: ClassVar[Dict[str, Any]] = {}
    #: Exposed so subclasses (and specs) can mark mandatory params.
    REQUIRED: ClassVar[object] = _REQUIRED

    def __init__(self, **params: Any):
        unknown = sorted(set(params) - set(self.PARAMS))
        if unknown:
            raise ConfigError(
                f"workload {self.name!r} does not take "
                f"{', '.join(map(repr, unknown))} "
                f"(expected a subset of {sorted(self.PARAMS)})"
            )
        merged = dict(self.PARAMS)
        merged.update(params)
        missing = sorted(k for k, v in merged.items() if v is _REQUIRED)
        if missing:
            raise ConfigError(
                f"workload {self.name!r} needs {', '.join(map(repr, missing))}"
            )
        self.params: Dict[str, Any] = merged

    def body(self, stack):
        """Generator returning ``(start_ns, end_ns, result)``."""
        raise NotImplementedError

    def offered_bytes(self) -> int:
        """Nominal bytes this instance will write — what an open-loop
        arrival *offers* the system at session start, before any
        admission or completion.  Zero when the workload cannot know
        up front."""
        return int(self.params.get("file_bytes") or 0)

    def row(self, name: str, start_ns: int, end_ns: int, result) -> Dict[str, Any]:
        """Reduce one finished body to the per-client result row."""
        return workload_row(name, start_ns, end_ns, result)


#: The registry: workload name -> Workload subclass.
_REGISTRY: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator: add a Workload subclass to the registry."""
    if not cls.name:
        raise ConfigError(f"{cls.__name__} needs a non-empty name")
    if cls.name in _REGISTRY:
        raise ConfigError(f"workload {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def workload_names() -> List[str]:
    return sorted(_REGISTRY)


def workload_type(name: str) -> Type[Workload]:
    """The registered class for ``name`` (ConfigError when unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r} (expected one of {workload_names()})"
        ) from None


def get_workload(name: str, params: Optional[Dict[str, Any]] = None) -> Workload:
    """Instantiate a registered workload with validated parameters."""
    return workload_type(name)(**(params or {}))


def client_workload_body(stack, workload: Workload, offset_ns: int = 0):
    """The canonical per-client driver generator.

    Module-level so fleets and single-bed runs execute the *same*
    generator — byte for byte — around any workload:
    an optional staggered start, then the workload body.
    """
    sim = stack.sim
    if offset_ns > 0:
        yield sim.timeout(offset_ns)
    return (yield from workload.body(stack))


def run_client_workload(
    topology,
    workload: Workload,
    client: int = 0,
    time_limit_ns: Optional[int] = None,
    task_name: str = "benchmark",
):
    """Run one workload on one topology client to completion (blocking).

    Returns the ``(start_ns, end_ns, result)`` triple.  This is the
    blocking single-client path ``Topology.run_workload`` and
    ``TestBed.run_sequential_write`` delegate to.
    """
    stack = topology.clients[client]
    task = topology.sim.spawn(
        client_workload_body(stack, workload), name=task_name, daemon=True
    )
    topology.sim.run_until_done([task], limit=time_limit_ns)
    if not task.done:
        raise ConfigError(f"{workload.name} did not finish; simulation wedged?")
    if task.error is not None:
        raise task.error
    if stack.profiler is not None:
        stack.profiler.stop()
    return task.result


# -- registered workloads ------------------------------------------------------


@register_workload
class SequentialWriteWorkload(Workload):
    """The paper's benchmark (§2.3): stream one file, then flush.

    ``file_name=None`` derives ``<client>-file`` (the fleet convention);
    ``"testfile"`` is the historical single-bed name.  The body is the
    exact generator the fleet engine always ran — per-op latency flows
    through the benchmark's trace and the syscall layer's timelines.
    """

    name = "sequential-write"
    PARAMS = {
        "file_bytes": _REQUIRED,
        "chunk_bytes": 8192,
        "do_fsync": True,
        "file_name": None,
    }

    def body(self, stack):
        sim = stack.sim
        bench = SequentialWriteBenchmark(
            stack.syscalls,
            chunk_bytes=self.params["chunk_bytes"],
            do_fsync=self.params["do_fsync"],
        )
        start = sim.now
        file_name = self.params["file_name"]
        if file_name is None:
            file_name = f"{_client_name(stack)}-file"
        file = yield from stack.open_file(file_name)
        result = yield from bench.run(file, self.params["file_bytes"])
        return (start, sim.now, result)

    def row(self, name, start_ns, end_ns, result):
        # The historical fleet row, bit-for-bit: PR 5/6 fingerprints
        # and the scenarios/ corpus replay depend on this shape.
        from ..topology.fleet import client_row

        return client_row(name, start_ns, end_ns, result)


@register_workload
class DatabaseFsyncWorkload(Workload):
    """Transaction log: append + fsync per commit (§3.6 permanence).

    The promoted body of ``examples/database_fsync.py`` — commit
    latency is the figure of merit, reported per-op into the
    ``workload/commit_latency_us`` timeline.
    """

    name = "database-fsync"
    PARAMS = {
        "transactions": 400,
        "record_bytes": PAGE_SIZE,
        "file_name": "txlog",
    }

    def offered_bytes(self) -> int:
        return self.params["transactions"] * self.params["record_bytes"]

    def body(self, stack):
        sim = stack.sim
        obs = _obs(stack)
        trace = LatencyTrace()
        start = sim.now
        file = yield from stack.open_file(self.params["file_name"])
        record_bytes = self.params["record_bytes"]
        for _tx in range(self.params["transactions"]):
            yield from stack.syscalls.write(file, record_bytes)
            commit_start = sim.now
            yield from stack.syscalls.fsync(file)
            trace.record(commit_start, sim.now)
            obs.series_observe(
                "workload/commit_latency_us", to_us(sim.now - commit_start)
            )
            obs.series_count("workload/op_bytes", record_bytes)
        yield from stack.syscalls.close(file)
        outcome = WorkloadOutcome(
            workload=self.name,
            bytes_written=self.params["transactions"] * record_bytes,
            ops=self.params["transactions"],
            trace=trace,
            extra={
                "commits_sent": (
                    stack.nfs.stats.commits_sent if stack.nfs is not None else 0
                ),
            },
        )
        return (start, sim.now, outcome)


@register_workload
class MailSpoolWorkload(Workload):
    """Mail spool: many small files, each fsynced before delivery.

    The promoted body of ``examples/mail_spool.py``: ``concurrency``
    delivery agents drain a queue of messages with sizes drawn from the
    ``<client>/mail-sizes`` stream, fsync-then-close per message.
    """

    name = "mail-spool"
    PARAMS = {
        "messages": 150,
        "concurrency": 4,
        "min_bytes": 2 * KIB,
        "max_bytes": 64 * KIB,
        "chunk_bytes": 8192,
        "seed": 2,
        "file_prefix": "spool/msg",
    }

    def offered_bytes(self) -> int:
        # The expectation of a uniform size draw.
        mid = (self.params["min_bytes"] + self.params["max_bytes"]) // 2
        return self.params["messages"] * mid

    def body(self, stack):
        sim = stack.sim
        obs = _obs(stack)
        name = _client_name(stack)
        rng = RngStreams(self.params["seed"]).stream(f"{name}/mail-sizes")
        sizes = [
            rng.randrange(self.params["min_bytes"], self.params["max_bytes"])
            for _ in range(self.params["messages"])
        ]
        queue = list(enumerate(sizes))
        trace = LatencyTrace()
        chunk_bytes = self.params["chunk_bytes"]
        prefix = self.params["file_prefix"]
        delivered = []

        def agent():
            while queue:
                msg_id, size = queue.pop(0)
                msg_start = sim.now
                file = yield from stack.open_file(f"{prefix}{msg_id}")
                remaining = size
                while remaining > 0:
                    chunk = min(chunk_bytes, remaining)
                    yield from stack.syscalls.write(file, chunk)
                    remaining -= chunk
                yield from stack.syscalls.fsync(file)  # SMTP must not lie
                yield from stack.syscalls.close(file)
                trace.record(msg_start, sim.now)
                obs.series_observe(
                    "workload/delivery_latency_us", to_us(sim.now - msg_start)
                )
                obs.series_count("workload/op_bytes", size)
                delivered.append(msg_id)

        start = sim.now
        tasks = [
            sim.spawn(agent(), name=f"{name}-agent{i}", daemon=True)
            for i in range(self.params["concurrency"])
        ]
        yield AllOf(tasks)
        outcome = WorkloadOutcome(
            workload=self.name,
            bytes_written=sum(sizes),
            ops=len(delivered),
            trace=trace,
        )
        return (start, sim.now, outcome)


@register_workload
class ReadVsWriteWorkload(Workload):
    """Write vs warm-read vs cold-read throughput (§2.3's rationale).

    The promoted body of ``examples/read_vs_write.py``: write and flush
    a file, read it back warm (page cache) and cold (evicted, so the
    read-ahead pipeline pays the wire), reporting the four throughputs.
    NFS targets only — the cold phase needs an evictable remote file.
    """

    name = "read-vs-write"
    PARAMS = {
        "file_bytes": 8 * MB,
        "chunk_bytes": 8192,
        "file_name": "f",
    }

    def body(self, stack):
        if stack.nfs is None:
            raise ConfigError("read-vs-write needs an NFS target")
        sim = stack.sim
        obs = _obs(stack)
        file_bytes = self.params["file_bytes"]
        chunk_bytes = self.params["chunk_bytes"]
        trace = LatencyTrace()
        out: Dict[str, Any] = {}

        start = sim.now
        file = yield from stack.nfs.open_new(self.params["file_name"])
        remaining = file_bytes
        while remaining:
            chunk = min(chunk_bytes, remaining)
            op_start = sim.now
            yield from stack.syscalls.write(file, chunk)
            trace.record(op_start, sim.now)
            obs.series_count("workload/op_bytes", chunk)
            remaining -= chunk
        out["write_bps"] = throughput(file_bytes, sim.now - start)
        yield from stack.syscalls.fsync(file)
        out["flush_bps"] = throughput(file_bytes, sim.now - start)

        # Warm read: everything still in the client page cache.
        file.pos = 0
        phase = sim.now
        while (yield from stack.syscalls.read(file, chunk_bytes)):
            pass
        out["warm_read_bps"] = throughput(file_bytes, sim.now - phase)

        # Cold read: evict, fetch over the wire with read-ahead.
        file.cached_pages.clear()
        file.pos = 0
        phase = sim.now
        while (yield from stack.syscalls.read(file, chunk_bytes)):
            pass
        out["cold_read_bps"] = throughput(file_bytes, sim.now - phase)
        out["read_rpcs"] = stack.nfs.stats.reads_sent

        outcome = WorkloadOutcome(
            workload=self.name,
            bytes_written=file_bytes,
            ops=len(trace),
            trace=trace,
            extra={k: round(v, 6) if isinstance(v, float) else v
                   for k, v in out.items()},
        )
        return (start, sim.now, outcome)


@register_workload
class RandomWriteWorkload(Workload):
    """Page-aligned random-offset writes within a fixed extent.

    The future-work "database ... corner cases" driver, on the
    ``<client>/random-writer`` stream.
    """

    name = "random-write"
    PARAMS = {
        "file_bytes": _REQUIRED,
        "writes": _REQUIRED,
        "chunk_bytes": 8192,
        "seed": 1,
        "file_name": "random",
    }

    def offered_bytes(self) -> int:
        return self.params["writes"] * self.params["chunk_bytes"]

    def body(self, stack):
        sim = stack.sim
        obs = _obs(stack)
        name = _client_name(stack)
        rng = RngStreams(self.params["seed"]).stream(f"{name}/random-writer")
        npages = max(1, self.params["file_bytes"] // PAGE_SIZE)
        chunk_bytes = self.params["chunk_bytes"]
        trace = LatencyTrace()
        start = sim.now
        file = yield from stack.open_file(self.params["file_name"])
        for _ in range(self.params["writes"]):
            file.pos = rng.randrange(npages) * PAGE_SIZE
            op_start = sim.now
            yield from stack.syscalls.write(file, chunk_bytes)
            trace.record(op_start, sim.now)
            obs.series_observe(
                "workload/op_latency_us", to_us(sim.now - op_start)
            )
            obs.series_count("workload/op_bytes", chunk_bytes)
        yield from stack.syscalls.close(file)
        outcome = WorkloadOutcome(
            workload=self.name,
            bytes_written=self.params["writes"] * chunk_bytes,
            ops=self.params["writes"],
            trace=trace,
        )
        return (start, sim.now, outcome)


# -- ad-hoc generators ---------------------------------------------------------


def run_workload(bed: TestBed, tasks, time_limit_ns: Optional[int] = None):
    """Run workload generator(s) to completion on a test bed.

    ``tasks`` is a list of (name, generator) pairs; returns when all
    have finished, re-raising the first failure.
    """
    spawned = [bed.sim.spawn(gen, name=name, daemon=True) for name, gen in tasks]
    bed.sim.run_until_done(spawned, limit=time_limit_ns)
    for task in spawned:
        if not task.done:
            raise ConfigError(f"workload task {task.name!r} did not finish")
        if task.error is not None:
            raise task.error
    return spawned
