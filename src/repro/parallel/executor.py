"""Parallel sweep execution.

Every sweep point (client variant x target x file size x configs) is a
fully independent simulated world, which makes the paper's 25-450 MB
sweeps embarrassingly parallel.  A :class:`JobSpec` captures one point
as a picklable value object; :func:`run_job` materialises the
:class:`~repro.bench.runner.TestBed`, runs the sequential-write
benchmark, and reduces the outcome to a :class:`PointResult` that
survives both pickling (process pools) and JSON (the result cache).

:class:`SweepExecutor` fans specs out over a
:class:`concurrent.futures.ProcessPoolExecutor`; with ``jobs=1`` it runs
them in-process, in order, with no pool at all — the two modes are
bit-identical because each job owns a pristine simulator.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..cache import ResultCache, fingerprint
from ..config import (
    ClientHwConfig,
    FilerConfig,
    LinuxServerConfig,
    LocalFsConfig,
    MountConfig,
    NetConfig,
    NfsClientConfig,
)
from ..errors import ConfigError
from ..units import throughput, to_mbps

__all__ = [
    "JobSpec",
    "PointResult",
    "run_job",
    "SweepExecutor",
    "default_jobs",
    "result_from_payload",
]


def default_jobs() -> int:
    """A sensible worker count: all cores, at least one."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class JobSpec:
    """One sweep point, expressed entirely as picklable configuration.

    ``client`` is a variant name (``"stock"``, ``"enhanced"``...) or an
    explicit :class:`~repro.config.NfsClientConfig`; ``None`` config
    fields take the :class:`~repro.bench.runner.TestBed` defaults.
    """

    target: str
    client: Union[str, NfsClientConfig]
    file_bytes: int
    chunk_bytes: int = 8192
    do_fsync: bool = True
    hw: Optional[ClientHwConfig] = None
    net: Optional[NetConfig] = None
    mount: Optional[MountConfig] = None
    filer_config: Optional[FilerConfig] = None
    linux_config: Optional[LinuxServerConfig] = None
    local_config: Optional[LocalFsConfig] = None
    time_limit_ns: Optional[int] = None

    def fingerprint(self, version: Optional[str] = None) -> str:
        """Content address of this point (see :mod:`repro.cache`)."""
        return fingerprint(self, version=version)


@dataclass
class PointResult:
    """The benchmark outcome of one :class:`JobSpec`, JSON-round-trippable."""

    file_bytes: int
    chunk_bytes: int
    write_elapsed_ns: int
    flush_elapsed_ns: int
    close_elapsed_ns: int
    #: Simulator callbacks dispatched for this point (events/sec telemetry).
    events_processed: int
    latency_starts_ns: List[int] = field(default_factory=list)
    latencies_ns: List[int] = field(default_factory=list)

    @property
    def write_mbps(self) -> float:
        """write()-calls-only throughput in MB/s (Figs. 1 and 7).

        Computed with the same :mod:`repro.units` helpers as
        :class:`~repro.bench.bonnie.BenchmarkResult`, so a cached or
        pooled point is bit-identical to an in-process one.
        """
        return to_mbps(throughput(self.file_bytes, self.write_elapsed_ns))

    @property
    def flush_mbps(self) -> float:
        return to_mbps(throughput(self.file_bytes, self.flush_elapsed_ns))

    @property
    def close_mbps(self) -> float:
        return to_mbps(throughput(self.file_bytes, self.close_elapsed_ns))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "file_bytes": self.file_bytes,
            "chunk_bytes": self.chunk_bytes,
            "write_elapsed_ns": self.write_elapsed_ns,
            "flush_elapsed_ns": self.flush_elapsed_ns,
            "close_elapsed_ns": self.close_elapsed_ns,
            "events_processed": self.events_processed,
            "latency_starts_ns": self.latency_starts_ns,
            "latencies_ns": self.latencies_ns,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PointResult":
        return cls(**payload)


def result_from_payload(payload: Dict[str, Any]):
    """Revive a cached result: a :class:`PointResult` row, or a fleet
    point's payload (``"__kind__": "fleet"``).

    Payloads without a ``__kind__`` marker are classic
    :class:`PointResult` rows — the cache format predating multi-kind
    sweeps is read unchanged.
    """
    kind = payload.get("__kind__", "point")
    if kind == "point":
        return PointResult.from_payload(payload)
    from ..topology.fleet import FleetPointResult

    if kind == FleetPointResult.PAYLOAD_KIND:
        return FleetPointResult.from_payload(payload)
    raise ConfigError(f"cached result has unknown kind {kind!r}")


def run_job(spec) -> Any:
    """Run one sweep point in a pristine world, reduce the result.

    Module-level so process-pool workers can unpickle a reference to it.
    A :class:`JobSpec` builds a single-client test bed; a
    :class:`~repro.topology.fleet.FleetJobSpec` runs a whole fleet.
    """
    if not isinstance(spec, JobSpec):
        from ..topology.fleet import FleetJobSpec, run_fleet_job

        if isinstance(spec, FleetJobSpec):
            return run_fleet_job(spec)
        raise ConfigError(f"unknown job spec type {type(spec).__name__}")
    from ..bench.runner import TestBed
    from ..topology.spec import ServerSpec

    server = ServerSpec.from_legacy(
        spec.target,
        filer_config=spec.filer_config,
        linux_config=spec.linux_config,
        local_config=spec.local_config,
    )
    # Legacy semantics: a custom client net (e.g. injected loss) also
    # applies to the server's switch port, except linux-100's fixed
    # fast Ethernet.
    if spec.net is not None and server.kind in ("netapp", "linux"):
        server = server.replace(net=spec.net)
    bed = TestBed(
        target=spec.target,
        client=spec.client,
        hw=spec.hw,
        net=spec.net,
        mount=spec.mount,
        server=server,
    )
    result = bed.run_sequential_write(
        spec.file_bytes,
        chunk_bytes=spec.chunk_bytes,
        do_fsync=spec.do_fsync,
        time_limit_ns=spec.time_limit_ns,
    )
    return PointResult(
        file_bytes=result.file_bytes,
        chunk_bytes=result.chunk_bytes,
        write_elapsed_ns=result.write_elapsed_ns,
        flush_elapsed_ns=result.flush_elapsed_ns,
        close_elapsed_ns=result.close_elapsed_ns,
        events_processed=bed.sim.events_processed,
        latency_starts_ns=result.trace.starts_ns,
        latencies_ns=result.trace.latencies_ns,
    )


class SweepExecutor:
    """Runs a batch of :class:`JobSpec` points, optionally cached.

    Results come back in spec order regardless of completion order, so
    ``jobs=1``, ``jobs=N`` and a warm cache all produce identical
    sweeps.  Cache lookups happen before any job is dispatched; only the
    misses reach the pool, and their results are stored on the way out.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache

    def map(self, specs: Iterable[Any]) -> List[Any]:
        """Execute every spec; returns results in the given order."""
        spec_list: List[Any] = list(specs)
        results: List[Optional[Any]] = [None] * len(spec_list)
        misses: List[int] = []
        keys: Dict[int, str] = {}

        if self.cache is not None:
            for i, spec in enumerate(spec_list):
                keys[i] = spec.fingerprint()
                payload = self.cache.get(keys[i])
                if payload is not None:
                    results[i] = result_from_payload(payload)
                else:
                    misses.append(i)
        else:
            misses = list(range(len(spec_list)))

        for i, outcome in zip(misses, self._execute([spec_list[i] for i in misses])):
            results[i] = outcome
            if self.cache is not None:
                self.cache.put(keys[i], outcome.to_payload())

        return results  # type: ignore[return-value]  # every slot is filled

    def _execute(self, specs: Sequence[Any]) -> List[Any]:
        if self.jobs == 1 or len(specs) <= 1:
            return [run_job(spec) for spec in specs]
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_job, specs))
