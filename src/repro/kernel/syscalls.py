"""System-call layer with the benchmark's measurement point.

Wraps file operations with entry/exit overhead and per-call wall-clock
latency recording — the paper measures ``write()`` latency "on either
side of a target section of code" with ``do_gettimeofday()`` (§3.3);
when instrumentation is enabled we charge its (small) cost too.
"""

from __future__ import annotations

from typing import Optional

from ..errors import EioError, SimulationError
from ..net.host import Host
from ..obs.core import DISABLED
from .vfs import VfsFile, generic_file_read, generic_file_write

__all__ = ["SyscallLayer"]

#: Syscall-latency histogram bounds, in microseconds.
LATENCY_BUCKETS_US = (50, 100, 200, 500, 1_000, 2_000, 5_000, 20_000, 100_000, 1_000_000)


class SyscallLayer:
    """write()/fsync()/close() entry points for one process."""

    def __init__(
        self,
        host: Host,
        instrument: bool = True,
        latency_sink=None,
    ):
        self.host = host
        self.instrument = instrument
        #: Object with ``record(start_ns, end_ns)``; usually a
        #: :class:`repro.bench.latency.LatencyTrace`.
        self.latency_sink = latency_sink
        #: Observability sink; root spans are minted here (repro.obs).
        self.obs = DISABLED
        self.write_calls = 0
        self.bytes_written = 0
        self.read_calls = 0
        self.bytes_read = 0
        #: Calls that returned EIO (soft-mount major timeouts surfacing).
        self.eio_errors = 0

    def write(self, file: VfsFile, nbytes: int):
        """Generator: one ``write(fd, buf, nbytes)`` call.

        Raises :class:`EioError` when a soft mount gave up on the file's
        write-back (the error latched by an earlier failed async WRITE).
        """
        self._check_open(file, "write")
        start = self.host.sim.now
        span = self._span_enter("write", nbytes=nbytes)
        yield from self._enter()
        try:
            written = yield from generic_file_write(self.host, file, nbytes)
        except EioError:
            yield from self._fail(start, span)
            raise
        yield from self._exit()
        self.write_calls += 1
        self.bytes_written += written
        self._record(start)
        obs = self.obs
        if obs.enabled:
            obs.count("syscall/write_calls")
            obs.count("syscall/write_bytes", written)
            latency_us = (self.host.sim.now - start) // 1000
            obs.observe("syscall/write_latency_us", latency_us, LATENCY_BUCKETS_US)
            obs.series_count("syscall/write_bytes", written)
            obs.series_observe("syscall/write_latency_us", latency_us)
            self._span_exit(span)
        return written

    def read(self, file: VfsFile, nbytes: int):
        """Generator: one ``read(fd, buf, nbytes)`` call."""
        self._check_open(file, "read")
        start = self.host.sim.now
        span = self._span_enter("read", nbytes=nbytes)
        yield from self._enter()
        try:
            nread = yield from generic_file_read(self.host, file, nbytes)
        except EioError:
            yield from self._fail(start, span)
            raise
        yield from self._exit()
        self.read_calls += 1
        self.bytes_read += nread
        self._record(start)
        obs = self.obs
        if obs.enabled:
            obs.count("syscall/read_calls")
            obs.count("syscall/read_bytes", nread)
            self._span_exit(span)
        return nread

    def fsync(self, file: VfsFile):
        """Generator: one ``fsync(fd)`` call."""
        self._check_open(file, "fsync")
        start = self.host.sim.now
        span = self._span_enter("fsync")
        yield from self._enter()
        try:
            yield from file.fsync()
        except EioError:
            yield from self._fail(start, span)
            raise
        yield from self._exit()
        obs = self.obs
        if obs.enabled:
            obs.count("syscall/fsync_calls")
            self._span_exit(span)

    def close(self, file: VfsFile):
        """Generator: final ``close(fd)``.

        EIO from the final flush still closes the descriptor — exactly
        the trap close-to-open consistency sets for applications that
        don't check close()'s return value.
        """
        self._check_open(file, "close")
        start = self.host.sim.now
        span = self._span_enter("close")
        yield from self._enter()
        try:
            yield from file.release()
        except EioError:
            file.closed = True
            yield from self._fail(start, span)
            raise
        file.closed = True
        yield from self._exit()
        obs = self.obs
        if obs.enabled:
            obs.count("syscall/close_calls")
            self._span_exit(span)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _check_open(file: VfsFile, op: str) -> None:
        if file.closed:
            raise SimulationError(f"{op}() on closed file {file.name!r} (EBADF)")

    def _enter(self):
        half = self.host.costs.syscall_overhead // 2
        yield self.host.cpus.execute(half, label="syscall_entry")

    def _exit(self):
        costs = self.host.costs
        tail = costs.syscall_overhead - costs.syscall_overhead // 2
        if self.instrument:
            tail += costs.instrumentation
        yield self.host.cpus.execute(tail, label="syscall_exit")

    def _fail(self, start: int, span: int = 0):
        """Generator: error return path — exit cost, EIO accounting."""
        self.eio_errors += 1
        yield from self._exit()
        self._record(start)
        obs = self.obs
        if obs.enabled:
            obs.count("syscall/eio_errors")
            self._span_exit(span, error="EIO")

    def _record(self, start: int) -> None:
        if self.latency_sink is not None:
            self.latency_sink.record(start, self.host.sim.now)

    def _span_enter(self, name: str, **attrs) -> int:
        """Mint the root span for one syscall and make it the task span."""
        obs = self.obs
        if not obs.enabled:
            return 0
        span = obs.span_begin("syscall", name, **attrs)
        obs.set_task_span(span)
        return span

    def _span_exit(self, span: int, **attrs) -> None:
        obs = self.obs
        if obs.enabled:
            obs.clear_task_span()
            obs.span_end(span, **attrs)
