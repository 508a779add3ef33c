"""The paper's benchmark: Bonnie's block-sequential-write test, refined.

Writes fixed-size chunks (8 KB, Bonnie's block size) into a fresh file,
then flushes, then closes.  Per §2.3 it reports **three** cumulative
throughput figures — writes only, through the flush, and through the
close — because NFS flushes completely before last close while local
file systems may not; and it records actual per-call latency, the
paper's key diagnostic.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError
from ..kernel.syscalls import SyscallLayer
from ..kernel.vfs import VfsFile
from ..units import throughput, to_mbps
from .latency import LatencyTrace

__all__ = ["BenchmarkResult", "SequentialWriteBenchmark"]


class BenchmarkResult:
    """Cumulative timings and the latency trace of one run.

    ``write_elapsed_ns`` runs from the benchmark's start until after
    the last write(), ``flush_elapsed_ns`` until after the fsync()
    (equal to it when skipped), ``close_elapsed_ns`` until after the
    close().
    """

    __slots__ = (
        "file_bytes",
        "chunk_bytes",
        "write_elapsed_ns",
        "flush_elapsed_ns",
        "close_elapsed_ns",
        "trace",
    )

    def __init__(
        self,
        file_bytes: int,
        chunk_bytes: int,
        write_elapsed_ns: int = 0,
        flush_elapsed_ns: int = 0,
        close_elapsed_ns: int = 0,
        trace: Optional[LatencyTrace] = None,
    ):
        self.file_bytes = file_bytes
        self.chunk_bytes = chunk_bytes
        self.write_elapsed_ns = write_elapsed_ns
        self.flush_elapsed_ns = flush_elapsed_ns
        self.close_elapsed_ns = close_elapsed_ns
        self.trace = LatencyTrace() if trace is None else trace

    @property
    def write_throughput(self) -> float:
        """Bytes/second counting write() calls only (Figs. 1 and 7)."""
        return throughput(self.file_bytes, self.write_elapsed_ns)

    @property
    def flush_throughput(self) -> float:
        return throughput(self.file_bytes, self.flush_elapsed_ns)

    @property
    def close_throughput(self) -> float:
        return throughput(self.file_bytes, self.close_elapsed_ns)

    @property
    def write_mbps(self) -> float:
        return to_mbps(self.write_throughput)

    @property
    def flush_mbps(self) -> float:
        return to_mbps(self.flush_throughput)

    @property
    def close_mbps(self) -> float:
        return to_mbps(self.close_throughput)

    def summary(self) -> str:
        return (
            f"{self.file_bytes / 1e6:.0f} MB in {self.chunk_bytes} B chunks: "
            f"write {self.write_mbps:.1f} MBps, "
            f"flush {self.flush_mbps:.1f} MBps, "
            f"close {self.close_mbps:.1f} MBps "
            f"({len(self.trace)} calls)"
        )


class SequentialWriteBenchmark:
    """Drives a file through the syscall layer and measures."""

    def __init__(
        self,
        syscalls: SyscallLayer,
        chunk_bytes: int = 8192,
        do_fsync: bool = True,
    ):
        if chunk_bytes <= 0:
            raise ConfigError("chunk_bytes must be positive")
        self.syscalls = syscalls
        self.chunk_bytes = chunk_bytes
        self.do_fsync = do_fsync

    def run(self, file: VfsFile, file_bytes: int):
        """Generator: the benchmark body.  Returns a BenchmarkResult."""
        if file_bytes <= 0:
            raise ConfigError("file_bytes must be positive")
        sim = self.syscalls.host.sim
        result = BenchmarkResult(file_bytes=file_bytes, chunk_bytes=self.chunk_bytes)
        trace = result.trace
        previous_sink = self.syscalls.latency_sink
        self.syscalls.latency_sink = trace
        start = sim.now
        try:
            remaining = file_bytes
            while remaining > 0:
                chunk = min(self.chunk_bytes, remaining)
                yield from self.syscalls.write(file, chunk)
                remaining -= chunk
            result.write_elapsed_ns = sim.now - start
            if self.do_fsync:
                yield from self.syscalls.fsync(file)
            result.flush_elapsed_ns = sim.now - start
            yield from self.syscalls.close(file)
            result.close_elapsed_ns = sim.now - start
        finally:
            self.syscalls.latency_sink = previous_sink
        return result
