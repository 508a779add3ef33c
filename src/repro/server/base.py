"""Shared NFS server machinery.

Every server is a host with an RPC dispatcher and a FIFO *ingest
station* — the NIC + network stack + file-system path whose byte rate is
the server's sustained network write throughput (the paper measures
~38 MBps for the filer and ~26 MBps for the Linux box, §3.5).  Subclasses
decide where WRITE data lands (NVRAM vs page cache) and what COMMIT
costs.

A server can be *paused* (the filer does this during WAFL checkpoints):
requests keep arriving and queue, but nothing is serviced until the
pause lifts.
"""

from __future__ import annotations

from typing import Dict

from ..config import NetConfig
from ..errors import JukeboxError, ProtocolError
from ..net import Host, Switch
from ..nfs3 import (
    CommitArgs,
    CommitResult,
    CreateArgs,
    CreateResult,
    LookupArgs,
    LookupResult,
    ReadArgs,
    ReadResult,
    Stable,
    WriteArgs,
    WriteResult,
    commit_reply_size,
    read_reply_size,
    write_reply_size,
)
from ..obs.core import DISABLED
from ..rpc import RpcCall, RpcServer
from ..sim import Lock, Simulator, WaitQueue
from ..units import transfer_time

__all__ = ["NfsServerBase", "ServerFile", "NFS_PORT"]

NFS_PORT = 2049


class ServerFile:
    """Server-side file state."""

    __slots__ = (
        "fileid",
        "name",
        "size",
        "dirty_bytes",
        "stable_bytes",
        "change_id",
    )

    def __init__(self, fileid: int, name: str):
        self.fileid = fileid
        self.name = name
        self.size = 0
        #: Bytes accepted but not yet durable (page cache / NVRAM).
        self.dirty_bytes = 0
        #: Bytes durable on stable storage.
        self.stable_bytes = 0
        #: Bumped on every accepted WRITE (mtime stand-in).
        self.change_id = 0


class NfsServerBase:
    """Common dispatch, ingest station, files, pause support."""

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        net: NetConfig,
        name: str,
        ingest_bytes_per_sec: float,
        ncpus: int = 1,
        nthreads: int = 8,
    ):
        self.sim = sim
        self.name = name
        self.host = Host(sim, name, switch, net, ncpus=ncpus)
        self.ingest_bytes_per_sec = ingest_bytes_per_sec
        self._ingest_lock = Lock(sim, f"{name}-ingest")
        self._paused = False
        self._pause_waitq = WaitQueue(sim, f"{name}-pause")
        #: NFSv3 write verifier: changes across a restart, telling
        #: clients that uncommitted UNSTABLE data may have been lost.
        self.boot_verf = 1
        self._crashed = False
        #: Until this simulated time, WRITE/COMMIT answer NFS3ERR_JUKEBOX
        #: ("try again later") — fault injection for slow media recall.
        self._jukebox_until = 0
        self.jukebox_injected = 0
        self.files: Dict[int, ServerFile] = {}
        self._next_fileid = 1
        self.bytes_received = 0
        self.writes_handled = 0
        self.commits_handled = 0
        self.reads_handled = 0
        self.bytes_served = 0
        self.obs = DISABLED
        #: Cached timeline keys (per-server).
        self._ingest_series_key = f"server/{name}/ingest_bytes"
        self._busy_series_key = f"server/{name}/ingest_busy_ns"
        self.rpc = RpcServer(self.host, NFS_PORT, self.handle, nthreads, name=name)

    # -- pause (checkpoints, fault injection) --------------------------------

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._pause_waitq.wake_all()

    def _wait_unpaused(self):
        yield from self._pause_waitq.wait_until(lambda: not self._paused)

    # -- crash / restart (fault injection) -----------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self, lose_drc: bool = True) -> None:
        """Simulate a server crash: stop servicing and answering.

        Volatile state (page cache, in-progress requests, and — unless
        ``lose_drc`` is False — the duplicate-request cache) is lost via
        the :meth:`on_crash` hook.  Clients see silence and retransmit.
        """
        self._crashed = True
        self.pause()
        self.rpc.drop_incoming = True
        if lose_drc:
            self.rpc.clear_drc()
        self.on_crash()

    def restart(self) -> None:
        """Bring a crashed server back with a fresh write verifier."""
        if not self._crashed:
            return
        self._crashed = False
        self.rpc.drop_incoming = False
        # A reboot changes the verifier; clients comparing it against
        # the verf their UNSTABLE writes returned must rewrite.
        self.boot_verf += 1
        self.resume()

    def jukebox_window(self, duration_ns: int) -> None:
        """Answer WRITE/COMMIT with NFS3ERR_JUKEBOX for ``duration_ns``."""
        self._jukebox_until = max(self._jukebox_until, self.sim.now + duration_ns)

    def on_crash(self) -> None:
        """Subclass hook: discard whatever a power loss would destroy."""

    # -- ingest station ------------------------------------------------------

    def ingest_shares(self) -> Dict[str, float]:
        """Fraction of served request wire bytes per client host.

        The FIFO ingest station has no scheduler, so fairness between
        clients is emergent; this is the accounting multi-client
        topology reports audit.  Keys are sorted for determinism.
        """
        by_src = self.rpc.bytes_by_src
        total = sum(by_src.values())
        if not total:
            return {}
        return {src: by_src[src] / total for src in sorted(by_src)}

    def _ingest(self, nbytes: int):
        """Generator: FIFO service at the server's sustained byte rate."""
        yield self._ingest_lock.acquire()
        try:
            yield from self._wait_unpaused()
            busy_ns = transfer_time(nbytes, self.ingest_bytes_per_sec)
            yield self.sim.timeout(busy_ns)
            if self.obs.enabled:
                # Per-window busy time: window_bytes/window_ns is the
                # ingest-utilization timeline the SLO reports attribute to.
                self.obs.series_count(self._busy_series_key, busy_ns)
        finally:
            self._ingest_lock.release()

    # -- dispatch -------------------------------------------------------------

    def handle(self, call: RpcCall):
        """Generator: RPC program handler; returns (result, reply_size)."""
        if self.obs.enabled:
            self.obs.count(f"server/ops/{call.proc}")
        if call.proc in ("WRITE", "COMMIT") and self.sim.now < self._jukebox_until:
            self.jukebox_injected += 1
            if self.obs.enabled:
                self.obs.count("server/jukebox_injected")
            raise JukeboxError(
                f"{self.name}: {call.proc} deferred, media being recalled"
            )
        if call.proc == "WRITE":
            return (yield from self._handle_write(call.args, call.size))
        if call.proc == "READ":
            return (yield from self._handle_read(call.args, call.size))
        if call.proc == "COMMIT":
            return (yield from self._handle_commit(call.args, call.size))
        if call.proc == "CREATE":
            return (yield from self._handle_create(call.args, call.size))
        if call.proc == "LOOKUP":
            return (yield from self._handle_lookup(call.args, call.size))
        raise ProtocolError(f"{self.name}: unknown procedure {call.proc!r}")

    def _handle_write(self, args: WriteArgs, wire_size: int):
        file = self._file(args.fileid)
        yield from self._ingest(wire_size)
        committed = yield from self.store_write(file, args)
        self.bytes_received += args.count
        self.writes_handled += 1
        if self.obs.enabled:
            self.obs.count("server/bytes_received", args.count)
            self.obs.series_count(self._ingest_series_key, args.count)
        file.change_id += 1
        end = args.offset + args.count
        if end > file.size:
            file.size = end
        return (
            WriteResult(
                count=args.count,
                committed=committed,
                change_id=file.change_id,
                verf=self.boot_verf,
            ),
            write_reply_size(),
        )

    def _handle_read(self, args: ReadArgs, wire_size: int):
        file = self._file(args.fileid)
        available = max(0, file.size - args.offset)
        count = min(args.count, available)
        eof = args.offset + count >= file.size
        if count == 0:
            yield from self._ingest(wire_size)
            return ReadResult(count=0, eof=True), read_reply_size(0)
        yield from self.read_media(file, args.offset, count)
        # Egress shares the same NIC/stack path as ingest.
        yield from self._ingest(read_reply_size(count))
        self.reads_handled += 1
        self.bytes_served += count
        return ReadResult(count=count, eof=eof), read_reply_size(count)

    def _handle_commit(self, args: CommitArgs, wire_size: int):
        file = self._file(args.fileid)
        yield from self._ingest(wire_size)
        yield from self.do_commit(file)
        self.commits_handled += 1
        return CommitResult(verf=self.boot_verf), commit_reply_size()

    def _handle_create(self, args: CreateArgs, wire_size: int):
        yield from self._ingest(wire_size)
        file = ServerFile(self._next_fileid, args.name)
        self._next_fileid += 1
        self.files[file.fileid] = file
        return CreateResult(fileid=file.fileid), 160

    def _handle_lookup(self, args: LookupArgs, wire_size: int):
        yield from self._ingest(wire_size)
        for file in self.files.values():
            if file.name == args.name:
                return (
                    LookupResult(
                        fileid=file.fileid,
                        size=file.size,
                        change_id=file.change_id,
                    ),
                    160,
                )
        raise ProtocolError(f"{self.name}: no such file {args.name!r}")

    def _file(self, fileid: int) -> ServerFile:
        try:
            return self.files[fileid]
        except KeyError:
            raise ProtocolError(f"{self.name}: stale file handle {fileid}") from None

    # -- subclass hooks ------------------------------------------------------------

    def store_write(self, file: ServerFile, args: WriteArgs):
        """Generator: land the data; returns the committed Stable level."""
        raise NotImplementedError  # pragma: no cover

    def do_commit(self, file: ServerFile):
        """Generator: make the file's accepted data durable."""
        raise NotImplementedError  # pragma: no cover

    def read_media(self, file: ServerFile, offset: int, count: int):
        """Generator: media cost of serving a READ (default: cached)."""
        return
        yield  # pragma: no cover - generator marker
