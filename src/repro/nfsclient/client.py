"""The NFS client facade: wiring, RPC generation, completion paths.

One :class:`NfsClient` models one NFSv3 mount on the client machine:
the Big Kernel Lock, the request index (stock list or the paper's hash
table), the flush policy, ``nfs_flushd``, and the RPC transport with its
rpciod.  The behavioural switches of
:class:`repro.config.NfsClientConfig` select the paper's client variants
(see :mod:`repro.nfsclient.variants`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..config import MountConfig, NfsClientConfig
from ..errors import ProtocolError
from ..kernel.bkl import BigKernelLock, SendUnlockedPolicy, StockLockPolicy
from ..kernel.pagecache import PageCache
from ..net.host import Host
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
    commit_call_size,
    read_call_size,
    write_call_size,
)
from ..obs.core import DISABLED
from ..rpc import RpcCall, UdpTransport
from ..sim import PRIO_KERNEL, Event, WaitQueue
from ..units import PAGE_SIZE
from .coalesce import group_extent, observe_group
from .file import NfsFile
from .flush import LazyFlushPolicy, StockFlushPolicy
from .flushd import NfsFlushd
from .inode import NfsInode
from .request import NfsPageRequest
from .request_hash import HashTableIndex
from .request_list import SortedListIndex
from .writepath import WritePath

__all__ = ["NfsClient", "NfsClientStats"]

NFS_PORT = 2049


class NfsClientStats:
    """Counters experiments and tests assert on."""

    __slots__ = (
        "writes_sent",
        "bytes_sent",
        "commits_sent",
        "reads_sent",
        "bytes_fetched",
        "soft_flushes",
        "hard_sleeps",
        "explicit_flushes",
        "coalesced_updates",
        "page_waits",
        "bytes_acked_stable",
        "commit_verf_mismatches",
        "write_failures",
        "commit_failures",
        "read_failures",
    )

    def __init__(self) -> None:
        self.writes_sent = 0
        self.bytes_sent = 0
        self.commits_sent = 0
        self.reads_sent = 0
        self.bytes_fetched = 0
        self.soft_flushes = 0
        self.hard_sleeps = 0
        self.explicit_flushes = 0
        self.coalesced_updates = 0
        self.page_waits = 0
        #: Bytes the server has acknowledged as durable (FILE_SYNC write
        #: or a verf-matching COMMIT) — the "no acknowledged-stable data
        #: lost" invariant audits this against server state.
        self.bytes_acked_stable = 0
        #: COMMIT replies whose verifier didn't match the writes' — the
        #: server rebooted, and the affected pages were re-dirtied.
        self.commit_verf_mismatches = 0
        #: WRITE RPCs failed by the transport (soft-mount major timeout).
        self.write_failures = 0
        self.commit_failures = 0
        self.read_failures = 0


class NfsClient:
    """One NFSv3 mount."""

    def __init__(
        self,
        host: Host,
        pagecache: PageCache,
        server: str,
        mount: Optional[MountConfig] = None,
        behavior: Optional[NfsClientConfig] = None,
        server_port: int = NFS_PORT,
        client_port: int = 700,
        bkl: Optional[BigKernelLock] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.pagecache = pagecache
        self.mount = mount or MountConfig()
        self.behavior = behavior or NfsClientConfig()
        # The BKL is kernel-wide: mounts on the same machine must share
        # one (pass it in), which is exactly why the paper's future work
        # wants the RPC layer off the global lock (§3.5).
        self.bkl = bkl or BigKernelLock(self.sim)
        if self.behavior.release_bkl_for_send:
            lock_policy = SendUnlockedPolicy(self.bkl)
        else:
            lock_policy = StockLockPolicy(self.bkl)
        self.xprt = UdpTransport(
            host,
            host.udp.socket(client_port),
            server,
            server_port,
            slots=self.behavior.rpc_slots,
            timeo_ns=self.mount.timeo_ns,
            lock_policy=lock_policy,
            name=f"{host.name}-xprt",
            retrans=self.mount.retrans,
            soft=self.mount.soft,
            adaptive_timeo=self.mount.adaptive_timeo,
            jukebox_delay_ns=self.mount.jukebox_delay_ns,
        )
        costs = host.costs
        if self.behavior.hashtable_index:
            self.index = HashTableIndex(
                self.behavior.hash_buckets,
                lookup_cost_ns=costs.hash_lookup,
                node_cost_ns=costs.hash_node_visit,
            )
        else:
            self.index = SortedListIndex(node_cost_ns=costs.list_node_visit)
        if self.behavior.eager_flush_limits:
            self.flush_policy = StockFlushPolicy(
                self,
                soft=self.behavior.max_request_soft,
                hard=self.behavior.max_request_hard,
            )
        else:
            self.flush_policy = LazyFlushPolicy()
        self.behavior_single_search = self.behavior.single_search
        self.writepath = WritePath(self)
        #: Requests not yet stable (dirty + in flight + unstable).
        self.live_requests = 0
        #: Requests in the write-back pipeline (dirty + in flight) —
        #: the mount-wide count MAX_REQUEST_HARD compares against.
        self.writeback_count = 0
        self.hard_waitq = WaitQueue(self.sim, f"{host.name}-hardlimit")
        self.stats = NfsClientStats()
        self._inodes: Dict[int, NfsInode] = {}
        self._next_fileid = 1
        self.flushd = NfsFlushd(self)
        #: optional sanitizer harness; when set, new inodes are watched
        #: (see repro.analysis.sanitize.runtime).
        self.sanitizer = None
        #: Observability sink (repro.obs); passive, defaults disabled.
        self.obs = DISABLED

    # -- namespace ---------------------------------------------------------

    @property
    def pages_per_rpc(self) -> int:
        return max(1, self.mount.wsize // PAGE_SIZE)

    def inodes(self) -> Iterable[NfsInode]:
        return list(self._inodes.values())

    def inode(self, fileid: int) -> NfsInode:
        return self._inodes[fileid]

    def open_new(self, name: str, sync: bool = False):
        """Generator: CREATE a fresh file on the server, return an NfsFile.

        Writing into a fresh file keeps the benchmark on the pure write
        path — no read-modify-write of existing data (§2.3).  With
        ``sync`` the file behaves as if opened O_SYNC: every ``write()``
        returns only once the data is stable on the server.
        """
        call = RpcCall(
            xid=self.xprt.next_xid(),
            prog="nfs3",
            proc="CREATE",
            args=CreateArgs(name),
            size=200,
        )
        reply = yield from self.xprt.call_and_wait(call)
        result = reply.result
        if not isinstance(result, CreateResult):
            raise ProtocolError(f"CREATE returned {result!r}")
        inode = NfsInode(self.sim, result.fileid, name)
        self._inodes[result.fileid] = inode
        if self.sanitizer is not None:
            self.sanitizer.watch_inode(inode)
        return NfsFile(self, inode, sync=sync)

    def open_existing(self, name: str, sync: bool = False):
        """Generator: open a file already on the server (LOOKUP).

        Implements close-to-open consistency: the LOOKUP's change token
        is compared with the one cached at the previous open, and the
        client's cached pages are invalidated when they differ.  (Our
        own writes also bump the token, so a re-open after writing
        conservatively re-reads — real clients track post-op attributes
        to avoid that.)
        """
        call = RpcCall(
            xid=self.xprt.next_xid(),
            prog="nfs3",
            proc="LOOKUP",
            args=LookupArgs(name),
            size=180,
        )
        reply = yield from self.xprt.call_and_wait(call)
        result = reply.result
        if not isinstance(result, LookupResult):
            raise ProtocolError(f"LOOKUP returned {result!r}")
        inode = self._inodes.get(result.fileid)
        if inode is None:
            inode = NfsInode(self.sim, result.fileid, name)
            inode.server_change_id = result.change_id
            self._inodes[result.fileid] = inode
            if self.sanitizer is not None:
                self.sanitizer.watch_inode(inode)
        elif inode.server_change_id != result.change_id:
            inode.invalidate_cache()
            inode.server_change_id = result.change_id
        file = NfsFile(self, inode, sync=sync)
        file.size = result.size
        return file

    # -- WRITE ------------------------------------------------------------------

    def submit_write(
        self,
        inode: NfsInode,
        group: List[NfsPageRequest],
        stable: Optional[Stable] = None,
    ):
        """Generator: turn a contiguous request group into an async WRITE.

        Runs in the scheduling context (writer's nfs_strategy, a flush,
        or nfs_flushd) — the transport decides whether the wire send
        happens here or in rpciod.  NFSv2 has no unstable writes: every
        WRITE is forced FILE_SYNC regardless of ``stable``.
        """
        if self.mount.nfs_version == 2:
            stable = Stable.FILE_SYNC
        elif stable is None:
            stable = Stable.UNSTABLE
        offset, count = group_extent(group)
        now = self.sim.now
        for req in group:
            inode.note_scheduled(req, now)
        yield self.host.cpus.execute(
            self.host.costs.rpc_task_setup, label="rpc_task_setup",
            priority=PRIO_KERNEL,
        )
        call = RpcCall(
            xid=self.xprt.next_xid(),
            prog="nfs3" if self.mount.nfs_version == 3 else "nfs2",
            proc="WRITE",
            args=WriteArgs(inode.fileid, offset, count, stable),
            size=write_call_size(count),
        )
        self.stats.writes_sent += 1
        self.stats.bytes_sent += count
        obs = self.obs
        if obs.enabled:
            # Parent the RPC on the span that dirtied the group's first
            # page; flush daemons run outside any syscall, so a missing
            # page span falls back to the current task's root span.
            parent = group[0].span_id or obs.task_span()
            observe_group(obs, group, parent=parent)
            call.span_id = obs.span_begin(
                "rpc", "WRITE", parent=parent, xid=call.xid,
                bytes=count, pages=len(group), stable=stable.name,
            )

        def on_complete(reply):
            return self._write_done(inode, group, reply)

        def on_error(reply):
            return self._write_failed(inode, group, reply)

        yield from self.xprt.submit(call, on_complete, on_error)

    def _write_done(self, inode: NfsInode, group: List[NfsPageRequest], reply):
        """Generator: WRITE completion (rpciod context, BKL critical)."""
        result = reply.result
        if not isinstance(result, WriteResult):
            raise ProtocolError(f"WRITE returned {result!r}")
        cpus = self.host.cpus
        costs = self.host.costs
        now = self.sim.now
        # Post-op attributes keep the attribute cache coherent with our
        # own writes (no self-inflicted invalidation at the next open).
        if result.change_id > inode.server_change_id:
            inode.server_change_id = result.change_id
        for req in group:
            yield cpus.execute(
                costs.request_complete, label="nfs_write_done", priority=PRIO_KERNEL
            )
            if result.committed >= Stable.DATA_SYNC:
                remove_cost = self.index.remove(req)
                yield cpus.execute(
                    remove_cost, label="nfs_request_remove", priority=PRIO_KERNEL
                )
                inode.note_write_done(req, now)
                self.live_requests -= 1
                self.stats.bytes_acked_stable += req.nbytes
            else:
                req.verf = result.verf
                inode.note_unstable(req)
                self.obs.series_gauge("nfs/unstable_bytes", inode.unstable_bytes)
            self._writeback_retired()
            if result.committed >= Stable.DATA_SYNC:
                self.pagecache.uncharge(PAGE_SIZE)
        inode.waitq.wake_all()

    def _write_failed(self, inode: NfsInode, group: List[NfsPageRequest], reply):
        """Generator: WRITE failed for good (soft-mount major timeout).

        Linux async-write error semantics: drop the pages, latch EIO on
        the inode, and report it at the next write/fsync/close.
        """
        cpus = self.host.cpus
        costs = self.host.costs
        now = self.sim.now
        for req in group:
            remove_cost = self.index.remove(req)
            yield cpus.execute(
                remove_cost, label="nfs_request_remove", priority=PRIO_KERNEL
            )
            inode.note_write_done(req, now)
            self.live_requests -= 1
            self._writeback_retired()
            self.pagecache.uncharge(PAGE_SIZE)
        self.stats.write_failures += 1
        inode.pending_error = "EIO"
        inode.waitq.wake_all()

    # -- READ ----------------------------------------------------------------------

    def fetch_pages(self, file, start_page: int, wait: bool = True):
        """Generator: fetch one rsize range into the client cache.

        Returns False (without I/O) when ``start_page`` is past EOF.
        With ``wait=False`` the READ proceeds asynchronously — the
        read-ahead path.
        """
        from ..units import PAGE_SIZE as _PAGE

        start_byte = start_page * _PAGE
        if start_byte >= file.size:
            return False
        count = min(self.mount.rsize, file.size - start_byte)
        npages = -(-count // _PAGE)
        done = Event(self.sim)
        pages = range(start_page, start_page + npages)
        for page in pages:
            file._read_pending[page] = done
        call = RpcCall(
            xid=self.xprt.next_xid(),
            prog="nfs3" if self.mount.nfs_version == 3 else "nfs2",
            proc="READ",
            args=ReadArgs(file.inode.fileid, start_byte, count),
            size=read_call_size(),
        )
        self.stats.reads_sent += 1
        self.stats.bytes_fetched += count

        def on_complete(reply):
            return self._read_done(file, pages, done, reply)

        def on_error(reply):
            return self._read_failed(file, pages, done, reply)

        pending = yield from self.xprt.submit(call, on_complete, on_error)
        if wait:
            yield pending.completion
        return True

    def _read_done(self, file, pages, done: Event, reply):
        """Generator: READ completion (rpciod context, BKL critical)."""
        result = reply.result
        if not isinstance(result, ReadResult):
            raise ProtocolError(f"READ returned {result!r}")
        cpus = self.host.cpus
        for page in pages:
            yield cpus.execute(
                self.host.costs.request_complete,
                label="nfs_readpage_result",
                priority=PRIO_KERNEL,
            )
            file.cached_pages.add(page)
            file._read_pending.pop(page, None)
        if not done.fired:
            done.trigger()

    def _read_failed(self, file, pages, done: Event, reply):
        """Generator: READ failed for good (soft-mount major timeout)."""
        for page in pages:
            file._read_pending.pop(page, None)
        self.stats.read_failures += 1
        file.inode.pending_error = "EIO"
        if not done.fired:
            done.trigger()
        return
        yield  # pragma: no cover - generator marker

    # -- COMMIT -----------------------------------------------------------------

    def commit_inode(self, inode: NfsInode, wait: bool = True):
        """Generator: COMMIT the inode's unstable data.

        With ``wait``, blocks until commit completion (fsync/close
        semantics); otherwise just launches it (flushd's memory-pressure
        behaviour).  Concurrent callers piggyback on the in-flight
        commit.
        """
        if inode.commit_in_flight:
            if wait:
                yield from inode.waitq.wait_until(
                    lambda: not inode.commit_in_flight
                )
            return
        if not inode.unstable:
            return
        inode.commit_in_flight = True
        snapshot = inode.unstable
        inode.unstable = []
        call = RpcCall(
            xid=self.xprt.next_xid(),
            prog="nfs3",
            proc="COMMIT",
            args=CommitArgs(inode.fileid),
            size=commit_call_size(),
        )
        self.stats.commits_sent += 1
        obs = self.obs
        if obs.enabled:
            call.span_id = obs.span_begin(
                "rpc", "COMMIT",
                parent=snapshot[0].span_id or obs.task_span(),
                xid=call.xid, pages=len(snapshot),
            )

        def on_complete(reply):
            return self._commit_done(inode, snapshot, reply)

        def on_error(reply):
            return self._commit_failed(inode, snapshot, reply)

        pending = yield from self.xprt.submit(call, on_complete, on_error)
        if wait:
            yield pending.completion

    def _commit_done(self, inode: NfsInode, snapshot: List[NfsPageRequest], reply):
        """Generator: COMMIT completion (rpciod context, BKL critical)."""
        result = reply.result
        if not isinstance(result, CommitResult):
            raise ProtocolError(f"COMMIT returned {result!r}")
        cpus = self.host.cpus
        costs = self.host.costs
        now = self.sim.now
        for req in snapshot:
            yield cpus.execute(
                costs.request_complete, label="nfs_commit_done", priority=PRIO_KERNEL
            )
            if req.verf is not None and req.verf != result.verf:
                # The server rebooted between the UNSTABLE write and this
                # COMMIT: the data may be gone.  Re-dirty the page and
                # write it again (nfs_commit_done's resend path).
                inode.note_redirty(req)
                self.writeback_count += 1
                self.stats.commit_verf_mismatches += 1
                continue
            remove_cost = self.index.remove(req)
            yield cpus.execute(
                remove_cost, label="nfs_request_remove", priority=PRIO_KERNEL
            )
            inode.note_committed(req, now)
            self.live_requests -= 1
            self.stats.bytes_acked_stable += req.nbytes
            self.pagecache.uncharge(PAGE_SIZE)
        self.obs.series_gauge("nfs/unstable_bytes", inode.unstable_bytes)
        inode.commit_in_flight = False
        inode.waitq.wake_all()

    def _commit_failed(self, inode: NfsInode, snapshot: List[NfsPageRequest], reply):
        """Generator: COMMIT failed for good (soft-mount major timeout)."""
        cpus = self.host.cpus
        now = self.sim.now
        for req in snapshot:
            remove_cost = self.index.remove(req)
            yield cpus.execute(
                remove_cost, label="nfs_request_remove", priority=PRIO_KERNEL
            )
            inode.note_committed(req, now)
            self.live_requests -= 1
            self.pagecache.uncharge(PAGE_SIZE)
        self.stats.commit_failures += 1
        inode.commit_in_flight = False
        inode.pending_error = "EIO"
        inode.waitq.wake_all()

    # -- flush (fsync/close/threshold) ------------------------------------------

    def flush_writes(
        self,
        inode: NfsInode,
        stable: Optional[Stable] = None,
        reason: str = "explicit",
    ):
        """Generator: schedule all dirty requests, wait for WRITE replies.

        The MAX_REQUEST_SOFT path (§3.3): the writer "schedules all
        pending writes for that inode and waits for their completion".
        Write-back completion suffices — UNSTABLE data may continue to
        await COMMIT without counting against the thresholds.  The
        O_SYNC path passes ``stable=FILE_SYNC`` to force durability.
        """
        if inode.dirty:
            yield from self.bkl.hold(
                "nfs_flush",
                self.writepath.schedule_all(inode, stable=stable, reason=reason),
            )
        yield from inode.waitq.wait_until(
            lambda: not inode.has_unfinished_writes()
        )

    def flush_inode(self, inode: NfsInode):
        """Generator: schedule everything, wait for stability.

        This is the paper's "schedule all pending writes for that inode
        and wait for their completion" (§3.3) and also the fsync/close
        path — NFS "always flushes completely before last close" (§2.3).
        """
        self.stats.explicit_flushes += 1
        while True:
            if inode.dirty:
                yield from self.bkl.hold(
                    "nfs_flush",
                    self.writepath.schedule_all(inode, reason="fsync-close"),
                )
            if inode.has_unfinished_writes():
                yield from inode.waitq.wait_until(
                    lambda: not inode.has_unfinished_writes()
                )
                continue
            if inode.unstable or inode.commit_in_flight:
                yield from self.commit_inode(inode, wait=True)
                continue
            if inode.dirty:  # a concurrent writer dirtied more
                continue
            return

    # -- internals -----------------------------------------------------------------

    def _writeback_retired(self) -> None:
        self.writeback_count -= 1
        if self.writeback_count <= self.behavior.max_request_hard:
            self.hard_waitq.wake_all()
