"""The write()-side NFS code path: ``nfs_updatepage`` and friends.

Per dirtied page segment (running in the writer's context):

1. charge page-cache memory for a fresh page (may block on the dirty
   limit — outside the BKL, since Linux drops the BKL across schedule()),
2. under the BKL: ``nfs_find_request`` (incompatible-request check) and
   ``nfs_update_request`` (find-or-create) — the two index searches the
   paper counts per call (§3.4), each charged at the active index's cost,
3. ``nfs_strategy``: fire a WRITE RPC once a full wsize run is dirty,
4. after releasing the lock, the flush policy's per-page hook (the stock
   MAX_REQUEST_SOFT / MAX_REQUEST_HARD behaviour of §3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import PRIO_USER
from ..units import PAGE_SIZE
from .coalesce import take_group
from .request import NfsPageRequest, RequestState

if TYPE_CHECKING:  # pragma: no cover
    from .client import NfsClient
    from .inode import NfsInode

__all__ = ["WritePath"]


class WritePath:
    """Writer-context machinery, bound to one client."""

    def __init__(self, client: "NfsClient"):
        self.client = client

    # -- entry point (from NfsFile.commit_write) ----------------------------

    def nfs_updatepage(
        self, inode: "NfsInode", page_index: int, offset_in_page: int, nbytes: int
    ):
        """Generator: absorb one dirtied page segment."""
        client = self.client
        obs = client.obs
        page_span = 0
        if obs.enabled:
            page_span = obs.span_begin(
                "nfs", "page_dirty", parent=obs.task_span(), page=page_index
            )
        while True:
            outcome = yield from self._try_updatepage(
                inode, page_index, offset_in_page, nbytes, page_span
            )
            if outcome == "done":
                break
            if outcome == "retry-uncharged":
                continue
            # An incompatible request owns the page: force it all the
            # way to stable (write + COMMIT if needed) and retry — the
            # nfs_wb_page path.  Passive waiting would deadlock on an
            # UNSTABLE request that nothing else ever commits.
            client.stats.page_waits += 1
            if obs.enabled:
                obs.count("nfs/page_waits")
            yield from self._force_request_done(inode, outcome)
        if obs.enabled:
            obs.span_end(page_span)
        yield from client.flush_policy.after_page(inode)

    def _try_updatepage(self, inode, page_index, offset_in_page, nbytes, page_span=0):
        client = self.client
        cpus = client.host.cpus
        costs = client.host.costs
        index = client.index

        # Memory accounting happens before the lock: blocking inside the
        # BKL would deadlock against the completion path that frees pages.
        charged = False
        if index.peek(inode.fileid, page_index) is None:
            yield from client.pagecache.charge(PAGE_SIZE)
            charged = True

        yield from client.bkl.acquire("nfs_commit_write")
        try:
            # First search: look for an incompatible request (§3.4).
            found, cost = index.find(inode.fileid, page_index)
            yield cpus.execute(cost, label="nfs_find_request", priority=PRIO_USER)

            if found is None and not charged:
                # Raced with completion while blocked in charge(): the
                # page's request finished; account for the page afresh.
                return "retry-uncharged"
            if found is not None and charged:
                # Raced the other way: someone created a request while we
                # slept on memory. Give the page charge back.
                client.pagecache.uncharge(PAGE_SIZE)
                charged = False
            if found is not None and not found.can_extend(offset_in_page, nbytes):
                return found  # incompatible: caller waits and retries

            # Second search: nfs_update_request's own lookup (§3.4 notes
            # the two could be combined — see the `single_search` knob).
            if not client.behavior_single_search:
                _, cost2 = index.find(inode.fileid, page_index)
                yield cpus.execute(
                    cost2, label="nfs_update_request", priority=PRIO_USER
                )

            yield cpus.execute(
                costs.request_setup, label="nfs_request_setup", priority=PRIO_USER
            )
            if found is None:
                request = NfsPageRequest(
                    inode.fileid,
                    page_index,
                    offset_in_page,
                    nbytes,
                    created_at=client.sim.now,
                )
                request.span_id = page_span
                insert_cost = index.insert(request)
                yield cpus.execute(
                    insert_cost, label="nfs_request_insert", priority=PRIO_USER
                )
                inode.note_created(request)
                client.live_requests += 1
                client.writeback_count += 1
                if client.obs.enabled:
                    client.obs.count("nfs/requests_created")
            else:
                found.extend(offset_in_page, nbytes)
                client.stats.coalesced_updates += 1
                if client.obs.enabled:
                    client.obs.count("nfs/requests_extended")

            # nfs_strategy: fire full wsize groups.
            yield from self.nfs_strategy(inode)
        finally:
            client.bkl.release()
        return "done"

    def _force_request_done(self, inode, req):
        """Generator: drive one request to DONE (nfs_wb_page)."""
        client = self.client
        while req.state is not RequestState.DONE:
            if req.state is RequestState.DIRTY:
                yield from client.bkl.hold(
                    "nfs_sync_page", self.schedule_all(inode, reason="sync-page")
                )
            elif req.state is RequestState.UNSTABLE:
                yield from client.commit_inode(inode, wait=True)
            else:  # SCHEDULED: the reply will move it on
                yield from inode.waitq.wait_until(
                    lambda: req.state is not RequestState.SCHEDULED
                )

    # -- strategy (runs under the BKL) ----------------------------------------

    def nfs_strategy(self, inode: "NfsInode"):
        """Generator: send every complete wsize run at the dirty head."""
        client = self.client
        pages_per_rpc = client.pages_per_rpc
        while True:
            group = take_group(inode, pages_per_rpc, force=False)
            if group is None:
                return
            if client.obs.enabled:
                client.obs.count("flush/pages/wsize", len(group))
                client.obs.count("flush/rpcs/wsize")
            yield from client.submit_write(inode, group)

    def schedule_all(self, inode: "NfsInode", stable=None, reason: str = "explicit"):
        """Generator: force every dirty request out, partial tails too.

        ``reason`` tags the flush trigger for the metrics registry
        (``flush/pages/<reason>``): soft-threshold, fsync-close,
        flushd-age, flushd-pressure, sync-page, or explicit.
        """
        client = self.client
        obs = client.obs
        while True:
            group = take_group(inode, client.pages_per_rpc, force=True)
            if group is None:
                return
            if obs.enabled:
                obs.count(f"flush/pages/{reason}", len(group))
                obs.count(f"flush/rpcs/{reason}")
            yield from client.submit_write(inode, group, stable=stable)
