"""Local ext2 on the client's IDE disk.

The comparison target of Figs. 1 and 7: local memory writes are the
speed the NFS client should aspire to while memory lasts.  Writes dirty
page-cache pages at memcpy speed; a bdflush-style daemon writes dirty
pages out once the background threshold is crossed; writers throttle at
the dirty limit.  ``close()`` deliberately leaves dirty data cached —
"for many local file systems, dirty data remains in the system's data
cache after the final close()" (§2.3) — while ``fsync()`` forces it out.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from ..config import LocalFsConfig
from ..hw import Disk
from ..kernel.pagecache import PageCache
from ..kernel.vfs import VfsFile
from ..net.host import Host
from ..sim import Event
from ..units import PAGE_SIZE, ms, seconds

__all__ = ["Ext2Fs", "Ext2File"]

#: Pages written out per write-back burst (1 MiB).
FLUSH_BATCH_PAGES = 256


class Ext2File(VfsFile):
    """An open ext2 file."""

    def __init__(self, fs: "Ext2Fs", fileid: int, name: str):
        super().__init__(fileid, name)
        self.fs = fs
        #: Pages of this file currently dirty in the cache.
        self.dirty_pages: Set[int] = set()
        #: Clean resident pages (written-back or read in).
        self.cached_pages: Set[int] = set()
        self.stable_bytes = 0

    def commit_write(self, page_index: int, offset_in_page: int, nbytes: int):
        yield from self.fs._commit_write(self, page_index, nbytes)

    def has_page(self, page_index: int) -> bool:
        return page_index in self.dirty_pages or page_index in self.cached_pages

    def readpage(self, page_index: int):
        yield from self.fs._readpages(self, page_index)

    def fsync(self):
        yield from self.fs._fsync(self)

    def release(self):
        # ext2 keeps dirty data cached past close.
        return
        yield  # pragma: no cover - generator marker


class Ext2Fs:
    """The file system plus its write-back daemon."""

    def __init__(
        self,
        host: Host,
        pagecache: PageCache,
        config: LocalFsConfig = LocalFsConfig(),
        age_limit_ns: int = seconds(30),
        wakeup_ns: int = ms(500),
    ):
        self.host = host
        self.sim = host.sim
        self.pagecache = pagecache
        self.config = config
        self.disk = Disk(
            self.sim,
            transfer_bytes_per_sec=config.disk_bytes_per_sec,
            seek_ns=config.disk_seek_ns,
            name=f"{config.name}-disk",
        )
        self._files: Dict[int, Ext2File] = {}
        self._next_fileid = 1
        #: Dirty pages in age order: (fileid, page) -> birth time.
        self._dirty: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.age_limit_ns = age_limit_ns
        self.wakeup_ns = wakeup_ns
        self.pages_written_back = 0
        self._kick = Event(self.sim)
        pagecache.on_pressure(self._on_pressure)
        self.sim.spawn(self._bdflush(), name="bdflush", daemon=True)

    # -- files ------------------------------------------------------------------

    def open_new(self, name: str):
        """Generator: create a fresh local file (instant metadata)."""
        file = Ext2File(self, self._next_fileid, name)
        self._next_fileid += 1
        self._files[file.fileid] = file
        return file
        yield  # pragma: no cover - generator marker

    # -- write path ----------------------------------------------------------------

    def _commit_write(self, file: Ext2File, page_index: int, nbytes: int):
        cost = int(self.host.costs.ext2_page_overhead * nbytes / PAGE_SIZE)
        yield self.host.cpus.execute(cost, label="ext2_commit_write")
        if page_index not in file.dirty_pages:
            yield from self.pagecache.charge(PAGE_SIZE)
            file.dirty_pages.add(page_index)
            self._dirty[(file.fileid, page_index)] = self.sim.now

    def _readpages(self, file: Ext2File, page_index: int, readahead: int = 32):
        """Generator: fault a page in, reading ahead sequentially."""
        total_pages = -(-file.size // PAGE_SIZE)
        npages = 0
        page = page_index
        while page < total_pages and npages < readahead and not file.has_page(page):
            npages += 1
            page += 1
        if npages == 0:
            return
        yield from self.disk.read(npages * PAGE_SIZE, sequential=True)
        for p in range(page_index, page_index + npages):
            file.cached_pages.add(p)

    def _fsync(self, file: Ext2File):
        while file.dirty_pages:
            batch = []
            for key in self._dirty:
                if key[0] == file.fileid:
                    batch.append(key)
                    if len(batch) >= FLUSH_BATCH_PAGES:
                        break
            if not batch:
                # Pages are being written back concurrently; wait a tick.
                yield self.sim.timeout(self.wakeup_ns)
                continue
            yield from self._writeback(batch)
        while file.dirty_pages:
            batch = []
            for key in self._dirty:
                if key[0] == file.fileid:
                    batch.append(key)
                    if len(batch) >= FLUSH_BATCH_PAGES:
                        break
            if not batch:
                # Pages are being written back concurrently; wait a tick.
                yield self.sim.timeout(self.wakeup_ns)
                continue
            yield from self._writeback(batch)

    # -- write-back ------------------------------------------------------------------

    def _writeback(self, keys):
        """Generator: claim ``keys``, write them out, release memory."""
        claimed = []
        for key in keys:
            if key in self._dirty:
                del self._dirty[key]
                claimed.append(key)
        if not claimed:
            return
        yield from self.disk.write(len(claimed) * PAGE_SIZE, sequential=True)
        for fileid, page_index in claimed:
            file = self._files[fileid]
            file.dirty_pages.discard(page_index)
            file.cached_pages.add(page_index)  # clean but still resident
            file.stable_bytes += PAGE_SIZE
        self.pages_written_back += len(claimed)
        self.pagecache.uncharge(len(claimed) * PAGE_SIZE)

    def _on_pressure(self) -> None:
        if not self._kick.fired:
            self._kick.trigger()

    def _aged_keys(self):
        cutoff = self.sim.now - self.age_limit_ns
        batch = []
        for key, born in self._dirty.items():
            if born > cutoff:
                break
            batch.append(key)
            if len(batch) >= FLUSH_BATCH_PAGES:
                break
        return batch

    def _bdflush(self):
        while True:
            if self.pagecache.over_background and self._dirty:
                batch = [
                    key
                    for i, key in enumerate(self._dirty)
                    if i < FLUSH_BATCH_PAGES
                ]
                yield from self._writeback(batch)
                continue
            aged = self._aged_keys()
            if aged:
                yield from self._writeback(aged)
                continue
            self._kick = Event(self.sim)
            timer = self.sim.schedule(self.wakeup_ns, self._on_pressure)
            yield self._kick
            timer.cancel()
