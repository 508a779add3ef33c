"""VFS write entry point: page-sized splitting and the copy loop.

``generic_file_write`` hands file systems data one page at a time —
"The Linux VFS layer passes write requests no larger than a page to
file systems, one at a time" (§3.4).  Each page segment costs a user-
to-kernel copy, then the file system's ``commit_write`` hook runs.
"""

from __future__ import annotations

from typing import List, Tuple

from ..net.host import Host
from ..units import PAGE_SIZE

__all__ = ["VfsFile", "generic_file_write", "generic_file_read", "page_segments"]


class VfsFile:
    """Base for simulated files: position plus file-system hooks."""

    def __init__(self, fileid: int, name: str):
        self.fileid = fileid
        self.name = name
        self.pos = 0
        self.size = 0
        self.closed = False

    # -- hooks implemented by concrete file systems -------------------------

    def commit_write(self, page_index: int, offset_in_page: int, nbytes: int):
        """Generator: one dirtied page segment reached the file system."""
        raise NotImplementedError  # pragma: no cover

    def has_page(self, page_index: int) -> bool:
        """Is this page resident in the client's cache?"""
        raise NotImplementedError  # pragma: no cover

    def readpage(self, page_index: int):
        """Generator: fault the page in (may read ahead)."""
        raise NotImplementedError  # pragma: no cover

    def fsync(self):
        """Generator: make everything written so far stable."""
        raise NotImplementedError  # pragma: no cover

    def release(self):
        """Generator: last close semantics."""
        raise NotImplementedError  # pragma: no cover


def page_segments(offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
    """Split ``[offset, offset+nbytes)`` into per-page segments.

    Returns ``(page_index, offset_in_page, seg_bytes)`` tuples.
    """
    segments = []
    end = offset + nbytes
    while offset < end:
        page_index = offset // PAGE_SIZE
        in_page = offset % PAGE_SIZE
        seg = min(PAGE_SIZE - in_page, end - offset)
        segments.append((page_index, in_page, seg))
        offset += seg
    return segments


def generic_file_write(host: Host, file: VfsFile, nbytes: int):
    """Generator: append ``nbytes`` at the file position, page by page."""
    for page_index, in_page, seg in page_segments(file.pos, nbytes):
        copy_cost = int(host.costs.page_copy * seg / PAGE_SIZE)
        yield host.cpus.execute(copy_cost, label="copy_from_user")
        yield from file.commit_write(page_index, in_page, seg)
    file.pos += nbytes
    if file.pos > file.size:
        file.size = file.pos
    return nbytes


def generic_file_read(host: Host, file: VfsFile, nbytes: int):
    """Generator: read from the file position, page by page.

    Cached pages cost only the copy-to-user; misses fault through the
    file system's ``readpage`` hook (which typically reads ahead).
    This is why "client O/S caching moderates the performance of
    application read requests" (§2.3).  Returns bytes actually read
    (short at EOF).
    """
    nbytes = max(0, min(nbytes, file.size - file.pos))
    for page_index, _in_page, seg in page_segments(file.pos, nbytes):
        if not file.has_page(page_index):
            yield from file.readpage(page_index)
        copy_cost = int(host.costs.page_copy * seg / PAGE_SIZE)
        yield host.cpus.execute(copy_cost, label="copy_to_user")
    file.pos += nbytes
    return nbytes
