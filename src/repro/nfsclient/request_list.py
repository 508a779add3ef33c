"""The stock 2.4.4 index: a sorted per-inode list of write requests.

``_nfs_find_request`` walks a list "maintained in order of increasing
page offset" (§3.4).  A sequential writer looks for a page that is never
there, so every search walks the *entire* list before the new request is
appended at the tail — the O(n) behaviour behind Fig. 3's growing
latency.

The simulated cost is exact list-walk accounting: the number of nodes a
singly-walked sorted list would visit (the request's rank + 1).  To keep
wall-clock time reasonable at 100k+ requests, ranks come from a Fenwick
tree rather than an actual O(n) walk — the *charged* cost is identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import SimulationError
from .request import NfsPageRequest
from .request_index import RequestIndex

__all__ = ["SortedListIndex", "Fenwick"]


class Fenwick:
    """Binary indexed tree over page indices, grown on demand."""

    def __init__(self, size: int = 1024):
        self._size = size
        self._tree = [0] * (size + 1)
        self.count = 0
        #: Highest index ever added: every occupied index is at most it.
        self._top = -1

    def _grow(self, needed: int) -> None:
        new_size = self._size
        while new_size <= needed:
            new_size *= 2
        old_counts = self.counts()
        self._size = new_size
        self._tree = [0] * (new_size + 1)
        self.count = 0
        for index in old_counts:
            self.add(index)

    def counts(self):
        """Occupied indices (ascending) — O(n log n), used on growth."""
        return [i for i in range(self._size) if self.contains(i)]

    def contains(self, index: int) -> bool:
        return self.rank(index + 1) - self.rank(index) > 0

    def add(self, index: int) -> None:
        if index >= self._size:
            self._grow(index)
        if index > self._top:
            self._top = index
        i = index + 1
        while i <= self._size:
            self._tree[i] += 1
            i += i & (-i)
        self.count += 1

    def discard(self, index: int) -> None:
        tree = self._tree
        i = index + 1
        here = 0
        if 0 < i <= self._size:
            # The count at ``index`` alone: node ``i`` covers positions
            # ``(i - lowbit(i), i]``; take off the nodes that cover the
            # rest of that range.  About one node on average, where
            # ``contains`` would walk two full prefix sums.
            here = tree[i]
            covered_from = i - (i & (-i))
            j = i - 1
            while j > covered_from:
                here -= tree[j]
                j -= j & (-j)
        if here <= 0:
            raise SimulationError(f"fenwick: removing absent index {index}")
        while i <= self._size:
            tree[i] -= 1
            i += i & (-i)
        self.count -= 1

    def rank(self, index: int) -> int:
        """Number of occupied indices strictly below ``index``."""
        if index > self._top:
            # Past every page ever added: what a sequential writer's
            # every search asks.
            return self.count
        if index <= 0:
            return 0
        i = min(index, self._size)
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total


class _InodeList:
    """One inode's sorted request list."""

    def __init__(self) -> None:
        self.by_page: Dict[int, NfsPageRequest] = {}
        self.ranks = Fenwick()


class SortedListIndex(RequestIndex):
    """Per-inode sorted lists, with exact walk-cost accounting."""

    kind = "sorted-list"

    def __init__(self, node_cost_ns: int):
        self.node_cost_ns = node_cost_ns
        self._inodes: Dict[int, _InodeList] = {}
        self.searches = 0
        self.nodes_walked = 0

    def _inode(self, fileid: int) -> _InodeList:
        lst = self._inodes.get(fileid)
        if lst is None:
            lst = _InodeList()
            self._inodes[fileid] = lst
        return lst

    def peek(self, fileid: int, page_index: int) -> Optional[NfsPageRequest]:
        lst = self._inodes.get(fileid)
        if lst is None:
            return None
        return lst.by_page.get(page_index)

    def _walk_length(self, lst: _InodeList, page_index: int) -> int:
        """Nodes a sorted singly-linked-list walk visits for this page.

        The walk stops at the first node with ``page >= page_index``; a
        miss past the tail (the sequential-writer case) visits every
        node.
        """
        below = lst.ranks.rank(page_index)
        if page_index in lst.by_page or below < lst.ranks.count:
            return below + 1
        return lst.ranks.count  # ran off the tail

    def find(self, fileid: int, page_index: int) -> Tuple[Optional[NfsPageRequest], int]:
        lst = self._inode(fileid)
        visited = self._walk_length(lst, page_index)
        self.searches += 1
        self.nodes_walked += visited
        return lst.by_page.get(page_index), visited * self.node_cost_ns

    def insert(self, request: NfsPageRequest) -> int:
        lst = self._inode(request.fileid)
        if request.page_index in lst.by_page:
            raise SimulationError(
                f"duplicate request for page {request.page_index} "
                f"of file {request.fileid}"
            )
        # Insertion walks to the right spot: same cost as a missing find.
        visited = self._walk_length(lst, request.page_index)
        lst.by_page[request.page_index] = request
        lst.ranks.add(request.page_index)
        self.nodes_walked += visited
        if self.sanitizer is not None:
            self.sanitizer.on_index_mutation(
                self, "insert", request.fileid, request.page_index
            )
        return visited * self.node_cost_ns

    def remove(self, request: NfsPageRequest) -> int:
        lst = self._inodes.get(request.fileid)
        if lst is None or lst.by_page.get(request.page_index) is not request:
            raise SimulationError(
                f"removing unindexed request page {request.page_index}"
            )
        del lst.by_page[request.page_index]
        lst.ranks.discard(request.page_index)
        if self.sanitizer is not None:
            self.sanitizer.on_index_mutation(
                self, "remove", request.fileid, request.page_index
            )
        # Doubly-linked list unlink via the request pointer: O(1).
        return self.node_cost_ns

    def __len__(self) -> int:
        return sum(len(lst.by_page) for lst in self._inodes.values())
