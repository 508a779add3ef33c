"""NFSv3 operations used by the sequential write workload (RFC 1813).

The model carries structured arguments/results plus accurate-enough wire
sizes; actual XDR bytes are never materialised.  ``Stable`` levels drive
the client's page lifecycle: a server that answers ``FILE_SYNC`` (the
filer, thanks to NVRAM) lets the client free pages on the WRITE reply,
while ``UNSTABLE`` replies (Linux knfsd) keep pages pinned until a
COMMIT succeeds — the paper's "additional COMMIT RPC" distinction
(§3.5).
"""

from __future__ import annotations

import enum

from ..rpc.messages import RPC_CALL_HEADER, RPC_REPLY_HEADER

__all__ = [
    "Stable",
    "WriteArgs",
    "WriteResult",
    "ReadArgs",
    "ReadResult",
    "CommitArgs",
    "CommitResult",
    "CreateArgs",
    "CreateResult",
    "LookupArgs",
    "LookupResult",
    "write_call_size",
    "write_reply_size",
    "read_call_size",
    "read_reply_size",
    "commit_call_size",
    "commit_reply_size",
]

#: File handle + offset + count + stable_how on a WRITE call.
WRITE_ARGS_OVERHEAD = 96
#: wcc_data + count + committed + verf on a WRITE reply.
WRITE_RES_BYTES = 88
COMMIT_ARGS_BYTES = 84
COMMIT_RES_BYTES = 80
CREATE_ARGS_BYTES = 128
CREATE_RES_BYTES = 144


class Stable(enum.IntEnum):
    """stable_how / committed levels (RFC 1813 §3.3.7)."""

    UNSTABLE = 0
    DATA_SYNC = 1
    FILE_SYNC = 2


class WriteArgs:
    __slots__ = ("fileid", "offset", "count", "stable")

    def __init__(
        self, fileid: int, offset: int, count: int, stable: Stable = Stable.UNSTABLE
    ):
        if count <= 0:
            raise ValueError(f"WRITE of {count} bytes")
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        self.fileid = fileid
        self.offset = offset
        self.count = count
        self.stable = stable


class WriteResult:
    """``change_id`` is the post-op attribute: the file's change token
    after this write, so clients can keep their attribute cache
    coherent with their own traffic (close-to-open without spurious
    invalidations)."""

    __slots__ = ("count", "committed", "verf", "change_id")

    def __init__(
        self, count: int, committed: Stable, verf: int = 0, change_id: int = 0
    ):
        self.count = count
        self.committed = committed
        self.verf = verf
        self.change_id = change_id


class ReadArgs:
    __slots__ = ("fileid", "offset", "count")

    def __init__(self, fileid: int, offset: int, count: int):
        if count <= 0:
            raise ValueError(f"READ of {count} bytes")
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        self.fileid = fileid
        self.offset = offset
        self.count = count


class ReadResult:
    __slots__ = ("count", "eof")

    def __init__(self, count: int, eof: bool):
        self.count = count
        self.eof = eof


class CommitArgs:
    """``count`` 0 commits the whole file."""

    __slots__ = ("fileid", "offset", "count")

    def __init__(self, fileid: int, offset: int = 0, count: int = 0):
        self.fileid = fileid
        self.offset = offset
        self.count = count


class CommitResult:
    __slots__ = ("verf",)

    def __init__(self, verf: int = 0):
        self.verf = verf


class CreateArgs:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class CreateResult:
    __slots__ = ("fileid",)

    def __init__(self, fileid: int):
        self.fileid = fileid


class LookupArgs:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class LookupResult:
    """``change_id`` is the change-detection token (mtime stand-in) for
    close-to-open checks."""

    __slots__ = ("fileid", "size", "change_id")

    def __init__(self, fileid: int, size: int, change_id: int):
        self.fileid = fileid
        self.size = size
        self.change_id = change_id


def write_call_size(count: int) -> int:
    """UDP payload bytes of a WRITE call carrying ``count`` data bytes."""
    return RPC_CALL_HEADER + WRITE_ARGS_OVERHEAD + count


def write_reply_size() -> int:
    return RPC_REPLY_HEADER + WRITE_RES_BYTES


def read_call_size() -> int:
    """UDP payload bytes of a READ call (handle + offset + count)."""
    return RPC_CALL_HEADER + 92


def read_reply_size(count: int) -> int:
    """UDP payload bytes of a READ reply carrying ``count`` data bytes."""
    return RPC_REPLY_HEADER + 76 + count


def commit_call_size() -> int:
    return RPC_CALL_HEADER + COMMIT_ARGS_BYTES


def commit_reply_size() -> int:
    return RPC_REPLY_HEADER + COMMIT_RES_BYTES
