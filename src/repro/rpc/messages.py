"""SunRPC message records.

Only the fields that drive timing and matching are modelled: xids for
reply matching, wire sizes for link occupancy and fragmentation, and an
opaque ``args``/``result`` payload interpreted by the bound program.
"""

from __future__ import annotations

from typing import Any

__all__ = ["RpcCall", "RpcReply", "RPC_CALL_HEADER", "RPC_REPLY_HEADER"]

#: Bytes of RPC+credential header on a call, on top of procedure args.
RPC_CALL_HEADER = 72
#: Bytes of RPC header on a reply, on top of procedure results.
RPC_REPLY_HEADER = 48


class RpcCall:
    """One RPC call as it crosses the wire.

    ``size`` is the UDP payload in bytes (header + encoded arguments +
    inline data), at least :data:`RPC_CALL_HEADER`.  ``span_id`` is the
    causal span id (repro.obs), 0 when tracing is off: a pure
    annotation carried across the wire so server-side work can be
    parented under the syscall that caused it.
    """

    __slots__ = ("xid", "prog", "proc", "args", "size", "span_id")

    def __init__(
        self, xid: int, prog: str, proc: str, args: Any, size: int, span_id: int = 0
    ):
        self.xid = xid
        self.prog = prog
        self.proc = proc
        self.args = args
        self.size = size if size > RPC_CALL_HEADER else RPC_CALL_HEADER
        self.span_id = span_id


class RpcReply:
    """The matching reply; ``span_id`` is echoed from the call."""

    __slots__ = ("xid", "result", "size", "span_id")

    def __init__(
        self, xid: int, result: Any, size: int = RPC_REPLY_HEADER, span_id: int = 0
    ):
        self.xid = xid
        self.result = result
        self.size = size if size > RPC_REPLY_HEADER else RPC_REPLY_HEADER
        self.span_id = span_id

    @property
    def is_error(self) -> bool:
        return isinstance(self.result, RpcError)


class RpcError:
    """An error result (accept-stat != SUCCESS / NFS error status).

    ``code`` carries the machine-readable status the transport acts on:
    ``"JUKEBOX"`` (retry after a delay), ``"ETIMEDOUT"`` (synthesised on
    a soft-mount major timeout), or ``""`` for generic failures.
    """

    __slots__ = ("message", "code")

    def __init__(self, message: str, code: str = ""):
        self.message = message
        self.code = code
