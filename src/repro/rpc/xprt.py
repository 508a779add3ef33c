"""Client-side SunRPC transport over UDP.

Models the Linux RPC transport (``xprt.c``) pieces that shape the
paper's results:

* a **slot table** bounding concurrent requests (16 in Linux),
* a **Van Jacobson congestion window** grown on timely replies and
  halved on retransmits,
* a **backlog queue**: when the window is closed, new requests queue and
  the rpciod daemon sends them as replies free slots.

The division of labour is the crux of the slow-server paradox (§3.5):
when the window is open the *submitting thread* pays the ~50 µs
``sock_sendmsg`` cost inline; when it is closed the submitter merely
queues (cheap) and **rpciod** pays the cost later — while holding the
Big Kernel Lock, under the stock policy, which is what the writer then
contends with.  A fast server keeps slots turning over rapidly, keeping
rpciod constantly busy sending and completing; a slow server leaves the
window full and rpciod mostly asleep, so the writer runs unimpeded.

Failure semantics (``docs/robustness.md``): minor timeouts retransmit
with exponential backoff (or an adaptive srtt/rttvar interval, see
:class:`RttEstimator`); after ``retrans`` retransmissions the request
hits a **major timeout**.  A *hard* mount restarts the backoff cycle
and retries forever; a *soft* mount fails the request with ETIMEDOUT,
which surfaces as EIO to the caller.  ``NFS3ERR_JUKEBOX`` replies are
re-sent after a fixed delay instead of completing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Generator, Optional

from ..errors import EioError, ProtocolError
from ..kernel.bkl import LockPolicy, NoLockPolicy
from ..net.host import Host
from ..net.udp import UdpSocket
from ..obs.core import DISABLED
from ..sim import PRIO_KERNEL, Event
from .messages import RpcCall, RpcError, RpcReply

__all__ = ["PendingRequest", "UdpTransport", "TransportStats", "RttEstimator"]


class TransportStats:
    """Counters the experiments and tests read."""

    __slots__ = (
        "submitted",
        "sent_inline",
        "sent_by_rpciod",
        "retransmits",
        "completed",
        "duplicate_replies",
        "backlog_peak",
        "major_timeouts",
        "soft_failures",
        "jukebox_retries",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.sent_inline = 0
        self.sent_by_rpciod = 0
        self.retransmits = 0
        self.completed = 0
        self.duplicate_replies = 0
        self.backlog_peak = 0
        #: retrans cap exhausted (hard mounts restart the backoff cycle
        #: here; soft mounts additionally fail the request).
        self.major_timeouts = 0
        #: Requests failed with ETIMEDOUT on a soft mount.
        self.soft_failures = 0
        #: Calls re-sent after an NFS3ERR_JUKEBOX reply.
        self.jukebox_retries = 0

    @property
    def inline_fraction(self) -> float:
        """Fraction of first sends paid by the submitting thread."""
        sent = self.sent_inline + self.sent_by_rpciod
        if sent == 0:
            return 0.0
        return self.sent_inline / sent


class RttEstimator:
    """Van Jacobson SRTT/RTTVAR per op class (``net/sunrpc/timer.c``).

    Linux keeps one estimator per timer class (reads, writes, metadata)
    and derives the minor retransmit timeout as ``srtt + 4·rttvar``,
    clamped to sane bounds.  Karn's rule applies: only replies to
    never-retransmitted calls update the estimate.
    """

    __slots__ = ("initial_ns", "min_ns", "max_ns", "srtt_ns", "rttvar_ns", "samples")

    def __init__(
        self,
        initial_ns: int,
        min_ns: int = 10_000_000,
        max_ns: int = 60_000_000_000,
    ):
        self.initial_ns = initial_ns
        self.min_ns = min_ns
        self.max_ns = max_ns
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns = 0
        self.samples = 0

    def observe(self, rtt_ns: int) -> None:
        """Fold one round-trip sample into srtt/rttvar (gains 1/8, 1/4)."""
        self.samples += 1
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
            return
        err = rtt_ns - self.srtt_ns
        self.srtt_ns += err // 8
        self.rttvar_ns += (abs(err) - self.rttvar_ns) // 4

    def timeout_ns(self) -> int:
        """Current retransmit timeout: srtt + 4·rttvar, clamped."""
        if self.srtt_ns is None:
            return self.initial_ns
        return max(self.min_ns, min(self.max_ns, self.srtt_ns + 4 * self.rttvar_ns))


#: Histogram bounds for round-trip times, in microseconds.
RTT_BUCKETS_US = (100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000)

#: Op-class map for RTT estimation (Linux ``rpc_proc_info.p_timer``).
_TIMER_CLASS = {
    "READ": "read",
    "WRITE": "write",
    "COMMIT": "write",
}


class PendingRequest:
    """One outstanding RPC."""

    __slots__ = (
        "call",
        "completion",
        "on_complete",
        "on_error",
        "timer",
        "timeo_ns",
        "retries",
        "submitted_at",
        "first_sent_at",
        "sent_by",
        "timer_class",
    )

    def __init__(self, sim, call: RpcCall, on_complete, timeo_ns: int, on_error=None):
        self.call = call
        self.completion = Event(sim)
        self.on_complete = on_complete
        #: Completion callback for error replies (including the
        #: synthesised soft-mount ETIMEDOUT); success replies never
        #: reach it.  Sync waiters instead inspect ``reply.is_error``.
        self.on_error = on_error
        self.timer = None
        self.timeo_ns = timeo_ns
        self.retries = 0
        self.submitted_at = sim.now
        self.first_sent_at: Optional[int] = None
        self.sent_by: Optional[str] = None
        self.timer_class = _TIMER_CLASS.get(call.proc, "meta")


class UdpTransport:
    """RPC client transport bound to one server address."""

    #: Initial congestion window, in requests.
    INITIAL_CWND = 2.0
    #: Retransmit backoff ceiling.
    MAX_TIMEO_NS = 60_000_000_000

    def __init__(
        self,
        host: Host,
        sock: UdpSocket,
        server: str,
        server_port: int,
        slots: int = 16,
        timeo_ns: int = 700_000_000,
        lock_policy: Optional[LockPolicy] = None,
        name: str = "xprt",
        retrans: int = 5,
        soft: bool = False,
        adaptive_timeo: bool = False,
        jukebox_delay_ns: int = 5_000_000_000,
    ):
        if slots < 1:
            raise ProtocolError(f"{name}: slot table must hold >= 1 request")
        if retrans < 1:
            raise ProtocolError(f"{name}: retrans must be >= 1")
        self.host = host
        self.sock = sock
        self.server = server
        self.server_port = server_port
        self.slots = slots
        self.timeo_ns = timeo_ns
        self.retrans = retrans
        self.soft = soft
        self.adaptive_timeo = adaptive_timeo
        self.jukebox_delay_ns = jukebox_delay_ns
        self.lock_policy = lock_policy or NoLockPolicy()
        self.name = name
        self.cwnd = min(self.INITIAL_CWND, float(slots))
        self.in_flight: Dict[int, PendingRequest] = {}
        self.backlog: Deque[PendingRequest] = deque()
        self._retrans_queue: Deque[PendingRequest] = deque()
        #: Soft-mount major-timeout casualties awaiting error completion.
        self._failed_queue: Deque[PendingRequest] = deque()
        self._xid = 0
        self.stats = TransportStats()
        #: Per-op-class RTT estimators (used when ``adaptive_timeo``).
        self.rtt = {
            cls: RttEstimator(timeo_ns) for cls in ("read", "write", "meta")
        }
        #: Fault injection: a smaller temporary slot-table bound
        #: (slot-table starvation); ``None`` means no override.
        self.slot_override: Optional[int] = None
        #: Wire-send timestamps (bounded), for on-the-wire smoothness
        #: analysis — §3.3: "the latency spikes do not appear in write
        #: requests on the wire".
        self.send_times: Deque[int] = deque(maxlen=200_000)
        self._sim = host.sim
        self._kick: Optional[Event] = None
        self.obs = DISABLED
        sock.on_deliver = self._nudge_rpciod
        self.rpciod = self._sim.spawn(
            self._rpciod_loop(), name=f"{name}-rpciod", daemon=True
        )

    # -- public API -------------------------------------------------------------

    def next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def submit(
        self,
        call: RpcCall,
        on_complete: Optional[Callable[[RpcReply], Generator]] = None,
        on_error: Optional[Callable[[RpcReply], Generator]] = None,
    ):
        """Generator (runs in the submitter's context): start an RPC.

        Returns the :class:`PendingRequest`; await ``request.completion``
        for the reply.  If the congestion window is open the wire send
        happens here, in the caller's context, at the caller's cost;
        otherwise the request joins the backlog for rpciod.
        """
        req = PendingRequest(
            self._sim, call, on_complete, self._initial_timeo(call.proc), on_error
        )
        self.stats.submitted += 1
        obs = self.obs
        if obs.enabled:
            obs.count(f"rpc/submitted/{call.proc}")
            if call.span_id == 0:
                # Ops the NFS layer did not annotate (LOOKUP, CREATE,
                # READ, ...) still get a span under the running syscall.
                call.span_id = obs.span_begin(
                    "rpc", call.proc, parent=obs.task_span(), xid=call.xid
                )
        if not self.backlog and self._window_open():
            self.in_flight[call.xid] = req
            req.sent_by = "inline"
            self.stats.sent_inline += 1
            yield from self._send(req, "rpc_send_inline")
        else:
            self.backlog.append(req)
            if len(self.backlog) > self.stats.backlog_peak:
                self.stats.backlog_peak = len(self.backlog)
            if obs.enabled:
                obs.count("rpc/backlogged")
                obs.sample("rpc", "backlog", len(self.backlog))
            self._nudge_rpciod()
        return req

    def call_and_wait(self, call: RpcCall, on_complete=None):
        """Generator: submit and block until the reply arrives.

        Raises :class:`EioError` when a soft mount gave up on the call
        (ETIMEDOUT), :class:`ProtocolError` when the server answered
        with any other error status.
        """
        req = yield from self.submit(call, on_complete)
        reply = yield req.completion
        if reply.is_error:
            if getattr(reply.result, "code", "") == "ETIMEDOUT":
                raise EioError(
                    f"{self.name}: {call.proc} to {self.server} timed out "
                    f"(soft mount, retrans={self.retrans})"
                )
            raise ProtocolError(
                f"{self.name}: {call.proc} failed on {self.server}: "
                f"{reply.result.message}"
            )
        return reply

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet completed."""
        return len(self.in_flight) + len(self.backlog) + len(self._failed_queue)

    def max_send_gap_ns(self, up_to: Optional[int] = None) -> int:
        """Largest quiet interval between consecutive wire sends."""
        times = [t for t in self.send_times if up_to is None or t <= up_to]
        if len(times) < 2:
            return 0
        return max(b - a for a, b in zip(times, times[1:]))

    # -- window -------------------------------------------------------------------

    def effective_slots(self) -> int:
        """Slot-table bound, honouring any starvation override."""
        if self.slot_override is not None:
            return max(1, min(self.slots, self.slot_override))
        return self.slots

    def _window_open(self) -> bool:
        return len(self.in_flight) < min(
            self.effective_slots(), max(1, int(self.cwnd))
        )

    def _on_reply_cwnd(self) -> None:
        if self.cwnd < self.slots:
            self.cwnd = min(float(self.slots), self.cwnd + 1.0 / self.cwnd)

    def _on_timeout_cwnd(self) -> None:
        self.cwnd = max(1.0, self.cwnd / 2.0)

    # -- timeouts ------------------------------------------------------------------

    def _initial_timeo(self, proc: str) -> int:
        if self.adaptive_timeo:
            return self.rtt[_TIMER_CLASS.get(proc, "meta")].timeout_ns()
        return self.timeo_ns

    # -- wire -----------------------------------------------------------------------

    def _send(self, req: PendingRequest, label: str):
        """Generator: XDR-encode and push one call onto the wire."""
        obs = self.obs
        send_span = 0
        if obs.enabled:
            send_span = obs.span_begin(
                "rpc", label, parent=req.call.span_id, xid=req.call.xid
            )
        yield self.host.cpus.execute(
            self.host.costs.rpc_build, label="rpc_build", priority=PRIO_KERNEL
        )

        def wire_body():
            cost = self.host.udp.send_cost(req.call.size)
            yield self.host.cpus.execute(
                cost, label="sock_sendmsg", priority=PRIO_KERNEL
            )
            self.sock.sendto(self.server, self.server_port, req.call, req.call.size)

        yield from self.lock_policy.wire_send(label, wire_body())
        if obs.enabled:
            obs.span_end(send_span)
            obs.sample("rpc", "cwnd", self.cwnd)
            obs.series_gauge("rpc/slots_in_flight", len(self.in_flight))
        self.send_times.append(self._sim.now)
        if req.first_sent_at is None:
            req.first_sent_at = self._sim.now
        if req.timer is not None:
            req.timer.cancel()
        req.timer = self._sim.schedule(req.timeo_ns, self._on_timeout, req)

    def _on_timeout(self, req: PendingRequest) -> None:
        if req.call.xid not in self.in_flight:
            return
        req.retries += 1
        obs = self.obs
        if obs.enabled:
            obs.span_point(
                "rpc", "timeout", parent=req.call.span_id, retries=req.retries
            )
        if req.retries > self.retrans:
            # Major timeout: the mount's retrans budget is spent.
            self.stats.major_timeouts += 1
            if obs.enabled:
                obs.count(f"rpc/major_timeouts/{req.call.proc}")
            if self.soft:
                # Soft semantics: give up and fail the request with
                # ETIMEDOUT (rpciod completes it, under the lock policy).
                del self.in_flight[req.call.xid]
                req.timer = None
                self.stats.soft_failures += 1
                if obs.enabled:
                    obs.count(f"rpc/soft_failures/{req.call.proc}")
                self._failed_queue.append(req)
                self._nudge_rpciod()
                return
            # Hard semantics: "server not responding, still trying" —
            # restart the backoff cycle and retry forever.
            req.retries = 0
            req.timeo_ns = self._initial_timeo(req.call.proc)
        else:
            req.timeo_ns = min(req.timeo_ns * 2, self.MAX_TIMEO_NS)
        self.stats.retransmits += 1
        if obs.enabled:
            obs.count(f"rpc/retransmits/{req.call.proc}")
            obs.series_count("rpc/retransmits")
        self._on_timeout_cwnd()
        self._retrans_queue.append(req)
        self._nudge_rpciod()

    def _on_jukebox_delay(self, req: PendingRequest) -> None:
        if req.call.xid not in self.in_flight:
            return
        req.timer = None
        self._retrans_queue.append(req)
        self._nudge_rpciod()

    # -- rpciod ----------------------------------------------------------------------

    def _nudge_rpciod(self) -> None:
        if self._kick is not None and not self._kick.fired:
            self._kick.trigger()

    def _work_available(self) -> bool:
        if self._retrans_queue or self._failed_queue or self.sock.pending:
            return True
        return bool(self.backlog) and self._window_open()

    def _rpciod_loop(self):
        while True:
            if not self._work_available():
                self._kick = Event(self._sim)
                if self._work_available():  # arrived while we decided to sleep
                    self._kick = None
                    continue
                yield self._kick
                self._kick = None
                continue
            # A work burst: the daemon holds the kernel lock throughout
            # (per policy), exactly the behaviour §3.5 blames for SMP
            # contention.
            yield from self.lock_policy.daemon_acquire("rpciod")
            try:
                while self._work_available():
                    yield from self._work_one()
            finally:
                self.lock_policy.daemon_release()

    def _work_one(self):
        if self._failed_queue:
            req = self._failed_queue.popleft()
            yield from self._complete_failure(req)
            return
        if self._retrans_queue:
            req = self._retrans_queue.popleft()
            if req.call.xid in self.in_flight:
                yield from self._send(req, "rpc_send_retrans")
            return
        dgram = self.sock.try_recv()
        if dgram is not None:
            yield from self._handle_reply(dgram.payload)
            return
        if self.backlog and self._window_open():
            req = self.backlog.popleft()
            self.in_flight[req.call.xid] = req
            req.sent_by = "rpciod"
            self.stats.sent_by_rpciod += 1
            if self.obs.enabled:
                self.obs.sample("rpc", "backlog", len(self.backlog))
            yield from self._send(req, "rpc_send_rpciod")

    def _handle_reply(self, reply: RpcReply):
        obs = self.obs
        req = self.in_flight.get(reply.xid)
        if req is None:
            self.stats.duplicate_replies += 1
            if obs.enabled:
                obs.count("rpc/duplicate_replies")
            yield self.host.cpus.execute(
                self.host.costs.reply_processing,
                label="rpc_reply_dup",
                priority=PRIO_KERNEL,
            )
            return
        if reply.is_error and getattr(reply.result, "code", "") == "JUKEBOX":
            # NFS3ERR_JUKEBOX: the server asked for patience.  Hold the
            # slot and re-send the same xid after the jukebox delay.
            self.stats.jukebox_retries += 1
            if obs.enabled:
                obs.count("rpc/jukebox_retries")
            if req.timer is not None:
                req.timer.cancel()
            req.timer = self._sim.schedule(
                self.jukebox_delay_ns, self._on_jukebox_delay, req
            )
            return
        del self.in_flight[reply.xid]
        if req.timer is not None:
            req.timer.cancel()
            req.timer = None
        if obs.enabled:
            obs.series_gauge("rpc/slots_in_flight", len(self.in_flight))
        self._on_reply_cwnd()
        if (
            self.adaptive_timeo
            and req.retries == 0
            and req.first_sent_at is not None
        ):
            # Karn's rule: retransmitted calls yield ambiguous samples.
            self.rtt[req.timer_class].observe(self._sim.now - req.first_sent_at)
        if obs.enabled:
            if req.retries == 0 and req.first_sent_at is not None:
                obs.observe(
                    f"rpc/rtt_us/{req.timer_class}",
                    (self._sim.now - req.first_sent_at) // 1_000,
                    RTT_BUCKETS_US,
                )
            if self.adaptive_timeo:
                srtt = self.rtt[req.timer_class].srtt_ns
                if srtt is not None:
                    obs.sample("rpc", f"srtt_us_{req.timer_class}", srtt // 1_000)

        reply_span = 0
        if obs.enabled:
            reply_span = obs.span_begin(
                "rpc", "rpc_reply", parent=req.call.span_id, xid=reply.xid
            )

        def process():
            yield self.host.cpus.execute(
                self.host.costs.reply_processing,
                label="rpc_reply_processing",
                priority=PRIO_KERNEL,
            )
            if reply.is_error:
                if req.on_error is not None:
                    yield from req.on_error(reply)
            elif req.on_complete is not None:
                yield from req.on_complete(reply)

        yield from self.lock_policy.critical("rpciod", process())
        self.stats.completed += 1
        if obs.enabled:
            obs.span_end(reply_span)
            obs.span_end(req.call.span_id)
        req.completion.trigger(reply)

    def _complete_failure(self, req: PendingRequest):
        """Generator: deliver a synthesised ETIMEDOUT reply (soft mount)."""
        reply = RpcReply(
            xid=req.call.xid,
            result=RpcError(
                f"{self.name}: {req.call.proc} major timeout "
                f"(soft mount, retrans={self.retrans})",
                code="ETIMEDOUT",
            ),
            span_id=req.call.span_id,
        )

        def process():
            yield self.host.cpus.execute(
                self.host.costs.reply_processing,
                label="rpc_soft_timeout",
                priority=PRIO_KERNEL,
            )
            if req.on_error is not None:
                yield from req.on_error(reply)

        yield from self.lock_policy.critical("rpciod", process())
        self.stats.completed += 1
        if self.obs.enabled:
            self.obs.span_end(req.call.span_id, error="ETIMEDOUT")
        req.completion.trigger(reply)
