"""Store-and-forward Ethernet switch with an explicit port registry.

Each attached host gets a numbered :class:`Port` — a full-duplex pair of
links (host→switch and switch→host) plus a reassembly buffer.  Ports are
handed out by :meth:`Switch.attach` and recorded in a registry keyed by
the attached host's name; attaching a second host under an
already-registered name is a hard :class:`~repro.errors.ConfigError`,
because with implicit name-keyed wiring the second client would silently
shadow the first one's frames.

Datagrams are fragmented at the sender per the path MTU, forwarded
fragment-by-fragment, and reassembled at the destination port (kernel IP
reassembly); the receiving host is notified per fragment so it can
charge interrupt costs.  A port's *downlink* is the switch's output port
toward that host: frames from every sender serialise through it, which
is where multi-client contention for a server physically happens.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from ..config import NetConfig
from ..errors import ConfigError
from ..obs.core import DISABLED
from ..sim import RngStreams, Simulator
from ..units import seconds
from .ip import fragment_sizes
from .link import Link
from .packet import Datagram, Fragment

__all__ = ["Switch", "Port", "IPFRAG_TIME_NS"]

#: Linux's default ``ipfrag_time``: how long a port keeps a datagram's
#: fragments waiting for the rest.
IPFRAG_TIME_NS = seconds(30)


class Port:
    """A host's attachment point: two links and a reassembly buffer."""

    __slots__ = (
        "switch",
        "name",
        "net",
        "port_id",
        "owner",
        "uplink",
        "downlink",
        "on_fragment",
        "_frag_sizes",
        "_partial",
        "_born",
        "datagrams_sent",
        "datagrams_received",
    )

    def __init__(
        self,
        switch: "Switch",
        name: str,
        net: NetConfig,
        port_id: int = 0,
        owner: Optional[Any] = None,
    ):
        sim = switch._sim
        self.switch = switch
        self.name = name
        self.net = net
        #: Position in the switch's registry (attachment order).
        self.port_id = port_id
        #: The attached :class:`~repro.net.host.Host`, when attached via
        #: a host object rather than a bare name.
        self.owner = owner
        self.uplink = Link(sim, net.bandwidth_bytes_per_sec, net.latency_ns, f"{name}-up")
        self.downlink = Link(
            sim, net.bandwidth_bytes_per_sec, net.latency_ns, f"{name}-down"
        )
        #: Host hook: called for every arriving fragment with the
        #: fragment and the fully reassembled datagram (or None).
        self.on_fragment: Optional[Callable[[Fragment, Optional[Datagram]], None]] = None
        #: Fragment wire sizes per datagram size: a port sends a handful
        #: of sizes (full WRITEs, small calls and replies) many times.
        self._frag_sizes: Dict[int, List[int]] = {}
        #: Reassembly: per incomplete datagram, the bitmask of fragment
        #: indices that arrived and, in ``_born``, when the first did.
        #: Both are in first-arrival order.
        self._partial: Dict[int, int] = {}
        self._born: Dict[int, int] = {}
        self.datagrams_sent = 0
        self.datagrams_received = 0

    # -- transmit -----------------------------------------------------------

    def send_datagram(self, dgram: Datagram) -> None:
        """Fragment ``dgram`` per this port's MTU and launch it.

        The sender has drawn its ``dgram_id`` from
        :meth:`Switch.next_dgram_id`.
        """
        sizes = self._frag_sizes.get(dgram.size)
        if sizes is None:
            sizes = fragment_sizes(dgram.size, self.net)
            self._frag_sizes[dgram.size] = sizes
        count = len(sizes)
        for index, wire_bytes in enumerate(sizes):
            frag = Fragment(dgram, index, count, wire_bytes)
            self.uplink.send(wire_bytes, self.switch._forward, frag)
        self.datagrams_sent += 1

    # -- receive --------------------------------------------------------------

    def _arrive(self, frag: Fragment) -> None:
        dgram = frag.dgram
        dgram_id = dgram.dgram_id
        partial = self._partial
        # Bit i set: fragment i has arrived.  A duplicate sets no new
        # bit, so it cannot stand in for a fragment that was lost.
        prev = partial.get(dgram_id)
        got = (1 << frag.index) if prev is None else prev | (1 << frag.index)
        complete: Optional[Datagram] = None
        if got == (1 << frag.count) - 1:
            if prev is not None:
                del partial[dgram_id]
                del self._born[dgram_id]
            self.datagrams_received += 1
            complete = dgram
        else:
            if prev is None:
                # Reassembly GC, on a datagram's first fragment: one
                # that lost a fragment never completes, nor does the
                # entry a late duplicate starts.  As the kernel does,
                # drop each entry whose first fragment arrived
                # IPFRAG_TIME_NS ago (checked here, not on a timer, so
                # it costs no event), and keep at most 4,096 entries;
                # both drop the oldest first.
                born = self._born
                now = self.switch._sim.now
                while born:
                    oldest = next(iter(born))
                    if born[oldest] > now - IPFRAG_TIME_NS and len(born) < 4096:
                        break
                    del born[oldest]
                    del partial[oldest]
                born[dgram_id] = now
            partial[dgram_id] = got
        if self.on_fragment is not None:
            self.on_fragment(frag, complete)


class Switch:
    """Connects registered ports; forwards fragments to the destination port.

    Fault injection: ports attached with a non-zero
    ``NetConfig.loss_probability`` have fragments dropped at forward
    time from a dedicated RNG stream, exercising RPC retransmission.
    """

    __slots__ = (
        "_sim",
        "name",
        "_registry",
        "_ports",
        "_dgram_seq",
        "_rng",
        "fragments_dropped",
        "obs",
    )

    def __init__(self, sim: Simulator, name: str = "switch", seed: int = 0):
        self._sim = sim
        self.name = name
        #: The port registry: attachment-ordered list plus a routing
        #: index by host name.  Both always agree; the list is the
        #: authoritative record of what is plugged into the switch.
        self._registry: List[Port] = []
        self._ports: Dict[str, Port] = {}
        self._dgram_seq = 0
        self._rng = RngStreams(seed).stream(f"{name}-loss")
        self.fragments_dropped = 0
        self.obs = DISABLED

    def attach(self, host: Union[str, Any], net: Optional[NetConfig] = None) -> Port:
        """Register a host and hand it its own :class:`Port`.

        ``host`` is normally a :class:`~repro.net.host.Host` (the port
        records it as ``owner``); a bare name is accepted for tests that
        wire raw ports.  ``net`` defaults to the host's own NetConfig
        when attaching a host object.  Attaching a second host under an
        existing name raises — duplicate names would let one client
        silently shadow another's frames.
        """
        if isinstance(host, str):
            name, owner = host, None
        else:
            name, owner = host.name, host
            net = net if net is not None else getattr(host, "net", None)
        if net is None:
            raise ConfigError(f"{self.name}: no NetConfig for host {name!r}")
        existing = self._ports.get(name)
        if existing is not None:
            raise ConfigError(
                f"{self.name}: host {name!r} already attached (port "
                f"{existing.port_id}) — a second attachment would shadow "
                "its frames; give each client a unique name"
            )
        port = Port(self, name, net, port_id=len(self._registry), owner=owner)
        self._registry.append(port)
        self._ports[name] = port
        return port

    def port(self, host_name: str) -> Port:
        try:
            return self._ports[host_name]
        except KeyError:
            raise ConfigError(f"{self.name}: unknown host {host_name!r}") from None

    def ports(self) -> List[Port]:
        """All registered ports, in attachment (port-id) order."""
        return list(self._registry)

    def __len__(self) -> int:
        return len(self._registry)

    def install_fault(self, host_name: str, uplink=None, downlink=None) -> Port:
        """Attach per-direction link faults to a host's port.

        ``uplink`` disturbs frames the host sends (host→switch);
        ``downlink`` disturbs frames it receives.  Pass ``None`` to
        leave a direction untouched; see :mod:`repro.faults.link` for
        the fault objects.  Returns the port for further inspection.
        """
        port = self.port(host_name)
        if uplink is not None:
            port.uplink.fault = uplink
        if downlink is not None:
            port.downlink.fault = downlink
        return port

    def _forward(self, frag: Fragment) -> None:
        dst = self._ports.get(frag.dgram.dst)
        if dst is None:
            return  # destination detached: frame dropped on the floor
        loss = dst.net.loss_probability
        if loss > 0.0 and self._rng.random() < loss:
            self.fragments_dropped += 1
            if self.obs.enabled:
                self.obs.count("net/frames_dropped/switch-loss")
            return
        dst.downlink.send(frag.wire_bytes, dst._arrive, frag)

    def next_dgram_id(self) -> int:
        """A fresh datagram id: reassembly keys fragments on it."""
        self._dgram_seq += 1
        return self._dgram_seq
