"""A simulated machine: CPUs, a switch port, and a UDP stack.

The host charges per-fragment interrupt cost on receive (NIC IRQ +
driver + IP input), then hands complete datagrams to the UDP stack.
"Handling reply interrupts at a higher rate" is one of the costs the
paper identifies for clients talking to fast servers (§3.5).

Receiving a fragment is two plain callbacks, not a task: a zero-delay
event submits the interrupt's CPU slot (:meth:`CpuSet.submit`), and the
slot's continuation delivers.  An exception raised while delivering
propagates out of the simulator's run loop.
"""

from __future__ import annotations

from typing import Optional

from ..config import CpuCosts, NetConfig
from ..sim import PRIO_INTERRUPT, CpuSet, Simulator
from .packet import Datagram, Fragment
from .switch import Switch
from .udp import UdpStack

__all__ = ["Host"]


class Host:
    """One machine attached to the switch."""

    __slots__ = (
        "sim",
        "name",
        "net",
        "costs",
        "cpus",
        "port",
        "udp",
        "rx_fragments",
        "rx_datagrams",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        switch: Switch,
        net: NetConfig,
        ncpus: int = 1,
        costs: Optional[CpuCosts] = None,
    ):
        self.sim = sim
        self.name = name
        self.net = net
        self.costs = costs or CpuCosts()
        self.cpus = CpuSet(sim, ncpus, name=f"{name}-cpu")
        self.port = switch.attach(self, net)
        self.port.on_fragment = self._rx_fragment
        self.udp = UdpStack(self)
        self.rx_fragments = 0
        self.rx_datagrams = 0

    def _rx_fragment(self, frag: Fragment, complete: Optional[Datagram]) -> None:
        self.rx_fragments += 1
        self.sim.call_after(
            0, self.cpus.submit, self.costs.rx_frame_irq, "net_rx_irq",
            PRIO_INTERRUPT, self._rx_deliver, (complete,),
        )

    def _rx_deliver(self, complete: Optional[Datagram]) -> None:
        if complete is not None:
            self.rx_datagrams += 1
            self.udp.deliver(complete)
