"""Deterministic fault injection for the simulated test bed.

Three layers, matching where real NFS deployments hurt:

* :mod:`repro.faults.link` — per-frame network disturbance (burst loss,
  reordering jitter, duplication) plugged into :class:`repro.net.link.Link`
  via :meth:`repro.net.switch.Switch.install_fault`;
* :mod:`repro.faults.server` — timed server pause/crash/restart and
  NFS3ERR_JUKEBOX windows against :class:`repro.server.base.NfsServerBase`;
* :mod:`repro.faults.client` — RPC slot-table starvation.

Everything draws randomness from named :class:`repro.sim.RngStreams`
streams, so a faulted run is exactly as reproducible as a clean one.
Full chaos scenarios that arm these faults and audit invariants are
``scenarios/*.json`` files run by :mod:`repro.chaos`
(``repro-nfs run <file>``, ``repro-nfs corpus``).
"""

from .client import SlotStarvation
from .link import (
    DelayJitter,
    DropFrames,
    Duplicate,
    FaultChain,
    GilbertElliott,
    LinkFault,
)
from .server import ServerFaultSchedule

__all__ = [
    "LinkFault",
    "GilbertElliott",
    "DelayJitter",
    "Duplicate",
    "DropFrames",
    "FaultChain",
    "ServerFaultSchedule",
    "SlotStarvation",
]
