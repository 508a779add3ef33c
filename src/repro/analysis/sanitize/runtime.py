"""Opt-in runtime sanitizer wiring for assembled TestBeds.

Usage::

    from repro.analysis.sanitize import sanitized

    with sanitized() as session:
        bed = TestBed(target="netapp", client="stock")
        bed.run_sequential_write(2 * MIB)
    for finding in session.findings():
        print(finding)

Inside the ``sanitized()`` context every :class:`~repro.bench.runner.
TestBed` construction attaches a :class:`SanitizerHarness`: the BKL
gets a lock-order/deadlock detector, the NFS client's inode lists and
request index get a race detector, and wait queues get FIFO checking.
All observers are passive — no events, no randomness, no state changes
— so a sanitized run is bit-for-bit identical to an unsanitized one
(the chaos scenarios verify exactly this by comparing fingerprints).

``repro-nfs run <file> --sanitize`` and ``repro-nfs corpus --sanitize``
use this to audit scenario files; the session's grouped findings become
three extra scenario invariants (``sanitize-locks``, ``sanitize-races``,
``sanitize-invariants``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from .invariants import FifoSanitizer, audit_accounting, audit_stable_bytes
from .lockcheck import LockOrderSanitizer
from .racecheck import RaceSanitizer
from .report import RuntimeFinding, group_findings

__all__ = [
    "SanitizeConfig",
    "SanitizerHarness",
    "SanitizeSession",
    "sanitized",
    "active_session",
    "attach_if_active",
]


class SanitizeConfig:
    """Which sanitizer families to attach."""

    __slots__ = ("lock_order", "race", "fifo", "invariants")

    def __init__(
        self,
        lock_order: bool = True,
        race: bool = True,
        fifo: bool = True,
        invariants: bool = True,
    ):
        self.lock_order = lock_order
        self.race = race
        self.fifo = fifo
        self.invariants = invariants


class SanitizerHarness:
    """All sanitizers attached to one TestBed."""

    def __init__(self, bed, config: SanitizeConfig):
        self.bed = bed
        self.config = config
        self.lock_order: Optional[LockOrderSanitizer] = None
        self.race: Optional[RaceSanitizer] = None
        self.fifo: Optional[FifoSanitizer] = None
        nfs = getattr(bed, "nfs", None)
        if config.lock_order and nfs is not None:
            self.lock_order = LockOrderSanitizer(bed.sim)
            nfs.bkl.sanitizer = self.lock_order
        if nfs is not None:
            if config.fifo:
                self.fifo = FifoSanitizer()
                nfs.hard_waitq.sanitizer = self.fifo
            if config.race:
                self.race = RaceSanitizer(bed.sim, nfs.bkl)
                nfs.index.sanitizer = self.race
            if config.race or config.fifo:
                nfs.sanitizer = self  # watch_inode() from here on
                for inode in nfs.inodes():
                    self.watch_inode(inode)

    def watch_inode(self, inode) -> None:
        """Hook a (possibly freshly created) inode's list and wait queue."""
        if self.race is not None:
            inode.sanitizer = self.race
        if self.fifo is not None:
            inode.waitq.sanitizer = self.fifo

    def runtime_findings(self) -> List[RuntimeFinding]:
        """Findings the live observers have accumulated so far."""
        findings: List[RuntimeFinding] = []
        if self.lock_order is not None:
            findings.extend(self.lock_order.findings)
        if self.race is not None:
            findings.extend(self.race.findings)
        if self.fifo is not None:
            findings.extend(self.fifo.findings)
        return findings

    def audit(self) -> List[RuntimeFinding]:
        """Runtime findings plus the end-of-run structural audits."""
        findings = self.runtime_findings()
        nfs = getattr(self.bed, "nfs", None)
        if self.config.invariants and nfs is not None:
            findings.extend(audit_accounting(nfs))
            if getattr(self.bed, "server", None) is not None:
                findings.extend(audit_stable_bytes(nfs, self.bed.server))
        return findings


class SanitizeSession:
    """Collects the harnesses of every TestBed built while active."""

    def __init__(self, config: Optional[SanitizeConfig] = None):
        self.config = config or SanitizeConfig()
        self.harnesses: List[SanitizerHarness] = []

    def findings(self) -> List[RuntimeFinding]:
        findings: List[RuntimeFinding] = []
        for harness in self.harnesses:
            findings.extend(harness.audit())
        return findings

    def grouped(self) -> Dict[str, List[RuntimeFinding]]:
        """Findings bucketed for the scenario-invariant rows."""
        return group_findings(self.findings())


_session: Optional[SanitizeSession] = None


def active_session() -> Optional[SanitizeSession]:
    return _session


@contextmanager
def sanitized(config: Optional[SanitizeConfig] = None):
    """Context manager: sanitize every TestBed built inside."""
    global _session
    previous = _session
    _session = SanitizeSession(config)
    try:
        yield _session
    finally:
        _session = previous


def attach_if_active(bed) -> Optional[SanitizerHarness]:
    """Called by ``TestBed.__init__``; no-op outside a session."""
    if _session is None:
        return None
    harness = SanitizerHarness(bed, _session.config)
    _session.harnesses.append(harness)
    return harness
