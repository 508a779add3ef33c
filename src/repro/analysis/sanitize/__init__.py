"""Simulation sanitizer suite: the runtime checkers.

* :mod:`.lockcheck` — lock-order / deadlock / FIFO / depth sanitizer,
* :mod:`.racecheck` — BKL discipline checks on request-list mutations,
* :mod:`.invariants` — accounting, durability, and FIFO wake audits,
* :mod:`.runtime` — the ``sanitized()`` session TestBeds attach to.

The static rules (determinism, pure-observer, lock discipline) are
:mod:`repro.analysis.flow` (``repro-nfs flow``); see
``docs/static-analysis.md`` for both.
"""

from .invariants import FifoSanitizer, audit_accounting, audit_stable_bytes
from .lockcheck import LockOrderSanitizer
from .racecheck import RaceSanitizer
from .report import RuntimeFinding, group_findings
from .runtime import (
    SanitizeConfig,
    SanitizeSession,
    SanitizerHarness,
    active_session,
    attach_if_active,
    sanitized,
)

__all__ = [
    "RuntimeFinding",
    "group_findings",
    "LockOrderSanitizer",
    "RaceSanitizer",
    "FifoSanitizer",
    "audit_accounting",
    "audit_stable_bytes",
    "SanitizeConfig",
    "SanitizeSession",
    "SanitizerHarness",
    "sanitized",
    "active_session",
    "attach_if_active",
]
