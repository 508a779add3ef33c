"""Configuration for the whole-program flow analysis.

The defaults describe this repository's contracts: which modules hold
observer-owned state and which functions are pure-observer entry
points. Tests build a :class:`FlowConfig` by hand to analyse fixture
packages; the fixed tables (scheduling methods, fingerprint sinks,
blocking calls) live next to the passes that read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = ["FlowConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for the flow passes, keyed to the indexed root package."""

    root_package: str = "repro"

    #: Modules whose state observers may freely mutate (ownership
    #: allowlist for PUR5xx). A class owns its writes when its defining
    #: module matches one of these prefixes.
    owned_module_prefixes: Tuple[str, ...] = (
        "repro.obs",
        "repro.analysis",
        "repro.sim.trace",
        "repro.sim.profiler",
    )

    #: Modules whose functions/methods are pure-observer entry points
    #: (every function defined there, minus ``entry_exclude``).
    entry_module_prefixes: Tuple[str, ...] = (
        "repro.obs",
        "repro.analysis.sanitize.runtime",
        "repro.analysis.sanitize.lockcheck",
        "repro.analysis.sanitize.racecheck",
        "repro.analysis.sanitize.invariants",
    )

    #: Setup/teardown functions that legitimately wire observers into
    #: sim objects (``bed.syscalls.obs = obs`` …). They are not
    #: observer *hook* paths and are excluded from the entry set.
    entry_exclude: FrozenSet[str] = frozenset(
        {
            "repro.obs.core.attach",
            "repro.obs.core.attach_if_active",
            "repro.obs.core.attach_topology",
            "repro.obs.core.attach_topology_if_active",
            "repro.obs.bundle.attach",
            "repro.obs.bundle.run_traced",
            "repro.obs.bundle.write_bundle",
            "repro.analysis.sanitize.runtime.SanitizerHarness.__init__",
            "repro.analysis.sanitize.runtime.SanitizerHarness.watch_inode",
            "repro.analysis.sanitize.runtime.SanitizeSession.__enter__",
            "repro.analysis.sanitize.runtime.SanitizeSession.__exit__",
            "repro.analysis.sanitize.runtime.sanitized",
            "repro.analysis.sanitize.runtime.attach_if_active",
        }
    )

    def owns_module(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.owned_module_prefixes
        )

    def is_entry_module(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.entry_module_prefixes
        )


DEFAULT_CONFIG = FlowConfig()
