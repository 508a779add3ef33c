"""The finding record shared by every runtime sanitizer.

Static-analysis findings (:class:`~repro.analysis.flow.FlowFinding`)
carry file/line coordinates; runtime findings carry a category and the
simulated time at which the property was violated.  Categories group
findings into the three scenario-level invariants the ``--sanitize``
flag reports (``sanitize-locks``, ``sanitize-races``,
``sanitize-invariants``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["RuntimeFinding", "group_findings", "CATEGORY_GROUPS"]

#: category -> scenario-invariant group.
CATEGORY_GROUPS: Dict[str, str] = {
    "lock-order": "locks",
    "deadlock": "locks",
    "lock-fifo": "locks",
    "lock-depth": "locks",
    "race": "races",
    "accounting": "invariants",
    "stable-bytes": "invariants",
    "waitq-fifo": "invariants",
}


class RuntimeFinding:
    """One violated property, with a human-readable witness."""

    __slots__ = ("category", "message", "time_ns")

    def __init__(self, category: str, message: str, time_ns: int = 0):
        self.category = category
        self.message = message
        self.time_ns = time_ns

    def __str__(self) -> str:
        return f"[{self.category}] t={self.time_ns}ns: {self.message}"


def group_findings(findings: Iterable[RuntimeFinding]) -> Dict[str, List[RuntimeFinding]]:
    """Bucket findings into the scenario-invariant groups.

    Every group is present in the result (possibly empty), so callers
    can emit a fixed set of pass/fail rows.
    """
    groups: Dict[str, List[RuntimeFinding]] = {
        "locks": [],
        "races": [],
        "invariants": [],
    }
    for finding in findings:
        groups[CATEGORY_GROUPS.get(finding.category, "invariants")].append(finding)
    return groups
