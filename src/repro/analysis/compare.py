"""Paper-vs-measured bookkeeping.

Experiments declare *shape criteria* — the qualitative facts a faithful
reproduction must show (who wins, direction of change, approximate
factor) — and report each as pass/fail next to the paper's number and
the measured one.  EXPERIMENTS.md is generated from these records.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["Check", "Comparison"]


class Check:
    """One shape criterion."""

    __slots__ = ("name", "passed", "paper", "measured", "note")

    def __init__(
        self, name: str, passed: bool, paper: str, measured: str, note: str = ""
    ):
        self.name = name
        self.passed = passed
        self.paper = paper
        self.measured = measured
        self.note = note

    def row(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"[{flag}] {self.name}: paper={self.paper} measured={self.measured}{note}"


class Comparison:
    """All checks for one experiment."""

    __slots__ = ("experiment", "checks")

    def __init__(self, experiment: str, checks: Optional[List[Check]] = None):
        self.experiment = experiment
        self.checks = [] if checks is None else checks

    def add(
        self,
        name: str,
        passed: bool,
        paper: str,
        measured: str,
        note: str = "",
    ) -> None:
        self.checks.append(Check(name, bool(passed), paper, measured, note))

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        lines = [f"== {self.experiment} =="]
        lines.extend(check.row() for check in self.checks)
        verdict = "ALL SHAPE CRITERIA MET" if self.all_passed else "SOME CRITERIA FAILED"
        lines.append(f"-- {verdict} ({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)
