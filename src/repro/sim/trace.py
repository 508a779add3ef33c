"""Structured event tracing.

Tracing is off by default (zero overhead beyond a boolean check).  When
enabled it records ``(time, component, kind, fields)`` tuples into a
bounded ring, which tests and debugging sessions can inspect.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional

from .core import Simulator

__all__ = ["Tracer", "TraceRecord"]


class TraceRecord(NamedTuple):
    time: int
    component: str
    kind: str
    fields: Dict[str, Any]


class Tracer:
    """Bounded in-memory trace sink."""

    def __init__(self, sim: Simulator, capacity: int = 100_000, enabled: bool = False):
        self._sim = sim
        self.enabled = enabled
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)

    def record(self, component: str, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self._records.append(TraceRecord(self._sim.now, component, kind, fields))

    def record_at(self, time: int, component: str, kind: str, **fields: Any) -> None:
        """Record with an explicit timestamp.

        Used for events whose span is known at schedule time (a frame's
        arrival is computed when it is queued) — the ring stays in
        append order, which exporters tolerate.
        """
        if not self.enabled:
            return
        self._records.append(TraceRecord(time, component, kind, fields))

    def records(
        self, component: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records, optionally filtered by component and/or kind."""
        out = []
        for rec in self._records:
            if component is not None and rec.component != component:
                continue
            if kind is not None and rec.kind != kind:
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)
