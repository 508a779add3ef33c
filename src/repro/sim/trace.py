"""Structured event tracing.

Tracing is off by default (zero overhead beyond a boolean check).  When
enabled it appends flat tuples ``(time, component, kind, names,
*values, items)`` to a bounded ring: ``names`` labels the leading
values and ``items`` holds the remaining ``(field, value)`` pairs.
Entries of scalars are plain tuples the cyclic GC can untrack, and
writers (:mod:`repro.obs.core`) may append to :attr:`Tracer.ring`
directly; :meth:`Tracer.records` rebuilds :class:`TraceRecord` values,
fields in recording order, on read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

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
        self.ring: Deque[Tuple[Any, ...]] = deque(maxlen=capacity)

    def record(self, component: str, kind: str, **fields: Any) -> None:
        if self.enabled:
            self.ring.append((self._sim.now, component, kind, (), tuple(fields.items())))

    def records(
        self, component: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records, optionally filtered by component and/or kind."""
        out = []
        for entry in self.ring:
            if (component is None or entry[1] == component) and (
                kind is None or entry[2] == kind
            ):
                fields = dict(zip(entry[3], entry[4:]))
                fields.update(entry[-1])
                out.append(TraceRecord(entry[0], entry[1], entry[2], fields))
        return out

    def clear(self) -> None:
        self.ring.clear()

    def __len__(self) -> int:
        return len(self.ring)
