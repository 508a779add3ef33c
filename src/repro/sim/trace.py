"""Structured event tracing.

Tracing is off by default (zero overhead beyond a boolean check).  When
enabled it appends flat tuples ``(time, component, kind, names,
*values)`` to a bounded ring, where ``names`` labels the values.  A
complete span, opened and closed in one call, is one entry
``(start, component, "span", names, end, span, *values)`` that reads
as its ``span_begin`` record followed by its ``span_end`` record.
Entries of scalars are plain tuples the cyclic GC can untrack, and
writers (:mod:`repro.obs.core`) may append to :attr:`Tracer.ring`
directly; :meth:`Tracer.records` rebuilds :class:`TraceRecord` values,
fields in recording order, on read.  The capacity counts entries, so a
complete span is evicted whole.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from .core import Simulator

__all__ = ["Tracer", "TraceRecord"]

#: Field names of a complete span's closing record.
_END = ("span",)


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
            self.ring.append(
                (self._sim.now, component, kind, tuple(fields), *fields.values())
            )

    def records(
        self, component: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records, optionally filtered by component and/or kind."""
        out = []
        for entry in self.ring:
            if entry[2] == "span":
                edges = (
                    (entry[0], entry[1], "span_begin", entry[3], entry[5:]),
                    (entry[4], "", "span_end", _END, entry[5:6]),
                )
            else:
                edges = ((entry[0], entry[1], entry[2], entry[3], entry[4:]),)
            for time, comp, rkind, names, values in edges:
                if (component is None or comp == component) and (
                    kind is None or rkind == kind
                ):
                    out.append(TraceRecord(time, comp, rkind, dict(zip(names, values))))
        return out

    def clear(self) -> None:
        self.ring.clear()

    def __len__(self) -> int:
        return len(self.ring)
