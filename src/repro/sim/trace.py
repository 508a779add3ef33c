"""Structured event tracing.

Tracing is off by default (zero overhead beyond a boolean check).  When
enabled, a :class:`Tracer` keeps its entries in three append-only
streams:

* :attr:`Tracer.codes`, a ``bytearray`` with one shape code per entry;
* :attr:`Tracer.ints`, an ``array('q')`` with the integer fields the
  observer produces itself: times, span ids, parents and frame bytes;
* :attr:`Tracer.objs`, a list with the object fields, stored as given:
  components, the cached ``names`` tuple that labels an entry's
  values, span names, a scoped view's values and the caller's attribute
  and sample values.

The shape code says how many fields an entry takes from each stream:

=================  =========================  ===================================
code               ``ints``                   ``objs``
=================  =========================  ===================================
``RECORD``         time                       names, component, kind, \\*values
``SAMPLE``         time                       component, name, value
``SPAN_BEGIN``     time, span, parent         names, component, name, \\*values
``SPAN_END``       time, span
``SPAN_END_ATTRS`` time, span                 names, \\*values
``SPAN``           start, end, span, parent,  names, name, \\*values, link
                   bytes
=================  =========================  ===================================

A ``names`` tuple labels every field of its record, the integer ones
included, in recording order.  ``SPAN`` is a complete span, opened and
closed in one call (a link frame): it reads as its ``span_begin`` record
followed by its ``span_end`` record.  Writers (:mod:`repro.obs.core`)
append to the streams directly, so an entry costs a byte, a few machine
integers and a pointer per object field instead of a GC-tracked tuple
and a new ``int`` per time and span id.  They append the integers
first (``array.fromlist`` takes all or none), so a field that is not
an ``int`` raises before any stream has grown.  :meth:`Tracer.records`, the
only reader, rebuilds :class:`TraceRecord` values, fields in recording
order.

The capacity counts entries, so a complete span is evicted whole.
Reads see the newest ``capacity`` entries; the storage of older ones is
freed in batches (:meth:`Tracer.trim`) once :attr:`Tracer.limit`
entries are stored.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from .core import Simulator

__all__ = ["Tracer", "TraceRecord"]

#: Shape codes of the entries in :attr:`Tracer.codes`.
RECORD, SAMPLE, SPAN_BEGIN, SPAN_END, SPAN_END_ATTRS, SPAN = range(6)

#: Fields each shape takes from :attr:`Tracer.ints`.
_INTS = (1, 1, 3, 2, 2, 5)
#: Fields each shape takes from :attr:`Tracer.objs` beyond the length
#: of its ``names``, which labels the integer fields too (unused for
#: ``SAMPLE`` and ``SPAN_END``, which store no ``names``).
_PAST_NAMES = (3, 0, 0, 0, 0, -2)

#: Field names of a span's closing record, and of a sample.
_END = ("span",)
_SAMPLE = ("name", "value")

#: Entries stored past the capacity before a trim, at the least.
_MIN_BATCH = 256


def _width(code: int, objs: List[Any], o: int) -> int:
    """Fields the entry of shape ``code`` at ``objs[o]`` takes from
    ``objs``."""
    if code == SAMPLE:
        return 3
    if code == SPAN_END:
        return 0
    return len(objs[o]) + _PAST_NAMES[code]


class TraceRecord(NamedTuple):
    time: int
    component: str
    kind: str
    fields: Dict[str, Any]


class Tracer:
    """Bounded in-memory trace sink."""

    def __init__(self, sim: Simulator, capacity: int = 100_000, enabled: bool = False):
        if capacity < 0:
            raise ValueError(f"trace capacity must be non-negative, not {capacity}")
        self._sim = sim
        self.enabled = enabled
        self.capacity = capacity
        #: Entries stored before writers call :meth:`trim`: a batch of
        #: a quarter of the capacity keeps a trim's move of the live
        #: entries at amortised O(1) per entry written.
        self.limit = capacity + max(capacity >> 2, _MIN_BATCH)
        self.codes = bytearray()
        self.objs: List[Any] = []
        if enabled:
            from array import array

            self.ints = array("q")
        else:
            # A disabled tracer stores nothing, and an unobserved run
            # need not import ``array`` for it.
            self.ints = []

    def record(self, component: str, kind: str, **fields: Any) -> None:
        if self.enabled:
            self.ints.append(self._sim.now)
            self.objs.extend((tuple(fields), component, kind, *fields.values()))
            codes = self.codes
            codes.append(RECORD)
            if len(codes) > self.limit:
                self.trim()

    def _offsets(self, count: int):
        """Where entry ``count`` starts in ``ints`` and ``objs``: how
        many fields the entries before it take from each."""
        objs = self.objs
        i = o = 0
        for code in self.codes[:count]:
            i += _INTS[code]
            o += _width(code, objs, o)
        return i, o

    def trim(self) -> None:
        """Free the storage of every entry older than the newest
        ``capacity``."""
        drop = len(self.codes) - self.capacity
        if drop > 0:
            i, o = self._offsets(drop)
            del self.codes[:drop]
            del self.ints[:i]
            del self.objs[:o]

    def records(
        self, component: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records, optionally filtered by component and/or kind."""
        self.trim()
        ints, objs = self.ints, self.objs
        out = []
        i = o = 0
        for code in self.codes:
            time = ints[i]
            if code == SAMPLE:
                edges = ((time, objs[o], "sample", _SAMPLE, objs[o + 1 : o + 3]),)
            elif code == SPAN_END:
                edges = ((time, "", "span_end", _END, (ints[i + 1],)),)
            else:
                names = objs[o]
                n = len(names)
                if code == SPAN_BEGIN:
                    values = (ints[i + 1], ints[i + 2], *objs[o + 2 : o + n])
                    edges = ((time, objs[o + 1], "span_begin", names, values),)
                elif code == SPAN:
                    # start, end, span, parent, bytes | names, name, *values, link
                    sid = ints[i + 2]
                    values = (
                        sid,
                        ints[i + 3],
                        *objs[o + 1 : o + n - 3],
                        ints[i + 4],
                        objs[o + n - 3],
                    )
                    edges = (
                        (time, "net", "span_begin", names, values),
                        (ints[i + 1], "", "span_end", _END, (sid,)),
                    )
                elif code == SPAN_END_ATTRS:
                    values = (ints[i + 1], *objs[o + 1 : o + n])
                    edges = ((time, "", "span_end", names, values),)
                else:
                    values = objs[o + 3 : o + n + 3]
                    edges = ((time, objs[o + 1], objs[o + 2], names, values),)
            i += _INTS[code]
            o += _width(code, objs, o)
            for time, comp, rkind, names, values in edges:
                if (component is None or comp == component) and (
                    kind is None or rkind == kind
                ):
                    out.append(TraceRecord(time, comp, rkind, dict(zip(names, values))))
        return out

    def clear(self) -> None:
        del self.codes[:]
        del self.ints[:]
        del self.objs[:]

    def __len__(self) -> int:
        return min(len(self.codes), self.capacity)
