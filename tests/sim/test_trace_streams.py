"""The tracer's streams read back exactly what a ring of tuples held.

A :class:`~repro.sim.trace.Tracer` keeps its entries in a shape-code
``bytearray``, an ``array('q')`` of integer fields and a list of object
fields, and :meth:`~repro.sim.trace.Tracer.records` decodes them.  The
property test runs random sequences of records, samples, spans, link
frames and clears on a root observer and a scoped view, and on
:class:`RefObservability`, whose :class:`RefTracer` keeps one tuple
per entry in a bounded deque: the ring and writers the streams
replaced.  Both must hold the same number of entries and read back the
same records under every filter, fields in the same order and every
value of the same type.
"""

import copy
import itertools
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.core import Observability

# -- the reference: one tuple per entry in a bounded deque -------------------

_BEGIN = ("span", "parent", "name")
_END = ("span",)
_SAMPLE = ("name", "value")
_FRAME = ("bytes", "link")


class RefTracer:
    """Flat tuples ``(time, component, kind, names, *values)`` in a
    deque of ``capacity`` entries; a complete span is one entry
    ``(start, component, "span", names, end, span, *values)``."""

    def __init__(self, sim, capacity):
        self._sim = sim
        self.ring = deque(maxlen=capacity)

    def record(self, component, kind, **fields):
        self.ring.append((self._sim.now, component, kind, tuple(fields), *fields.values()))

    def records(self, component=None, kind=None):
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
                    out.append((time, comp, rkind, dict(zip(names, values))))
        return out

    def clear(self):
        self.ring.clear()

    def __len__(self):
        return len(self.ring)


class RefObservability:
    """The trace writers of :class:`~repro.obs.core.Observability`, each
    appending one tuple to :class:`RefTracer`'s ring."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.tracer = RefTracer(sim, capacity)
        self._prefix = ""
        self._span_names = ()
        self._span_values = ()
        self._span_ids = itertools.count(1)
        self._begin_names = {}
        self._frame_names = _BEGIN + _FRAME

    def scoped(self, client):
        view = copy.copy(self)
        view._prefix = f"{client}/"
        view._span_names = ("client",)
        view._span_values = (client,)
        view._begin_names = {}
        view._frame_names = _BEGIN + view._span_names + _FRAME
        return view

    def sample(self, component, name, value):
        self.tracer.ring.append(
            (self.sim.now, component, "sample", _SAMPLE, sys.intern(self._prefix + name), value)
        )

    def span_begin(self, component, name, parent=0, ts=None, **attrs):
        sid = next(self._span_ids)
        keys = tuple(attrs)
        names = self._begin_names.get(keys)
        if names is None:
            names = self._begin_names[keys] = _BEGIN + self._span_names + keys
        self.tracer.ring.append(
            (
                self.sim.now if ts is None else ts,
                component,
                "span_begin",
                names,
                sid,
                parent,
                name,
                *self._span_values,
                *attrs.values(),
            )
        )
        return sid

    def span_end(self, span_id, ts=None, **attrs):
        if span_id:
            self.tracer.ring.append(
                (
                    self.sim.now if ts is None else ts,
                    "",
                    "span_end",
                    _END + tuple(attrs) if attrs else _END,
                    span_id,
                    *attrs.values(),
                )
            )

    def span_point(self, component, name, parent=0, **attrs):
        sid = self.span_begin(component, name, parent=parent, **attrs)
        self.span_end(sid)
        return sid

    def frame(self, link, queue_key, wire_bytes, queued, start, end, parent, name="frame"):
        self.tracer.ring.append(
            (
                start,
                "net",
                "span",
                self._frame_names,
                end,
                next(self._span_ids),
                parent,
                name,
                *self._span_values,
                wire_bytes,
                link,
            )
        )


# -- random sequences -----------------------------------------------------------


class Clock:
    """The simulator's clock is all the writers read."""

    now = 0
    current_task = None


COMPONENTS = st.sampled_from(("rpc", "nfs", "vm", "net", ""))
NAMES = st.sampled_from(("write", "WRITE", "backlog", "cwnd", "page_dirty"))
TIMES = st.integers(0, 2**40)
IDS = st.integers(0, 60)
RECORD_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.text(max_size=4),
    st.integers(-(2**70), 2**70),
)
ATTR_VALUES = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=4), st.booleans())
FIELDS = st.dictionaries(
    st.sampled_from(("xid", "bytes", "pages", "error", "page")), RECORD_VALUES, max_size=3
)
ATTRS = st.dictionaries(
    st.sampled_from(("xid", "bytes", "pages", "stable", "nbytes")), ATTR_VALUES, max_size=3
)
CLOSING = st.dictionaries(st.sampled_from(("error", "code")), ATTR_VALUES, max_size=2)
WHO = st.sampled_from(("root", "view"))
MAYBE_TS = st.one_of(st.none(), TIMES)

OPS = st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 1000)),
    st.tuples(st.just("record"), COMPONENTS, st.sampled_from(("charge", "send", "sample")), FIELDS),
    st.tuples(
        st.just("sample"),
        WHO,
        COMPONENTS,
        NAMES,
        st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False)),
    ),
    st.tuples(st.just("span_begin"), WHO, COMPONENTS, NAMES, IDS, MAYBE_TS, ATTRS),
    st.tuples(st.just("span_end"), WHO, IDS, MAYBE_TS, CLOSING),
    st.tuples(st.just("span_point"), WHO, COMPONENTS, NAMES, IDS, ATTRS),
    st.tuples(
        st.just("frame"),
        WHO,
        st.sampled_from(("c0-up", "c1-down")),
        st.integers(0, 9000),
        TIMES,
        TIMES,
        IDS,
        st.sampled_from(("frame", "frame_dropped")),
    ),
    # Enough entries in one go to pass the tracer's trim threshold.
    st.tuples(st.just("burst"), WHO, st.integers(1, 400)),
    st.tuples(st.just("clear")),
)


def _perform(op, observers, tracer):
    """Apply ``op``; returns what the writer returned."""
    kind = op[0]
    if kind == "advance":
        Clock.now += op[1]
        return None
    if kind == "clear":
        return tracer.clear()
    if kind == "record":
        _, component, rkind, fields = op
        return tracer.record(component, rkind, **fields)
    obs = observers[op[1]]
    if kind == "sample":
        return obs.sample(*op[2:])
    if kind == "span_begin":
        _, _, component, name, parent, ts, attrs = op
        return obs.span_begin(component, name, parent=parent, ts=ts, **attrs)
    if kind == "span_end":
        _, _, span_id, ts, attrs = op
        return obs.span_end(span_id, ts=ts, **attrs)
    if kind == "span_point":
        _, _, component, name, parent, attrs = op
        return obs.span_point(component, name, parent=parent, **attrs)
    if kind == "frame":
        _, _, link, wire_bytes, start, end, parent, name = op
        return obs.frame(link, f"net/{link}/queue_ns", wire_bytes, 0, start, end, parent, name)
    for i in range(op[2]):
        Clock.now += i % 3
        sid = obs.span_begin("rpc", "WRITE", parent=i, xid=i)
        obs.frame("c0-up", "net/c0-up/queue_ns", 1514, 0, Clock.now, Clock.now + 9, sid)
        obs.sample("rpc", "cwnd", i * 0.5)
        if i % 5:
            obs.span_end(sid)
        else:
            obs.span_end(sid, error="EIO")
    return None


def _typed(record):
    time, component, kind, fields = record
    return (
        (time, type(time)),
        (component, type(component)),
        (kind, type(kind)),
        [(name, value, type(value)) for name, value in fields.items()],
    )


def _assert_same(tracer, ref):
    assert len(tracer) == len(ref)
    kinds = (None, "span_begin", "span_end", "sample", "charge", "send", "span")
    components = (None, "rpc", "nfs", "vm", "net", "", "absent")
    for component in components:
        for kind in kinds:
            got = [_typed(r) for r in tracer.records(component=component, kind=kind)]
            want = [_typed(r) for r in ref.records(component=component, kind=kind)]
            assert got == want, (component, kind)


@pytest.mark.parametrize("capacity", [0, 1, 2, 3, 7, 10_000])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, max_size=40))
def test_streams_read_back_what_the_tuple_ring_held(capacity, ops):
    Clock.now = 0
    obs = Observability(Clock, enabled=True, capacity=capacity)
    ref = RefObservability(Clock, capacity)
    observers = {"root": obs, "view": obs.scoped("client1")}
    references = {"root": ref, "view": ref.scoped("client1")}
    for op in ops:
        now = Clock.now
        got = _perform(op, observers, obs.tracer)
        Clock.now = now
        want = _perform(op, references, ref.tracer)
        assert got == want
        assert len(obs.tracer) == len(ref.tracer)
    _assert_same(obs.tracer, ref.tracer)


def test_a_field_that_is_not_an_int_raises_before_any_stream_grows():
    Clock.now = 5
    obs = Observability(Clock, enabled=True, capacity=10)
    obs.sample("rpc", "cwnd", 2)
    with pytest.raises(TypeError):
        obs.span_begin("rpc", "WRITE", parent=None)
    with pytest.raises(TypeError):
        obs.frame("c0-up", "net/c0-up/queue_ns", 1514, 0, 1.5, 9, 0)
    with pytest.raises(OverflowError):
        obs.span_end(2**70)
    assert len(obs.tracer) == 1
    assert obs.tracer.records() == [(5, "rpc", "sample", {"name": "cwnd", "value": 2})]
