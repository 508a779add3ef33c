"""The ready lane keeps the one-heap ``(time, seq)`` schedule.

Zero-delay events wait on a FIFO ready lane instead of the heap (see
:mod:`repro.sim.core`).  The property test runs random programs on the
:class:`Simulator` and on :class:`Reference`, a scheduler where every
event is a ``(time, seq)`` heap entry, and asserts that both dispatch
the same callbacks at the same clock readings.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import CpuSet, Event, EventHandle, Simulator, Task, Timeout


class _HeapLane:
    """``Reference._ready``: the direct ready-lane appends of tasks and
    CPU slots become heap entries due now."""

    def __init__(self, ref):
        self._ref = ref

    def append(self, entry):
        seq, fn, args = entry
        heapq.heappush(self._ref._queue, (self._ref.now, seq, fn, args))


class Reference:
    """One heap of ``(time, seq, fn, args)``: the schedule before the
    ready lane, and the order the :class:`Simulator` must keep.

    CPU slots push their completions onto ``_queue`` directly, as they
    do on the :class:`Simulator`'s heap.  A cancellable entry's handle
    is kept by its ``seq``.
    """

    def __init__(self):
        self.now = self._seq = self.events_processed = 0
        self._queue = []
        self._ready = _HeapLane(self)
        self._handles = {}
        self.current_task = None

    def _push(self, time, fn, args):
        if time < self.now:
            raise SimulationError("in the past")
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))
        return self._seq

    def call_at(self, time, fn, *args):
        self._push(time, fn, args)

    def call_after(self, delay, fn, *args):
        self.call_at(self.now + delay, fn, *args)

    def schedule(self, delay, fn, *args):
        handle = EventHandle(self.now + delay, fn, args)  # only its flag is used
        self._handles[self._push(handle.time, fn, args)] = handle
        return handle

    def run(self, until=None):
        return self.run_until(lambda: False, until, stop_at_limit=True)

    def run_until_done(self, tasks, limit=None):
        return self.run_until(lambda: all(t.done for t in tasks), limit)

    def run_until(self, predicate, limit=None, stop_at_limit=False):
        heap = self._queue
        while not predicate() and heap:
            time, seq, fn, args = heap[0]
            handle = self._handles.get(seq)
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                continue
            if limit is not None and time > limit:
                if stop_at_limit:
                    break
                self.now = limit
                raise SimulationError("limit")
            heapq.heappop(heap)
            self.now = time
            self.events_processed += 1
            fn(*args)
        if stop_at_limit and limit is not None and self.now < limit:
            self.now = limit
        return self.now


# A node is (kind, delay, children): performing it schedules a callback
# that logs its label and clock, then performs the children.
KINDS = ("after", "after", "at", "schedule", "cancel", "spawn", "slot")
DELAYS = st.sampled_from((0, 0, 0, 1, 2, 5, 10))
NODES = st.recursive(
    st.tuples(st.sampled_from(KINDS), DELAYS, st.just(())),
    lambda kids: st.tuples(st.sampled_from(KINDS), DELAYS, st.lists(kids, max_size=3)),
    max_leaves=20,
)
RUNS = st.one_of(
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("until"), st.integers(-3, 25)),
    st.tuples(st.just("run_until"), st.one_of(st.none(), st.integers(-3, 25))),
    st.tuples(st.just("done"), st.one_of(st.none(), st.integers(-3, 25))),
)
PROGRAMS = st.lists(
    st.tuples(st.lists(NODES, max_size=4), RUNS, st.integers(0, 6)), max_size=5
)


class World:
    """Performs a program on one scheduler and logs what ran when."""

    def __init__(self, sim):
        self.sim = sim
        self.cpus = CpuSet(sim, 1)
        self.log = []
        self.handles = []
        self.tasks = []
        self._labels = 0

    def perform(self, node):
        kind, delay, children = node
        sim = self.sim
        self._labels += 1
        label = self._labels
        if kind == "after":
            sim.call_after(delay, self.fire, label, children)
        elif kind == "at":
            sim.call_at(sim.now + delay, self.fire, label, children)
        elif kind == "schedule":
            self.handles.append(sim.schedule(delay, self.fire, label, children))
        elif kind == "cancel":
            if self.handles:
                self.handles[delay % len(self.handles)].cancel()
            for child in children:
                self.perform(child)
        elif kind == "spawn":
            self.tasks.append(Task(sim, self.body(label, delay, children)))
        else:
            self.cpus.submit(delay, "slot", 0, self.fire, (label, children))

    def fire(self, label, children):
        self.log.append((label, self.sim.now))
        for child in children:
            self.perform(child)

    def body(self, label, delay, children):
        # Odd steps wait for a CPU slot, zero-length ones included.
        for step, child in enumerate(children):
            if step % 2:
                yield self.cpus.execute(delay, "task")
            else:
                yield Timeout(self.sim, delay)
            self.log.append((label, step, self.sim.now))
            self.perform(child)
        return label

    def play(self, program):
        sim = self.sim
        for nodes, (how, offset), steps in program:
            for node in nodes:
                self.perform(node)
            limit = None if offset is None else max(0, sim.now + offset)
            try:
                if how == "run":
                    sim.run()
                elif how == "until":
                    sim.run(until=limit)
                elif how == "run_until":
                    target = len(self.log) + steps
                    sim.run_until(lambda: len(self.log) >= target, limit)
                else:
                    sim.run_until_done(list(self.tasks), limit)
            except SimulationError:
                self.log.append(("limit", sim.now))
            self.log.append(("ran", how, sim.now, sim.events_processed))
        sim.run()
        self.log.append(("drained", sim.now, sim.events_processed))
        return self.log


@given(PROGRAMS)
@settings(max_examples=150, deadline=None)
def test_dispatch_matches_the_one_heap_reference(program):
    assert World(Simulator()).play(program) == World(Reference()).play(program)


def test_heap_entry_due_now_with_lower_seq_runs_before_the_ready_lane():
    sim = Simulator()
    fired = []

    def at_ten():
        sim.call_at(sim.now, fired.append, "call_at-1")
        sim.schedule(0, fired.append, "handle")
        sim.call_after(0, fired.append, "ready-1")
        sim.call_after(0, fired.append, "ready-2")
        sim.call_at(sim.now, fired.append, "call_at-2")

    sim.call_after(10, at_ten)
    sim.run()
    assert fired == ["call_at-1", "handle", "ready-1", "ready-2", "call_at-2"]
    assert sim.now == 10


@pytest.mark.parametrize("how", ["run_until", "run_until_done"])
def test_limit_error_with_a_ready_lane_keeps_it_queued_and_resumes(how):
    sim = Simulator()
    fired = []

    def stuck():
        yield Event(sim)  # never triggered

    sim.run(until=100)
    task = sim.spawn(stuck(), daemon=True)
    sim.call_after(0, lambda: fired.append(("a", sim.now)))
    sim.call_after(0, lambda: fired.append(("b", sim.now)))
    pending = sim.pending_events()
    with pytest.raises(SimulationError):
        # A limit behind the clock: the ready entries lie past it.
        if how == "run_until":
            sim.run_until(lambda: False, limit=50)
        else:
            sim.run_until_done([task], limit=50)
    assert sim.now == 50 and fired == []
    assert sim.pending_events() == pending == 3
    sim.run()
    assert fired == [("a", 100), ("b", 100)]
    assert sim.now == 100 and sim.events_processed == 3
