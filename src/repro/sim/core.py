"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns an integer-nanosecond clock and a binary-heap
event queue.  Events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties), which makes every run bit-for-bit reproducible.

Simulated concurrency is expressed with generator-based tasks (see
:mod:`repro.sim.task`); the core only knows about timed callbacks, plus
:meth:`Simulator.run_until_done`, which runs until given tasks finish.

Two scheduling lanes share one heap:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`EventHandle` (heap entry ``(time, seq, handle)``).
* :meth:`Simulator.call_after` / :meth:`Simulator.call_at` are the fast
  lane for the vast majority of events that are never cancelled (task
  steps, timeouts, CPU slot completions, frame deliveries): the entry is
  a bare ``(time, seq, fn, args)`` tuple — no per-event object
  allocation, no ``cancelled`` test on dispatch.

Heap entries are ordered by their ``(time, seq)`` prefix; ``seq`` is
unique, so comparison never reaches the third element and the two entry
shapes coexist safely.  Cancelled handles are lazily deleted at pop
time, and the heap is compacted (rebuilt without dead entries) once
cancelled entries outnumber live ones — long fault-injection runs cancel
almost every rpciod retransmit timer, which would otherwise accumulate
without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from .task import Countdown, Task, Timeout

__all__ = ["Simulator", "EventHandle"]

#: Compaction floor: don't bother rebuilding heaps smaller than this.
_COMPACT_MIN_CANCELLED = 8


class EventHandle:
    """A cancellable reference to a scheduled callback."""

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()


class Simulator:
    """Event loop with an integer-nanosecond virtual clock."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        # Entries are (time, seq, EventHandle) or (time, seq, fn, args).
        self._queue: List[tuple] = []
        self._running = False
        self._cancelled = 0
        #: Total callbacks dispatched (cancelled entries excluded) — the
        #: numerator of the events-per-second benchmarks.
        self.events_processed: int = 0
        #: The task currently being stepped (set by :class:`~repro.sim.task.Task`).
        self.current_task: Optional[object] = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` nanoseconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated ``time`` nanoseconds."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle))
        return handle

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Fast lane: like :meth:`schedule` but not cancellable.

        No :class:`EventHandle` is allocated; use this for fire-and-forget
        callbacks on hot paths (it is what tasks and timeouts use).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, fn, args))

    def call_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Fast lane: like :meth:`schedule_at` but not cancellable."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

    def alloc_seq(self) -> int:
        """Reserve the next tie-break sequence number without queueing.

        Pairs with :meth:`push_at`: a caller that defers heap insertion
        (e.g. a link keeping one live event per wire) reserves the seq
        at submission time, so pop order is identical to eager
        ``call_at`` — ``(time, seq)`` keys don't depend on *when* the
        entry physically enters the heap.
        """
        self._seq += 1
        return self._seq

    def push_at(self, time: int, seq: int, fn: Callable[..., None], *args: Any) -> None:
        """Insert a fast-lane entry under a seq from :meth:`alloc_seq`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        heapq.heappush(self._queue, (time, seq, fn, args))

    # -- cancellation bookkeeping -------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; compacts when dead
        entries exceed half the heap."""
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Mutates ``self._queue`` in place (the run loops hold a local
        alias).  Pop order is unchanged: entry keys ``(time, seq)`` are
        unique, so any heap over the same live entries drains identically.
        """
        queue = self._queue
        queue[:] = [
            entry for entry in queue if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(queue)
        self._cancelled = 0

    # -- task support -------------------------------------------------------

    def spawn(self, generator, name: Optional[str] = None, daemon: bool = False):
        """Start a generator-based task.  See :class:`repro.sim.task.Task`."""
        return Task(self, generator, name=name, daemon=daemon)

    def timeout(self, delay: int):
        """A waitable that fires after ``delay`` nanoseconds."""
        return Timeout(self, delay)

    # -- running ------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time at which processing stopped.  When
        ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            if until is None:
                # Hoisted fast loop: no bound check per event.
                while queue:
                    entry = heappop(queue)
                    if len(entry) == 4:
                        self._now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        self._now = entry[0]
                        processed += 1
                        handle.fn(*handle.args)
            else:
                while queue:
                    if queue[0][0] > until:
                        break
                    entry = heappop(queue)
                    if len(entry) == 4:
                        self._now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        self._now = entry[0]
                        processed += 1
                        handle.fn(*handle.args)
                if self._now < until:
                    self._now = until
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def run_for(self, duration: int) -> int:
        """Process events for ``duration`` nanoseconds of simulated time."""
        return self.run(until=self._now + duration)

    def run_until(self, predicate: Callable[[], bool], limit: Optional[int] = None) -> int:
        """Process events until ``predicate()`` is true or the queue drains.

        Needed because perpetual daemons (flush daemons, rpciod timers)
        keep the queue non-empty forever.  ``predicate`` is called
        before every event; to wait for tasks to finish, use
        :meth:`run_until_done`, which stops on the same event without
        that call.  An optional absolute-time ``limit`` guards against
        wedged runs.

        The limit check peeks before popping: the over-limit event stays
        queued, so a caller that catches the :class:`SimulationError` and
        resumes (e.g. after extending the limit) loses nothing.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            if limit is None:
                # Hoisted fast loop: no limit check per event.
                while not predicate() and queue:
                    entry = heappop(queue)
                    if len(entry) == 4:
                        self._now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        self._now = entry[0]
                        processed += 1
                        handle.fn(*handle.args)
            else:
                while not predicate() and queue:
                    entry = queue[0]
                    if len(entry) == 3 and entry[2].cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    if entry[0] > limit:
                        self._now = limit
                        raise SimulationError(
                            f"run_until hit the time limit at {limit} ns"
                        )
                    heappop(queue)
                    self._now = entry[0]
                    processed += 1
                    if len(entry) == 4:
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        handle.fn(*handle.args)
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def run_until_done(self, tasks: List[Task], limit: Optional[int] = None) -> int:
        """Process events until every task in ``tasks`` has finished or
        the queue drains; returns the simulated time.

        The loop reads a :class:`~repro.sim.task.Countdown` joined to the
        tasks before each event, so it stops on the same event as
        ``run_until(lambda: all(t.done for t in tasks))`` with no Python
        call per event.  A failed task counts as finished; its exception
        stays on ``task.error`` for the caller.  ``limit`` is checked
        before popping, as in :meth:`run_until`.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        countdown = Countdown(tasks)
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            while countdown.left and queue:
                entry = queue[0]
                if limit is not None and entry[0] > limit:
                    if len(entry) == 3 and entry[2].cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    self._now = limit
                    raise SimulationError(
                        f"run_until_done hit the time limit at {limit} ns"
                    )
                heappop(queue)
                if len(entry) == 4:
                    self._now = entry[0]
                    processed += 1
                    entry[2](*entry[3])
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = entry[0]
                    processed += 1
                    handle.fn(*handle.args)
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events.  Mostly for tests."""
        return len(self._queue)
