"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns an integer-nanosecond clock, ``now``, and
runs callbacks in ``(time, seq)`` order: events scheduled for the same
instant fire in the order they were scheduled (a monotonically
increasing sequence number breaks ties), which makes every run
bit-for-bit reproducible.

Simulated concurrency is expressed with generator-based tasks (see
:mod:`repro.sim.task`); the core only knows about timed callbacks, plus
:meth:`Simulator.run_until_done`, which runs until given tasks finish.

An event waits in one of two places:

* **The heap** holds every event due later than now, and every
  cancellable one.  :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` push ``(time, seq, handle)`` with a
  cancellable :class:`EventHandle`.  A positive-delay
  :meth:`Simulator.call_after` and :meth:`Simulator.call_at` push a
  bare ``(time, seq, fn, args)`` tuple: no per-event object, no
  ``cancelled`` test on dispatch.  Each link frame in flight is one
  such entry (its delivery), and so is each running CPU slot (its
  completion), which ``CpuSet`` pushes itself.  Entries are ordered by
  their ``(time, seq)`` prefix; ``seq`` is unique, so comparison never
  reaches the third element and the two shapes coexist safely.
* **The ready lane** is a FIFO deque of zero-delay events, all due at
  ``now``: ``call_after(0, fn, *args)`` appends ``(seq, fn, args)``.
  About half of all events are such continuations (a task resuming
  after its CPU slot, a received fragment's interrupt, the delivery
  after it), and an append and a pop cost far less than a heap push
  and pop.  ``Task._resume``/``_throw`` and ``CpuSet._complete`` append
  this entry themselves, taking ``seq`` from ``sim._seq += 1`` first;
  nothing outside :mod:`repro.sim` may touch either queue.

The run loops merge the two: the lane's head runs unless the heap's
top is due now with a lower ``seq``.  That is exactly the ``(time,
seq)`` order one heap holding every event would give.

Cancelled handles are lazily deleted at pop time, and the heap is
compacted (rebuilt without dead entries) once cancelled entries
outnumber live ones — long fault-injection runs cancel almost every
rpciod retransmit timer, which would otherwise accumulate without
bound.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

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
        #: The simulator whose heap holds this handle; cleared when it
        #: is dispatched, so a later cancel counts no dead entry.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()


class Simulator:
    """Event loop with an integer-nanosecond virtual clock."""

    __slots__ = (
        "now",
        "_seq",
        "_queue",
        "_ready",
        "_running",
        "_cancelled",
        "events_processed",
        "current_task",
    )

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds; only the run loops
        #: move it.
        self.now: int = 0
        self._seq: int = 0
        # The heap: (time, seq, EventHandle) or (time, seq, fn, args).
        self._queue: List[tuple] = []
        # The ready lane: (seq, fn, args), all due at ``now``.
        self._ready: Deque[tuple] = deque()
        self._running = False
        self._cancelled = 0
        #: Total callbacks dispatched (cancelled entries excluded) — the
        #: numerator of the events-per-second benchmarks.
        self.events_processed: int = 0
        #: The task currently being stepped (set by :class:`~repro.sim.task.Task`).
        self.current_task: Optional[object] = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` nanoseconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated ``time`` nanoseconds."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self.now})"
            )
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle))
        return handle

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Fast lane: like :meth:`schedule` but not cancellable.

        No :class:`EventHandle` is allocated; use this for fire-and-forget
        callbacks on hot paths (it is what tasks and timeouts use).  A
        zero delay puts the callback on the ready lane.
        """
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            self._seq = seq = self._seq + 1
            heapq.heappush(self._queue, (self.now + delay, seq, fn, args))
        else:
            self._seq = seq = self._seq + 1
            self._ready.append((seq, fn, args))

    def call_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Fast lane: like :meth:`schedule_at` but not cancellable."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

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
        if until is not None:
            return self._run_to(until, None)
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        now = self.now
        processed = 0
        try:
            # Kept apart from ``_run_to``: with no stop test and no
            # horizon, timed events dispatch as fast as before the lane.
            while True:
                while ready:
                    if queue:
                        top = queue[0]
                        if top[0] == now and top[1] < ready[0][0]:
                            break
                    _seq, fn, args = popleft()
                    processed += 1
                    fn(*args)
                if not queue:
                    break
                entry = heappop(queue)
                if len(entry) == 4:
                    now = self.now = entry[0]
                    processed += 1
                    entry[2](*entry[3])
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    now = self.now = entry[0]
                    processed += 1
                    handle._sim = None
                    handle.fn(*handle.args)
        finally:
            self._running = False
            self.events_processed += processed
        return self.now

    def run_for(self, duration: int) -> int:
        """Process events for ``duration`` nanoseconds of simulated time."""
        return self.run(until=self.now + duration)

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
        return self._run_to(limit, "run_until", predicate=predicate)

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
        return self._run_to(limit, "run_until_done", tasks=tasks)

    def _run_to(
        self,
        horizon: Optional[int],
        limit_error: Optional[str],
        predicate: Optional[Callable[[], bool]] = None,
        tasks: Optional[List[Task]] = None,
    ) -> int:
        """The loop with a stop test, behind every bounded run.

        Before each event it stops once ``predicate()`` is true or every
        task of ``tasks`` is done.  No event later than ``horizon`` runs:
        the loop peeks at it and leaves it queued.  ``run(until)`` passes
        ``limit_error=None`` and then moves the clock to the horizon;
        the others raise :class:`SimulationError` naming ``limit_error``,
        with the clock pinned at the horizon.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        countdown = None if tasks is None else Countdown(tasks)
        queue = self._queue
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        now = self.now
        if ready and horizon is not None and horizon < now:
            # A horizon behind the clock is the one way a ready entry can
            # lie past it: move the lane to the heap, where the peek
            # below stops at it as it would at any later event.
            for seq, fn, args in ready:
                heapq.heappush(queue, (now, seq, fn, args))
            ready.clear()
        self._running = True
        processed = 0
        try:
            while (countdown is None or countdown.left) and (
                predicate is None or not predicate()
            ):
                if ready and not (
                    queue and queue[0][0] == now and queue[0][1] < ready[0][0]
                ):
                    _seq, fn, args = popleft()
                    processed += 1
                    fn(*args)
                    continue
                if not queue:
                    break
                entry = queue[0]
                if horizon is not None and entry[0] > horizon:
                    if limit_error is None:
                        break
                    if len(entry) == 3 and entry[2].cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    self.now = horizon
                    raise SimulationError(
                        f"{limit_error} hit the time limit at {horizon} ns"
                    )
                heappop(queue)
                if len(entry) == 4:
                    now = self.now = entry[0]
                    processed += 1
                    entry[2](*entry[3])
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    now = self.now = entry[0]
                    processed += 1
                    handle._sim = None
                    handle.fn(*handle.args)
            if limit_error is None and self.now < horizon:
                self.now = horizon
        finally:
            self._running = False
            self.events_processed += processed
        return self.now

    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events.  Mostly for tests."""
        return len(self._queue) + len(self._ready)
