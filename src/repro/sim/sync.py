"""Synchronization primitives for simulated tasks.

All primitives are strictly FIFO: waiters are served in the order they
blocked, which keeps runs deterministic and mirrors the wait queues of
the Linux kernel paths we model.

:class:`MonitoredLock` is the building block for the Big Kernel Lock
model — it is reentrant per task (like ``lock_kernel()``) and records
contention statistics the experiments report on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .core import Simulator
from .task import Task, Waitable

__all__ = ["Event", "Lock", "MonitoredLock", "Semaphore", "WaitQueue", "LockStats"]


class Event(Waitable):
    """A one-shot level-triggered event carrying an optional value.

    Its waiters wait in a list, dropped once the event fires: a waiter
    arriving later resumes at once.
    """

    __slots__ = ("_sim", "fired", "value", "_waiters")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.fired = False
        self.value: Any = None
        self._waiters: Optional[List[Task]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all current and future waiters."""
        if self.fired:
            raise SimulationError("event triggered twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, None
        for task in waiters:
            task._resume(value)

    def _arm(self, task: Task) -> None:
        if self.fired:
            task._resume(self.value)
        else:
            self._waiters.append(task)


class _Acquisition(Waitable):
    """Pending lock/semaphore acquisition."""

    __slots__ = ("granted", "task")

    def __init__(self) -> None:
        self.granted = False
        self.task: Optional[Task] = None

    def grant(self) -> None:
        if self.task is not None:
            self.task._resume(None)
        else:
            self.granted = True

    def _arm(self, task: Task) -> None:
        if self.granted:
            task._resume(None)
        else:
            self.task = task


class Lock:
    """Non-reentrant FIFO mutex.

    Usage::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, sim: Simulator, name: str = "lock"):
        self._sim = sim
        self.name = name
        self.locked = False
        self._waiters: Deque[_Acquisition] = deque()

    def acquire(self) -> Waitable:
        acq = _Acquisition()
        if not self.locked:
            self.locked = True
            acq.granted = True
        else:
            self._waiters.append(acq)
        return acq

    def release(self) -> None:
        if not self.locked:
            raise SimulationError(f"{self.name}: release of unlocked lock")
        if self._waiters:
            self._waiters.popleft().grant()
        else:
            self.locked = False


class LockStats:
    """Aggregated contention statistics for a :class:`MonitoredLock`."""

    __slots__ = (
        "acquisitions",
        "contended",
        "total_wait_ns",
        "total_hold_ns",
        "max_wait_ns",
        "max_hold_ns",
        "wait_by_label",
        "hold_by_label",
    )

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contended = 0
        self.total_wait_ns = 0
        self.total_hold_ns = 0
        self.max_wait_ns = 0
        self.max_hold_ns = 0
        self.wait_by_label: Dict[str, int] = {}
        self.hold_by_label: Dict[str, int] = {}

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to wait."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended / self.acquisitions

    def mean_wait_ns(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait_ns / self.acquisitions

    def add_wait(self, label: str, wait_ns: int) -> None:
        self.wait_by_label[label] = self.wait_by_label.get(label, 0) + wait_ns
        self.total_wait_ns += wait_ns
        if wait_ns > self.max_wait_ns:
            self.max_wait_ns = wait_ns

    def add_hold(self, label: str, hold_ns: int) -> None:
        self.hold_by_label[label] = self.hold_by_label.get(label, 0) + hold_ns
        self.total_hold_ns += hold_ns
        if hold_ns > self.max_hold_ns:
            self.max_hold_ns = hold_ns


class MonitoredLock:
    """Reentrant FIFO mutex with contention accounting.

    The owner is the task holding it; a task may acquire the lock again
    while holding it (the hold depth is tracked, like ``lock_kernel()``'s
    ``lock_depth``).  ``acquire``/``release`` must be driven from task
    context via ``yield from lock.hold(...)`` or the lower-level
    generator helpers below.
    """

    def __init__(self, sim: Simulator, name: str = "mlock"):
        self._sim = sim
        self.name = name
        self.owner: Optional[Task] = None
        self.depth = 0
        self._held_since = 0
        self._hold_label = ""
        self._waiters: Deque[Tuple[_Acquisition, Task, int]] = deque()
        self.stats = LockStats()
        #: optional passive observer (see repro.analysis.sanitize).
        self.sanitizer = None

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def acquire(self, label: str = "unknown"):
        """Generator: acquire the lock (reentrantly), recording wait time."""
        task = self._sim.current_task
        if task is None:
            raise SimulationError(f"{self.name}: acquire outside task context")
        self.stats.acquisitions += 1
        if self.owner is task:
            self.depth += 1
            if self.sanitizer is not None:
                self.sanitizer.on_reenter(self, task)
            return
            yield  # pragma: no cover - makes this a generator
        if self.owner is None:
            self._take(task, label)
            if self.sanitizer is not None:
                self.sanitizer.on_acquire(self, task, label)
            return
            yield  # pragma: no cover
        self.stats.contended += 1
        start = self._sim.now
        acq = _Acquisition()
        self._waiters.append((acq, task, start))
        if self.sanitizer is not None:
            self.sanitizer.on_block(self, task, label)
        yield acq
        # _handoff assigned ownership to us before resuming.
        wait = self._sim.now - start
        self.stats.add_wait(label, wait)
        self._hold_label = label
        self._held_since = self._sim.now

    def release(self) -> None:
        task = self._sim.current_task
        if self.owner is not task:
            raise SimulationError(
                f"{self.name}: release by non-owner "
                f"({getattr(task, 'name', None)!r} vs "
                f"{getattr(self.owner, 'name', None)!r})"
            )
        if self.depth > 1:
            self.depth -= 1
            if self.sanitizer is not None:
                self.sanitizer.on_exit(self, task)
            return
        self.stats.add_hold(self._hold_label, self._sim.now - self._held_since)
        self.depth = 0
        self.owner = None
        if self.sanitizer is not None:
            self.sanitizer.on_release(self, task)
        if self._waiters:
            acq, waiter_task, _start = self._waiters.popleft()
            self.owner = waiter_task
            self.depth = 1
            if self.sanitizer is not None:
                self.sanitizer.on_handoff(self, waiter_task)
            acq.grant()

    def hold(self, label: str, body):
        """Generator: run generator ``body`` while holding the lock."""
        yield from self.acquire(label)
        try:
            result = yield from body
        finally:
            # Skip the release during generator GC (current_task is then
            # None): the abandoned simulation's lock state is moot.
            if self._sim.current_task is self.owner:
                self.release()
        return result

    def _take(self, task: Task, label: str) -> None:
        self.owner = task
        self.depth = 1
        self._held_since = self._sim.now
        self._hold_label = label


class Semaphore:
    """Counting semaphore with FIFO waiters."""

    def __init__(self, sim: Simulator, value: int, name: str = "sem"):
        if value < 0:
            raise SimulationError(f"{name}: negative initial value")
        self._sim = sim
        self.name = name
        self.value = value
        self._waiters: Deque[_Acquisition] = deque()

    def acquire(self) -> Waitable:
        acq = _Acquisition()
        if self.value > 0 and not self._waiters:
            self.value -= 1
            acq.granted = True
        else:
            self._waiters.append(acq)
        return acq

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().grant()
        else:
            self.value += 1


class WaitQueue:
    """Condition-style queue: tasks sleep until somebody wakes them.

    This is the analogue of the kernel's wait-queue + ``wake_up`` pattern
    used, e.g., to throttle writers against ``MAX_REQUEST_HARD``.
    Waiters must re-check their predicate after waking (spurious-safe
    loop), exactly as ``wait_event`` does.
    """

    def __init__(self, sim: Simulator, name: str = "waitq"):
        self._sim = sim
        self.name = name
        self._waiters: Deque[Event] = deque()
        self.total_sleeps = 0
        self.total_sleep_ns = 0
        #: optional passive observer (see repro.analysis.sanitize).
        self.sanitizer = None

    def sleep(self):
        """Generator: block until the next wake_one/wake_all."""
        event = Event(self._sim)
        self._waiters.append(event)
        if self.sanitizer is not None:
            self.sanitizer.on_sleep(self, event)
        self.total_sleeps += 1
        start = self._sim.now
        yield event
        self.total_sleep_ns += self._sim.now - start

    def wait_until(self, predicate):
        """Generator: sleep in a loop until ``predicate()`` is true."""
        while not predicate():
            yield from self.sleep()

    def wake_one(self) -> None:
        if self._waiters:
            event = self._waiters.popleft()
            if self.sanitizer is not None:
                self.sanitizer.on_wake(self, event)
            event.trigger()

    def wake_all(self) -> None:
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, deque()
        for event in waiters:
            if self.sanitizer is not None:
                self.sanitizer.on_wake(self, event)
            event.trigger()

    @property
    def sleeping(self) -> int:
        return len(self._waiters)
