"""CPU model: a set of cores on which work charges labelled compute time.

A task performs work with ``yield from cpus.execute(ns, label)``.  Code
that is not a task, such as the receive interrupt path in
:mod:`repro.net.host`, calls ``cpus.submit(ns, label, priority, fn,
args)`` instead; ``execute`` is a thin generator over the same
``submit``.  A request queues until a core is free; the core then runs
it to completion (work units in this codebase are all a few tens of
microseconds, so non-preemptive slots are an adequate model of the 2.4
kernel, which did not preempt kernel code either).

A request carries its continuation: ``fn(*args)``, or the next step of
the task that yields it.  When the slot ends, the continuation runs as
a zero-delay event, so a callback and a task that finish at the same
instant resume in submission order.

Three priority levels mirror interrupt > softirq/kernel daemon > user
work.  Exact per-label time accounting feeds the profiler-style reports
the paper relies on for its diagnosis.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .core import Simulator
from .task import Task, Waitable

__all__ = ["CpuSet", "PRIO_INTERRUPT", "PRIO_KERNEL", "PRIO_USER"]

PRIO_INTERRUPT = 0
PRIO_KERNEL = 1
PRIO_USER = 2

#: ``Task._step`` arguments that resume a task with ``None``, as
#: ``Task._resume(None)`` would.
_RESUME = (None, None)


class _ExecRequest(Waitable):
    """One CPU slot and its continuation ``fn(*args)``.

    A task's request has no continuation until the task yields it:
    :meth:`_arm` binds it to the task's next step.
    """

    __slots__ = ("duration", "label", "fn", "args")

    def __init__(
        self,
        duration: int,
        label: str,
        fn: Optional[Callable[..., None]],
        args: Tuple[Any, ...],
    ):
        self.duration = duration
        self.label = label
        self.fn = fn
        self.args = args

    def _arm(self, task: Task) -> None:
        self.fn = task._step
        self.args = _RESUME


class CpuSet:
    """N identical cores with a shared priority run queue."""

    def __init__(self, sim: Simulator, ncpus: int, name: str = "cpu"):
        if ncpus < 1:
            raise SimulationError(f"{name}: need at least one CPU")
        self._sim = sim
        self.name = name
        self.ncpus = ncpus
        self._free: List[int] = list(range(ncpus))
        self._seq = 0
        self._queue: List[Tuple[int, int, _ExecRequest]] = []
        #: Label currently executing on each core (None = idle); sampled
        #: by the profiler.
        self.core_labels: List[Optional[str]] = [None] * ncpus
        #: Exact nanoseconds of compute charged per label.
        self.time_by_label: Dict[str, int] = {}
        self.total_busy_ns = 0
        self._created_at = sim.now

    # -- work submission ------------------------------------------------------

    def execute(self, duration: int, label: str = "kernel", priority: int = PRIO_USER):
        """Generator: consume ``duration`` ns of CPU under ``label``."""
        req = self.submit(duration, label, priority)
        if req is not None:
            yield req

    def submit(
        self,
        duration: int,
        label: str,
        priority: int,
        fn: Optional[Callable[..., None]] = None,
        args: Tuple[Any, ...] = (),
    ) -> Optional[_ExecRequest]:
        """Queue ``duration`` ns of CPU under ``label``; returns the request.

        When the slot ends, its continuation runs as a zero-delay event:
        ``fn(*args)``, or with ``fn=None`` the next step of the task that
        yields the returned request, which is what :meth:`execute` does.
        A zero duration calls ``fn`` at once and returns ``None``, as
        :meth:`execute` returns at once without an event.
        """
        if duration <= 0:
            if duration < 0:
                raise SimulationError(f"{self.name}: negative duration {duration}")
            if fn is not None:
                fn(*args)
            return None
        req = _ExecRequest(duration, label, fn, args)
        if self._free:
            core = self._free.pop()
            self.core_labels[core] = label
            self._sim.call_after(duration, self._complete, core, req)
        else:
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, req))
        return req

    # -- internals -------------------------------------------------------------

    def _complete(self, core: int, req: _ExecRequest) -> None:
        self.time_by_label[req.label] = (
            self.time_by_label.get(req.label, 0) + req.duration
        )
        self.total_busy_ns += req.duration
        sim = self._sim
        if self._queue:
            nxt = heapq.heappop(self._queue)[2]
            self.core_labels[core] = nxt.label
            sim.call_after(nxt.duration, self._complete, core, nxt)
        else:
            self.core_labels[core] = None
            self._free.append(core)
        # The continuation goes straight onto the ready lane, as
        # ``call_after(0, req.fn, *req.args)`` would put it.
        sim._seq = seq = sim._seq + 1
        sim._ready.append((seq, req.fn, req.args))

    # -- reporting --------------------------------------------------------------

    def utilization(self) -> float:
        """Mean core utilization since creation."""
        elapsed = self._sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return self.total_busy_ns / (elapsed * self.ncpus)

    def top_labels(self, n: int = 10) -> List[Tuple[str, int]]:
        """Labels by exact CPU time, descending — the profiler's view."""
        ranked = sorted(self.time_by_label.items(), key=lambda kv: -kv[1])
        return ranked[:n]
