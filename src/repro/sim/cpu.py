"""CPU model: a set of cores on which work charges labelled compute time.

A task performs work with ``yield cpus.execute(ns, label)``: ``execute``
submits the slot and returns it as a plain waitable.  Code that is not
a task, such as the receive interrupt path in :mod:`repro.net.host`,
calls ``cpus.submit(ns, label, priority, fn, args)`` instead.  A slot
queues until a core is free; the core then runs it to completion (work
units in this codebase are all a few tens of microseconds, so
non-preemptive slots are an adequate model of the 2.4 kernel, which did
not preempt kernel code either).

A slot carries its continuation: ``fn(*args)``, or the next step of the
task that yields it, bound when the task yields it.  A running slot is
one heap entry, its completion; the continuation then runs as a
zero-delay event, so a callback and a task that finish at the same
instant resume in submission order.  A zero-length slot charges
nothing and makes no event: ``submit`` calls ``fn`` at once, and
``execute`` returns :data:`~repro.sim.task.CONTINUE`, which the task
steps past without leaving its generator.

Three priority levels mirror interrupt > softirq/kernel daemon > user
work.  Exact per-label time accounting feeds the profiler-style reports
the paper relies on for its diagnosis.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .core import Simulator
from .task import CONTINUE, Task, Waitable

__all__ = ["CpuSet", "PRIO_INTERRUPT", "PRIO_KERNEL", "PRIO_USER"]

PRIO_INTERRUPT = 0
PRIO_KERNEL = 1
PRIO_USER = 2

#: ``Task._step`` arguments that resume a task with ``None``, as
#: ``Task._resume(None)`` would.
_RESUME = (None, None)


class _ExecRequest(Waitable):
    """One CPU slot and its continuation ``fn(*args)``.

    Creating a request submits it: it starts on a free core of ``cpus``
    at once, pushing its completion onto the simulator heap as
    ``call_after(duration, cpus._complete, core, request)`` would, or
    queues by priority.  A task's request has no continuation until the
    task yields it: :meth:`_arm` binds it to the task's next step.
    """

    __slots__ = ("duration", "label", "fn", "args")

    def __init__(
        self,
        cpus: "CpuSet",
        duration: int,
        label: str,
        priority: int,
        fn: Optional[Callable[..., None]],
        args: Tuple[Any, ...],
    ):
        self.duration = duration
        self.label = label
        self.fn = fn
        self.args = args
        free = cpus._free
        if free:
            core = free.pop()
            cpus.core_labels[core] = label
            sim = cpus._sim
            sim._seq = seq = sim._seq + 1
            heappush(
                sim._queue, (sim.now + duration, seq, cpus._complete, (core, self))
            )
        else:
            cpus._seq += 1
            heappush(cpus._queue, (priority, cpus._seq, self))

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
        self._created_at = sim.now

    # -- work submission ------------------------------------------------------

    def execute(
        self, duration: int, label: str = "kernel", priority: int = PRIO_USER
    ) -> Waitable:
        """Submit ``duration`` ns of CPU under ``label`` for the task that
        yields the result: ``yield cpus.execute(ns, label)``.

        The task resumes, with ``None``, when the slot ends.  A zero
        duration returns :data:`~repro.sim.task.CONTINUE`: the task goes
        on at once, with no event.
        """
        if duration <= 0:
            if duration < 0:
                raise SimulationError(f"{self.name}: negative duration {duration}")
            return CONTINUE
        return _ExecRequest(self, duration, label, priority, None, ())

    def submit(
        self,
        duration: int,
        label: str,
        priority: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Queue ``duration`` ns of CPU under ``label``, then ``fn(*args)``.

        When the slot ends, ``fn(*args)`` runs as a zero-delay event.  A
        zero duration calls ``fn`` at once, as :meth:`execute` lets its
        task go on at once without an event.
        """
        if duration <= 0:
            if duration < 0:
                raise SimulationError(f"{self.name}: negative duration {duration}")
            fn(*args)
            return
        _ExecRequest(self, duration, label, priority, fn, args)

    # -- internals -------------------------------------------------------------

    def _complete(self, core: int, req: _ExecRequest) -> None:
        by_label = self.time_by_label
        by_label[req.label] = by_label.get(req.label, 0) + req.duration
        sim = self._sim
        if self._queue:
            nxt = heappop(self._queue)[2]
            self.core_labels[core] = nxt.label
            sim._seq = seq = sim._seq + 1
            heappush(
                sim._queue, (sim.now + nxt.duration, seq, self._complete, (core, nxt))
            )
        else:
            self.core_labels[core] = None
            self._free.append(core)
        # The continuation goes straight onto the ready lane, as
        # ``call_after(0, req.fn, *req.args)`` would put it.
        sim._seq = seq = sim._seq + 1
        sim._ready.append((seq, req.fn, req.args))

    # -- reporting --------------------------------------------------------------

    @property
    def total_busy_ns(self) -> int:
        """Nanoseconds of compute charged, over every label."""
        return sum(self.time_by_label.values())

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
