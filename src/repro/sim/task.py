"""Generator-based simulated tasks.

A task is a Python generator that ``yield``\\ s :class:`Waitable` objects
(timeouts, events, lock acquisitions, CPU execution slots...).  Nested
simulated functions compose with ``yield from``, so only the leaves of
the call tree ever yield an actual waitable.

Example::

    def worker(sim):
        yield sim.timeout(us(10))
        yield from do_more_work(sim)
        return 42

    task = sim.spawn(worker(sim), name="worker")
    sim.run()
    assert task.result == 42

Failure semantics: an exception escaping a task is re-raised inside any
joiner.  If nobody is joining a non-daemon task, the exception propagates
out of :meth:`Simulator.run` wrapped in :class:`TaskFailed` — errors never
pass silently.  :meth:`Simulator.run_until_done` joins its tasks too and
leaves each failure on the task's ``error`` for its caller to raise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..errors import SimulationError, TaskFailed

if TYPE_CHECKING:
    from .core import Simulator

__all__ = ["Waitable", "Timeout", "Task", "AllOf", "CONTINUE"]


class Waitable:
    """Anything a task may ``yield``.

    Subclasses implement :meth:`_arm`, which is called exactly once with
    the yielding task; the waitable must eventually call
    ``task._resume(value)`` or ``task._throw(exc)``, or put on the
    simulator's ready lane the same zero-delay ``task._step`` entry that
    ``_resume`` appends (a CPU slot's completion does that).  The one
    exception is :data:`CONTINUE`, which is never armed.
    """

    __slots__ = ()

    def _arm(self, task: "Task") -> None:  # pragma: no cover - interface
        raise NotImplementedError


class _Continue(Waitable):
    """The type of :data:`CONTINUE`."""

    __slots__ = ()


#: The waitable of a zero-length CPU slot: the task goes on at once,
#: with no event.  ``Task._step`` sends the generator ``None`` again
#: instead of arming it, in a loop, so a run of them cannot recurse.
CONTINUE = _Continue()


class Timeout(Waitable):
    """Fires after a fixed simulated delay."""

    __slots__ = ("_sim", "_delay")

    def __init__(self, sim: Simulator, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self._sim = sim
        self._delay = delay

    def _arm(self, task: "Task") -> None:
        self._sim.call_after(self._delay, task._resume, None)


class Task(Waitable):
    """Drives a generator through the event loop.

    Yielding a task from another task joins it: the joiner resumes when
    the task finishes, receiving its return value (or its exception).
    """

    __slots__ = (
        "_sim",
        "_gen",
        "name",
        "daemon",
        "done",
        "result",
        "error",
        "_joiners",
        "_cancelled",
    )

    def __init__(
        self,
        sim: Simulator,
        generator,
        name: Optional[str] = None,
        daemon: bool = False,
    ):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__}"
            )
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "task")
        self.daemon = daemon
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List["Task"] = []
        self._cancelled = False
        sim.call_after(0, self._step, None, None)

    # -- public ------------------------------------------------------------

    def join(self) -> "Task":
        """Waitable alias: ``yield task.join()`` reads naturally."""
        return self

    def cancel(self) -> None:
        """Stop the task by throwing GeneratorExit at its next step."""
        self._cancelled = True

    # -- Waitable ----------------------------------------------------------

    def _arm(self, task: "Task") -> None:
        if self.done:
            if self.error is not None:
                task._throw(self.error)
            else:
                task._resume(self.result)
        else:
            self._joiners.append(task)

    # -- machinery -----------------------------------------------------------

    def _resume(self, value: Any) -> None:
        # The ready-lane entry ``call_after(0, self._step, value, None)``
        # would append, without its frame (see :mod:`repro.sim.core`).
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        sim._ready.append((seq, self._step, (value, None)))

    def _throw(self, exc: BaseException) -> None:
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        sim._ready.append((seq, self._step, (None, exc)))

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.done:
            return
        if self._cancelled:
            self._gen.close()
            self._finish(None, None)
            return
        sim = self._sim
        prev = sim.current_task
        sim.current_task = self
        try:
            if exc is not None:
                item = self._gen.throw(exc)
            else:
                item = self._gen.send(value)
            while item is CONTINUE:
                item = self._gen.send(None)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001 - must capture task failures
            self._finish(None, err)
            return
        finally:
            sim.current_task = prev
        if not isinstance(item, Waitable):
            self._finish(
                None,
                SimulationError(
                    f"task {self.name!r} yielded {type(item).__name__}, "
                    "expected a Waitable"
                ),
            )
            return
        item._arm(self)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.done = True
        self.result = result
        self.error = error
        joiners, self._joiners = self._joiners, []
        if error is not None and not joiners and not self.daemon:
            raise TaskFailed(self.name, repr(error)) from error
        for joiner in joiners:
            if error is not None:
                joiner._throw(error)
            else:
                joiner._resume(result)


class AllOf(Waitable):
    """Resumes once every given task has finished.

    The resume value is the list of task results in the given order.
    If any task fails, the first failure (in completion order) is
    re-raised in the waiter.
    """

    __slots__ = ("_tasks",)

    def __init__(self, tasks: List[Task]):
        self._tasks = list(tasks)

    def _arm(self, task: Task) -> None:
        failed = next((t for t in self._tasks if t.done and t.error), None)
        if failed is not None:
            task._throw(failed.error)  # type: ignore[arg-type]
            return
        if not Countdown(self._tasks, task).left:
            task._resume([t.result for t in self._tasks])


class Countdown:
    """A never-stepped joiner that counts unfinished tasks down to zero.

    It joins every task of ``tasks`` not yet done, so each one's
    completion resumes (or, on failure, throws at) it like any joiner:
    ``left`` is the number still running, and a failed task counts as
    finished.  Reading ``left`` costs no Python call, which is what
    :meth:`Simulator.run_until_done` checks before every event.

    With a ``waiter`` task it is :class:`AllOf`'s machinery: the waiter
    resumes with every result once ``left`` reaches zero, or gets the
    first failure thrown in.
    """

    __slots__ = ("left", "_tasks", "_waiter")

    def __init__(self, tasks: List[Task], waiter: Optional[Task] = None):
        self.left = 0
        self._tasks = tasks
        self._waiter = waiter
        for t in tasks:
            if not t.done:
                self.left += 1
                t._joiners.append(self)  # type: ignore[arg-type]

    def _resume(self, value: Any) -> None:
        self.left -= 1
        if not self.left and self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter._resume([t.result for t in self._tasks])

    def _throw(self, exc: BaseException) -> None:
        self.left -= 1
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter._throw(exc)
