"""Unit tests for the CPU model and sampling profiler."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    PRIO_INTERRUPT,
    PRIO_USER,
    CpuSet,
    SamplingProfiler,
    Simulator,
)
from repro.units import us


def test_single_cpu_serializes_work():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    finished = []

    def worker(tag):
        yield cpus.execute(us(10), label=f"w{tag}")
        finished.append((tag, sim.now))

    sim.spawn(worker(0))
    sim.spawn(worker(1))
    sim.run()
    assert finished == [(0, us(10)), (1, us(20))]


def test_two_cpus_run_in_parallel():
    sim = Simulator()
    cpus = CpuSet(sim, 2)
    finished = []

    def worker(tag):
        yield cpus.execute(us(10), label="work")
        finished.append((tag, sim.now))

    sim.spawn(worker(0))
    sim.spawn(worker(1))
    sim.run()
    assert finished == [(0, us(10)), (1, us(10))]


def test_priority_queue_prefers_interrupts():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    order = []

    def hog():
        yield cpus.execute(us(10), label="hog")
        order.append("hog")

    def user():
        yield sim.timeout(1)
        yield cpus.execute(us(5), label="user", priority=PRIO_USER)
        order.append("user")

    def intr():
        yield sim.timeout(2)
        yield cpus.execute(us(1), label="intr", priority=PRIO_INTERRUPT)
        order.append("intr")

    sim.spawn(hog())
    sim.spawn(user())
    sim.spawn(intr())
    sim.run()
    assert order == ["hog", "intr", "user"]


def test_time_accounting_by_label():
    sim = Simulator()
    cpus = CpuSet(sim, 2)

    def worker():
        yield cpus.execute(us(10), label="alpha")
        yield cpus.execute(us(20), label="beta")
        yield cpus.execute(us(5), label="alpha")

    sim.spawn(worker())
    sim.run()
    assert cpus.time_by_label == {"alpha": us(15), "beta": us(20)}
    assert cpus.total_busy_ns == us(35)
    assert cpus.top_labels() == [("beta", us(20)), ("alpha", us(15))]


def test_zero_duration_execute_is_free():
    sim = Simulator()
    cpus = CpuSet(sim, 1)

    def worker():
        yield cpus.execute(0, label="nothing")
        return sim.now

    task = sim.spawn(worker())
    sim.run()
    assert task.result == 0
    assert "nothing" not in cpus.time_by_label
    # The task's first step is the only event.
    assert sim.events_processed == 1


def test_a_run_of_zero_duration_slots_neither_recurses_nor_schedules():
    sim = Simulator()
    cpus = CpuSet(sim, 1)

    def worker():
        for _ in range(5000):
            yield cpus.execute(0, label="nothing")
        return sim.now

    task = sim.spawn(worker())
    sim.run()
    assert task.done and task.error is None
    assert task.result == 0
    assert sim.events_processed == 1


def test_slot_continuation_is_bound_when_yielded():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    resumed = []

    def worker():
        slot = cpus.execute(us(10), label="work")
        yield sim.timeout(us(1))
        resumed.append(("timeout", sim.now))
        yield slot
        resumed.append(("slot", sim.now))

    sim.spawn(worker())
    sim.run()
    assert resumed == [("timeout", us(1)), ("slot", us(10))]


def test_callback_and_task_slots_resume_in_submission_order():
    sim = Simulator()
    cpus = CpuSet(sim, 4)
    resumed = []

    def note(tag):
        resumed.append((tag, sim.now))

    def worker(tag):
        yield cpus.execute(us(10), label="task")
        note(tag)

    # Four slots submitted in this order at t=0 all end at us(10).
    sim.call_after(0, cpus.submit, us(10), "cb", PRIO_USER, note, ("cb0",))
    sim.spawn(worker("task1"))
    sim.call_after(0, cpus.submit, us(10), "cb", PRIO_USER, note, ("cb2",))
    sim.spawn(worker("task3"))
    sim.run()
    assert resumed == [
        ("cb0", us(10)), ("task1", us(10)), ("cb2", us(10)), ("task3", us(10))
    ]


def test_priority_applies_to_callback_slots():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    order = []
    cpus.submit(us(10), "hog", PRIO_USER, order.append, ("hog",))
    cpus.submit(us(5), "user", PRIO_USER, order.append, ("user",))
    cpus.submit(us(1), "intr", PRIO_INTERRUPT, order.append, ("intr",))
    sim.run()
    assert order == ["hog", "intr", "user"]
    assert sim.now == us(16)


def test_zero_duration_callback_runs_inline():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    ran = []
    assert cpus.submit(0, "nothing", PRIO_USER, ran.append, ("now",)) is None
    assert ran == ["now"]
    assert sim.pending_events() == 0
    sim.run()
    assert sim.events_processed == 0
    assert "nothing" not in cpus.time_by_label
    with pytest.raises(SimulationError):
        cpus.submit(-1, "negative", PRIO_USER, ran.append, ("never",))


def test_callback_slots_charge_time_by_label_like_task_slots():
    work = [(us(10), "alpha"), (us(20), "beta"), (us(5), "alpha")]

    def charged(callbacks):
        sim = Simulator()
        cpus = CpuSet(sim, 2)
        if callbacks:
            def chain(i):
                if i < len(work):
                    duration, label = work[i]
                    cpus.submit(duration, label, PRIO_USER, chain, (i + 1,))

            chain(0)
        else:
            def worker():
                for duration, label in work:
                    yield cpus.execute(duration, label=label)

            sim.spawn(worker())
        sim.run()
        return cpus.time_by_label, cpus.total_busy_ns, sim.now

    assert charged(True) == charged(False)
    assert charged(True) == ({"alpha": us(15), "beta": us(20)}, us(35), us(35))


def test_negative_duration_rejected():
    sim = Simulator()
    cpus = CpuSet(sim, 1)

    def worker():
        yield cpus.execute(-1)

    sim.spawn(worker(), daemon=True)
    sim.run()


def test_utilization():
    sim = Simulator()
    cpus = CpuSet(sim, 2)

    def worker():
        yield cpus.execute(us(10), label="w")

    sim.spawn(worker())
    sim.run(until=us(10))
    assert cpus.utilization() == pytest.approx(0.5)


def test_need_at_least_one_cpu():
    sim = Simulator()
    with pytest.raises(SimulationError):
        CpuSet(sim, 0)


def test_profiler_samples_busy_labels():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    prof = SamplingProfiler(sim, cpus, period=us(1))

    def worker():
        yield cpus.execute(us(100), label="hot")
        yield cpus.execute(us(10), label="cool")

    prof.start()
    sim.spawn(worker())
    sim.run(until=us(110))
    prof.stop()
    top = prof.top(2)
    assert top[0][0] == "hot"
    assert prof.fraction("hot") > prof.fraction("cool")
    assert "samples" in prof.report()


def test_profiler_counts_idle():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    prof = SamplingProfiler(sim, cpus, period=us(1))
    prof.start()
    sim.run(until=us(50))
    prof.stop()
    assert prof.samples.get(SamplingProfiler.IDLE, 0) == 50
    assert prof.fraction("anything") == 0.0
