"""Tests for the event-loop fast lane, compaction, the run_until limit
fix (peek before pop) and the run_until_done countdown loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Simulator


class TestCallAfter:
    def test_interleaves_with_handle_events_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, fired.append, "handle-30")
        sim.call_after(10, fired.append, "fast-10")
        sim.call_after(30, fired.append, "fast-30")
        sim.schedule(20, fired.append, "handle-20")
        sim.run()
        assert fired == ["fast-10", "handle-20", "handle-30", "fast-30"]

    def test_same_time_fires_in_schedule_order_across_lanes(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, 0)
        sim.call_after(5, fired.append, 1)
        sim.schedule(5, fired.append, 2)
        sim.run()
        assert fired == [0, 1, 2]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(-1, lambda: None)

    def test_call_at_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.call_at(50, lambda: None)

    def test_fast_events_work_in_run_until(self):
        sim = Simulator()
        fired = []
        sim.call_after(10, fired.append, "a")
        sim.call_after(20, fired.append, "b")
        sim.run_until(lambda: len(fired) == 1)
        assert fired == ["a"]
        assert sim.pending_events() == 1


class TestEventsProcessed:
    def test_counts_dispatched_callbacks(self):
        sim = Simulator()
        for i in range(5):
            sim.call_after(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_cancelled_events_not_counted(self):
        sim = Simulator()
        handles = [sim.schedule(i, lambda: None) for i in range(4)]
        handles[1].cancel()
        handles[2].cancel()
        sim.run()
        assert sim.events_processed == 2

    def test_accumulates_across_runs(self):
        sim = Simulator()
        sim.call_after(1, lambda: None)
        sim.run()
        sim.call_after(1, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestCompaction:
    def test_mass_cancellation_shrinks_the_heap(self):
        sim = Simulator()
        handles = [sim.schedule(1000 + i, lambda: None) for i in range(100)]
        assert sim.pending_events() == 100
        for handle in handles[:60]:
            handle.cancel()
        # Once dead entries outnumbered live ones the heap was rebuilt;
        # only the post-compaction stragglers may still linger.
        assert sim.pending_events() < 60
        sim.run()
        assert sim.events_processed == 40  # exactly the live events fired

    def test_few_cancellations_do_not_compact(self):
        sim = Simulator()
        handles = [sim.schedule(1000 + i, lambda: None) for i in range(100)]
        for handle in handles[:5]:
            handle.cancel()
        assert sim.pending_events() == 100  # lazy deletion only

    def test_compaction_preserves_order_and_cancellation(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(10 * i, fired.append, i) for i in range(50)]
        sim.call_after(5, fired.append, "fast")
        for handle in handles[1:40]:  # cancel enough to trigger compaction
            handle.cancel()
        sim.run()
        assert fired == [0, "fast"] + list(range(40, 50))

    def test_cancel_during_run_stays_consistent(self):
        sim = Simulator()
        fired = []
        victims = [sim.schedule(1000 + i, fired.append, i) for i in range(40)]

        def axe():
            for victim in victims:
                victim.cancel()

        sim.schedule(500, axe)
        sim.run()
        assert fired == []
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("loop", ["run", "run_until"])
    def test_cancelling_fired_handles_counts_no_dead_entries(self, loop, monkeypatch):
        """Regression: a fired handle still knew its simulator, so each
        cancel counted a dead heap entry that did not exist and drove
        compactions of an empty heap."""
        compactions = []
        monkeypatch.setattr(Simulator, "_compact", lambda sim: compactions.append(sim))
        sim = Simulator()
        handles = [sim.schedule(i, lambda: None) for i in range(20)]
        if loop == "run":
            sim.run()
        else:
            sim.run_until(lambda: False, limit=100)
        for handle in handles:
            handle.cancel()
        assert sim._cancelled == 0
        assert compactions == []
        assert all(handle.cancelled for handle in handles)

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(1, lambda: None)
        sim.run()
        for _ in range(20):
            handle.cancel()  # counter noise must not corrupt the queue
        sim.call_after(1, lambda: None)
        sim.run()
        assert sim.pending_events() == 0


class TestRunUntilLimit:
    def test_limit_hit_raises_and_pins_clock(self):
        sim = Simulator()
        sim.call_after(100, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, limit=50)
        assert sim.now == 50

    def test_over_limit_event_is_not_dropped(self):
        """Regression: the event past the limit used to be heap-popped
        before the limit check and lost; a caller that caught the error
        and resumed ran a corrupted simulation."""
        sim = Simulator()
        fired = []
        sim.call_after(100, fired.append, "late")
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, limit=50)
        assert sim.pending_events() == 1
        sim.run()  # resume after the guard: the event must still fire
        assert fired == ["late"]
        assert sim.now == 100

    def test_resume_with_extended_limit(self):
        sim = Simulator()
        fired = []
        sim.call_after(100, fired.append, "late")
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, limit=50)
        sim.run_until(lambda: bool(fired), limit=200)
        assert fired == ["late"]

    def test_cancelled_events_past_limit_drain_without_raising(self):
        sim = Simulator()
        handle = sim.schedule(100, lambda: None)
        handle.cancel()
        sim.run_until(lambda: False, limit=50)  # queue drains, no error
        assert sim.pending_events() == 0

    def test_limit_exactly_at_event_time_fires(self):
        sim = Simulator()
        fired = []
        sim.call_after(50, fired.append, "edge")
        sim.run_until(lambda: bool(fired), limit=50)
        assert fired == ["edge"]
        assert sim.now == 50


def _tasks_world():
    """Three workers of different lengths beside a perpetual daemon, so
    the queue never drains and only the stop test ends a run."""
    sim = Simulator()

    def daemon():
        while True:
            yield sim.timeout(7)

    def worker(rounds):
        for _ in range(rounds):
            yield sim.timeout(10)
        return rounds

    sim.spawn(daemon(), daemon=True)
    tasks = [sim.spawn(worker(n), daemon=True) for n in (3, 1, 5)]
    return sim, tasks


class TestRunUntilDone:
    def test_stops_on_the_same_event_as_the_predicate_loop(self):
        by_predicate, tasks = _tasks_world()
        by_predicate.run_until(lambda: all(t.done for t in tasks))
        by_countdown, counted = _tasks_world()
        by_countdown.run_until_done(counted)
        assert by_countdown.events_processed == by_predicate.events_processed
        assert by_countdown.now == by_predicate.now == 50
        assert by_countdown.pending_events() == by_predicate.pending_events()
        assert [t.result for t in counted] == [3, 1, 5]

    def test_limit_is_checked_before_popping_and_the_run_resumes(self):
        straight, everyone = _tasks_world()
        straight.run_until_done(everyone)
        sim, tasks = _tasks_world()
        with pytest.raises(SimulationError):
            sim.run_until_done(tasks, limit=25)
        assert sim.now == 25
        assert not tasks[0].done and tasks[1].done
        sim.run_until_done(tasks)
        assert sim.events_processed == straight.events_processed
        assert sim.now == straight.now

    def test_cancelled_events_past_the_limit_drain_without_raising(self):
        sim = Simulator()

        def stuck():
            yield Event(sim)  # never triggered

        task = sim.spawn(stuck(), daemon=True)
        sim.schedule(100, lambda: None).cancel()
        sim.run_until_done([task], limit=50)
        assert sim.pending_events() == 0
        assert not task.done

    def test_returns_at_once_when_every_task_is_done(self):
        sim, tasks = _tasks_world()
        sim.run_until_done(tasks)
        events, now, pending = sim.events_processed, sim.now, sim.pending_events()
        assert sim.run_until_done(tasks) == now
        assert sim.run_until_done([]) == now
        assert sim.events_processed == events
        assert sim.pending_events() == pending

    def test_a_failed_task_counts_as_done(self):
        sim, tasks = _tasks_world()

        def failing():
            yield sim.timeout(15)
            raise ValueError("boom")

        bad = sim.spawn(failing(), daemon=True)
        sim.run_until_done([bad, tasks[1]])
        assert sim.now == 15
        assert bad.done and isinstance(bad.error, ValueError)
        assert not tasks[0].done
