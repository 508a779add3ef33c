"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CpuSet, Lock, Simulator


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
@settings(max_examples=60, deadline=None)
def test_event_loop_never_goes_backwards(delays):
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),  # arrival
            st.integers(min_value=1, max_value=50),  # hold duration
        ),
        max_size=25,
    )
)
@settings(max_examples=50, deadline=None)
def test_lock_is_exclusive_under_arbitrary_schedules(workers):
    sim = Simulator()
    lock = Lock(sim)
    holders = []
    overlap = []

    def worker(arrival, hold):
        yield sim.timeout(arrival)
        yield lock.acquire()
        holders.append(1)
        overlap.append(len(holders))
        yield sim.timeout(hold)
        holders.pop()
        lock.release()

    for arrival, hold in workers:
        sim.spawn(worker(arrival, hold))
    sim.run()
    assert all(n == 1 for n in overlap)
    assert not lock.locked


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_cpu_conserves_work(ncpus, durations):
    """Total accounted CPU time equals the sum of submitted work, and the
    makespan is bounded between ideal parallel time and serial time."""
    sim = Simulator()
    cpus = CpuSet(sim, ncpus)

    def worker(duration):
        yield cpus.execute(duration, label="w")

    for duration in durations:
        sim.spawn(worker(duration))
    end = sim.run()
    total = sum(durations)
    assert cpus.total_busy_ns == total
    assert end >= max(durations)
    assert end >= -(-total // ncpus)  # ceil division: ideal makespan
    assert end <= total


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40))
@settings(max_examples=40, deadline=None)
def test_runs_are_deterministic(delays):
    def one_run():
        sim = Simulator()
        log = []
        for i, delay in enumerate(delays):
            sim.schedule(delay, lambda i=i: log.append((sim.now, i)))
        sim.run()
        return log

    assert one_run() == one_run()
