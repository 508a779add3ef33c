"""Events-per-second micro-benchmark for the simulation core.

The sweeps dispatch ~10^8 events per `run --all`, so the event loop's
per-event overhead bounds everything else.  This bench drives the loop
with the two event shapes the traced workloads produce, and reports
events/sec in ``extra_info`` so future PRs can show sim-core speedups
as a number, not a feeling:

* short self-rescheduling timed callback chains (CPU slot completions,
  frame deliveries, timeouts);
* continuation chains: each timed slot issues a zero-delay
  continuation, as ``CpuSet._complete`` resumes the task that yielded
  the slot.  About half of every workload's events are such
  continuations.

``_SeedSimulator`` below is a faithful replica of the seed event loop
(an :class:`EventHandle` allocated per event, per-event ``until`` and
``cancelled`` checks) kept as the fixed baseline; both shapes assert
the current core beats it by 1.3x.
"""

import heapq
import time

N_CHAINS = 64
EVENTS_PER_CHAIN = 2_000
TOTAL_EVENTS = N_CHAINS * EVENTS_PER_CHAIN
#: Interleaved best-of rounds of the continuation case.
CONTINUATION_ROUNDS = 15


class _SeedHandle:
    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time, fn, args):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False


class _SeedSimulator:
    """The seed repo's event loop, verbatim in behaviour."""

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._queue = []

    def call_after(self, delay, fn, *args):  # seed spelling: schedule()
        handle = _SeedHandle(self._now + delay, fn, args)
        self._seq += 1
        heapq.heappush(self._queue, (handle.time, self._seq, handle))
        return handle

    def run(self, until=None):
        while self._queue:
            time_, _seq, handle = self._queue[0]
            if until is not None and time_ > until:
                break
            heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = time_
            handle.fn(*handle.args)
        if until is not None and self._now < until:
            self._now = until
        return self._now


def churn(sim):
    """Run N_CHAINS interleaved self-rescheduling callback chains."""
    left = [EVENTS_PER_CHAIN] * N_CHAINS

    def tick(i):
        left[i] -= 1
        if left[i]:
            sim.call_after(10 + i, tick, i)

    for i in range(N_CHAINS):
        sim.call_after(i, tick, i)
    sim.run()
    assert not any(left)


def continuations(sim):
    """Run N_CHAINS interleaved slot-then-continuation chains."""
    left = [EVENTS_PER_CHAIN // 2] * N_CHAINS

    def resume(i):
        left[i] -= 1
        if left[i]:
            sim.call_after(10 + i, complete, i)

    def complete(i):
        sim.call_after(0, resume, i)

    for i in range(N_CHAINS):
        sim.call_after(i, complete, i)
    sim.run()
    assert not any(left)
    return sim


def test_fast_lane_events_per_second(benchmark, capsys):
    from repro.sim import Simulator

    def body():
        sim = Simulator()
        churn(sim)
        return sim

    sim = benchmark.pedantic(body, rounds=3, iterations=1)
    assert sim.events_processed == TOTAL_EVENTS
    fast_rate = TOTAL_EVENTS / benchmark.stats.stats.min

    # Baseline: best of the same number of timed seed-loop runs.
    seed_elapsed = min(
        _timed(lambda: churn(_SeedSimulator())) for _ in range(3)
    )
    seed_rate = TOTAL_EVENTS / seed_elapsed

    benchmark.extra_info["events_per_second"] = round(fast_rate)
    benchmark.extra_info["seed_events_per_second"] = round(seed_rate)
    benchmark.extra_info["speedup_vs_seed"] = round(fast_rate / seed_rate, 2)
    with capsys.disabled():
        print(
            f"\nsim core: {fast_rate:,.0f} ev/s "
            f"(seed loop {seed_rate:,.0f} ev/s, "
            f"{fast_rate / seed_rate:.2f}x)"
        )
    assert fast_rate > 1.3 * seed_rate


def test_continuation_events_per_second(benchmark, capsys):
    """Zero-delay continuations after timed slots, against the seed loop.

    The rounds of the two loops interleave, and alternate which runs
    first, so drift in host speed hits both.
    """
    from repro.sim import Simulator

    def interleaved():
        current, seed = [], []
        for i in range(CONTINUATION_ROUNDS):
            runs = [
                (current, lambda: continuations(Simulator())),
                (seed, lambda: continuations(_SeedSimulator())),
            ]
            for times, run in runs[:: 1 if i % 2 else -1]:
                times.append(_timed(run))
        return min(current), min(seed)

    best, seed_best = benchmark.pedantic(interleaved, rounds=1, iterations=1)
    assert continuations(Simulator()).events_processed == TOTAL_EVENTS
    rate, seed_rate = TOTAL_EVENTS / best, TOTAL_EVENTS / seed_best

    benchmark.extra_info["events_per_second"] = round(rate)
    benchmark.extra_info["seed_events_per_second"] = round(seed_rate)
    benchmark.extra_info["speedup_vs_seed"] = round(rate / seed_rate, 2)
    with capsys.disabled():
        print(
            f"\ncontinuations: {rate:,.0f} ev/s "
            f"(seed loop {seed_rate:,.0f} ev/s, {rate / seed_rate:.2f}x)"
        )
    assert rate > 1.3 * seed_rate


def test_task_stepping_events_per_second(benchmark, capsys):
    """The task layer on top: generator steps through the fast lane."""
    from repro.sim import Simulator

    def body():
        sim = Simulator()

        def worker():
            for _ in range(EVENTS_PER_CHAIN // 2):
                yield sim.timeout(10)

        for i in range(N_CHAINS):
            sim.spawn(worker(), name=f"w{i}", daemon=True)
        sim.run()
        return sim

    sim = benchmark.pedantic(body, rounds=3, iterations=1)
    rate = sim.events_processed / benchmark.stats.stats.min
    benchmark.extra_info["events_per_second"] = round(rate)
    with capsys.disabled():
        print(f"\ntask stepping: {rate:,.0f} ev/s")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
