"""Additional profiler coverage."""

import pytest

from repro.errors import SimulationError
from repro.sim import CpuSet, SamplingProfiler, Simulator
from repro.units import us


def test_double_start_rejected():
    sim = Simulator()
    prof = SamplingProfiler(sim, CpuSet(sim, 1), period=us(1))
    prof.start()
    with pytest.raises(SimulationError):
        prof.start()


def test_invalid_period_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        SamplingProfiler(sim, CpuSet(sim, 1), period=0)


def test_stop_halts_sampling():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    prof = SamplingProfiler(sim, cpus, period=us(1))
    prof.start()
    sim.run(until=us(10))
    prof.stop()
    count = prof.total_samples
    sim.run(until=us(50))
    assert prof.total_samples == count


def test_multi_core_samples_all_cores():
    sim = Simulator()
    cpus = CpuSet(sim, 2)
    prof = SamplingProfiler(sim, cpus, period=us(1))

    def worker(label):
        yield cpus.execute(us(20), label=label)

    prof.start()
    sim.spawn(worker("alpha"))
    sim.spawn(worker("beta"))
    sim.run(until=us(20))
    prof.stop()
    assert prof.samples.get("alpha", 0) > 0
    assert prof.samples.get("beta", 0) > 0
    # Two cores per tick.
    assert prof.total_samples == 2 * 20


def test_fraction_sums_to_one_over_busy_labels():
    sim = Simulator()
    cpus = CpuSet(sim, 1)
    prof = SamplingProfiler(sim, cpus, period=us(1))

    def worker():
        yield cpus.execute(us(30), label="a")
        yield cpus.execute(us(10), label="b")

    prof.start()
    sim.spawn(worker())
    sim.run(until=us(40))
    prof.stop()
    total = prof.fraction("a") + prof.fraction("b")
    assert total == pytest.approx(1.0)
    assert prof.fraction("a") > prof.fraction("b")
