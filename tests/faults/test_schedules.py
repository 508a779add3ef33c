"""Fault-primitive validation: bad schedules fail before the run."""

import pytest

from repro.errors import ConfigError
from repro.faults import ServerFaultSchedule, SlotStarvation
from repro.sim import Simulator
from repro.units import ms


def test_schedule_rejects_empty_windows():
    class _Server:
        sim = Simulator()

        @staticmethod
        def pause():
            raise AssertionError("must not schedule")

    schedule = ServerFaultSchedule(_Server())
    with pytest.raises(ConfigError):
        schedule.pause_between(ms(5), ms(5))
    with pytest.raises(ConfigError):
        schedule.jukebox_between(ms(10), ms(2))


def test_slot_starvation_rejects_bad_config():
    sim = Simulator()
    with pytest.raises(ConfigError):
        SlotStarvation(sim, None, ms(2), ms(1))
    with pytest.raises(ConfigError):
        SlotStarvation(sim, None, ms(1), ms(2), slots=0)
