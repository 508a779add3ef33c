"""Delta-debugging shrinker: minimality, determinism, and bounds."""

import pytest

from repro.chaos.shrink import shrink
from repro.chaos.spec import BedSpec
from repro.errors import ConfigError

from . import corpus_spec


def crash_oracle(spec):
    """Synthetic failure: fires iff the schedule contains a crash."""
    if any(ev.op == "crash" for ev in spec.server_events):
        return ("no-stable-data-lost",)
    return ()


def test_shrinks_to_single_event_minimal_reproducer():
    spec = corpus_spec("server-restart")
    result = shrink(spec, crash_oracle)
    # Only the crash event is load-bearing for this oracle: the restart,
    # the probe, and all but one chunk of the file must be gone.
    assert [ev.op for ev in result.spec.server_events] == ["crash"]
    assert result.spec.probes == ()
    assert result.spec.fault_count() == 1
    assert result.spec.workload.file_bytes == spec.workload.chunk_bytes
    assert result.signature == ("no-stable-data-lost",)
    assert result.steps == len(result.trace) > 0


def test_shrink_is_deterministic():
    spec = corpus_spec("server-restart")
    first = shrink(spec, crash_oracle)
    second = shrink(spec, crash_oracle)
    assert first.spec == second.spec
    assert first.trace == second.trace
    assert first.attempts == second.attempts


def test_halved_durations_survive_when_load_bearing():
    spec = corpus_spec("server-restart")

    def late_crash_oracle(candidate):
        # Fails only while the crash happens at its original time, so
        # the time-halving pass must NOT be accepted.
        crashes = [ev for ev in candidate.server_events if ev.op == "crash"]
        if any(ev.at_ns == spec.server_events[0].at_ns for ev in crashes):
            return ("deterministic",)
        return ()

    result = shrink(spec, late_crash_oracle)
    assert [ev.op for ev in result.spec.server_events] == ["crash"]
    assert result.spec.server_events[0].at_ns == spec.server_events[0].at_ns


def test_passing_spec_is_a_usage_error():
    spec = corpus_spec("lossy-burst")
    with pytest.raises(ConfigError, match="passing scenario"):
        shrink(spec, lambda s: ())


def test_max_attempts_bounds_oracle_invocations():
    spec = corpus_spec("server-restart")
    calls = []

    def counting_oracle(candidate):
        calls.append(1)
        return crash_oracle(candidate)

    result = shrink(spec, counting_oracle, max_attempts=5)
    # 1 signature probe + at most 5 shrink attempts.
    assert len(calls) <= 6
    assert result.attempts <= 5
    # Partial progress is still returned.
    assert result.spec.fault_count() <= spec.fault_count()


def test_oracle_config_errors_skip_candidate():
    spec = corpus_spec("server-restart")

    def fragile_oracle(candidate):
        # Pretend any candidate without a restart is unbuildable; the
        # shrinker must skip those, not crash, and keep the restart.
        if not any(ev.op == "restart" for ev in candidate.server_events):
            raise ConfigError("restart reference dangling")
        return crash_oracle(candidate)

    result = shrink(spec, fragile_oracle)
    ops = sorted(ev.op for ev in result.spec.server_events)
    assert ops == ["crash", "restart"]


def test_client_shedding_halves_fleet():
    base = corpus_spec("server-restart")
    fleet = base.replace(
        bed=BedSpec(
            target=base.bed.target,
            client=base.bed.client,
            clients=4,
            mount=base.bed.mount,
        )
    )
    result = shrink(fleet, crash_oracle)
    assert result.spec.bed.clients == 1
