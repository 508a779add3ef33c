"""ScenarioSpec round-trips and field validation."""

import os

import pytest

from repro.chaos import corpus_files, loads_scenario
from repro.chaos.spec import (
    BedSpec,
    ClientEventSpec,
    LinkFaultSpec,
    ProbeSpec,
    ServerEventSpec,
    WorkloadSpec,
)
from repro.errors import ConfigError
from repro.units import ms

from . import CORPUS, corpus_spec

CORPUS_NAMES = [
    os.path.splitext(os.path.basename(path))[0]
    for path in corpus_files(CORPUS, include_regressions=False)
]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_corpus_spec_round_trips_through_json(name):
    spec = corpus_spec(name)
    assert loads_scenario(spec.to_json()) == spec


def test_unknown_link_fault_kind_rejected():
    with pytest.raises(ConfigError, match="unknown link fault kind"):
        LinkFaultSpec(kind="wormhole", attach="client", direction="downlink")


def test_unknown_link_fault_param_rejected():
    with pytest.raises(ConfigError, match="p_bogus"):
        LinkFaultSpec(
            kind="gilbert-elliott",
            attach="client",
            direction="downlink",
            params=(("p_bogus", 0.5),),
        )


def test_bad_link_direction_rejected():
    with pytest.raises(ConfigError, match="direction"):
        LinkFaultSpec(kind="jitter", attach="client", direction="sideways")


def test_server_crash_needs_at_ns():
    with pytest.raises(ConfigError, match="needs at_ns"):
        ServerEventSpec(op="crash")


def test_server_pause_needs_window():
    with pytest.raises(ConfigError, match="start_ns/end_ns"):
        ServerEventSpec(op="pause", at_ns=ms(5))


def test_server_event_schedule_ops():
    op, args = ServerEventSpec(op="crash", at_ns=ms(10)).schedule_ops()
    assert op == "crash_at"
    assert args[0] == ms(10)
    op, args = ServerEventSpec(
        op="jukebox", start_ns=0, end_ns=ms(60)
    ).schedule_ops()
    assert op == "jukebox_between"
    assert args == (0, ms(60))


def test_client_event_window_must_be_positive():
    with pytest.raises(ConfigError, match="positive duration"):
        ClientEventSpec(start_ns=ms(10), end_ns=ms(10), slots=1)


def test_client_event_needs_one_slot():
    with pytest.raises(ConfigError, match="below one slot"):
        ClientEventSpec(start_ns=0, end_ns=ms(1), slots=0)


def test_probe_kind_validated():
    with pytest.raises(ConfigError, match="unknown probe kind"):
        ProbeSpec(kind="crystal-ball", at_ns=0)


def test_bed_needs_a_client():
    with pytest.raises(ConfigError, match="at least one client"):
        BedSpec(target="netapp", client="stock", clients=0)


def test_workload_expect_validated():
    with pytest.raises(ConfigError, match="unknown workload expectation"):
        WorkloadSpec(file_bytes=4096, expect="enoent")


def test_replace_returns_new_spec():
    spec = corpus_spec("lossy-burst")
    bigger = spec.replace(workload=spec.workload)
    assert bigger == spec
    shrunk = spec.replace(link_faults=spec.link_faults[:1])
    assert shrunk != spec
    assert shrunk.fault_count() == spec.fault_count() - 1


def test_fault_count_counts_every_schedule_entry():
    spec = corpus_spec("server-restart")
    assert spec.fault_count() == len(spec.server_events)


def test_bad_json_is_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        loads_scenario("{nope")
