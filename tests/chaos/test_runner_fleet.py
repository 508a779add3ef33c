"""Fleet scenarios through the chaos runner.

Satellite contract: the fleet crash-during-COMMIT scenario proves the
NFSv3 verifier-mismatch path under concurrency — every client sees the
new boot verifier, re-dirties its unstable pages, and still reaches
durability.
"""

import os

import pytest

from repro.chaos import load_scenario, run_spec
from repro.chaos.spec import (
    BedSpec,
    CheckSpec,
    ClientEventSpec,
    LinkFaultSpec,
    ProbeSpec,
    ScenarioSpec,
    ServerEventSpec,
    WorkloadSpec,
)
from repro.errors import ConfigError
from repro.units import KIB, ms

from . import CORPUS, corpus_spec


def _inv(outcome, name):
    """Invariant row by name; per-server rows carry a [host] suffix."""
    for inv in outcome.invariants:
        if inv.name == name or inv.name.startswith(f"{name}["):
            return inv
    raise AssertionError(f"no invariant {name!r} in {outcome.invariants}")


def test_fleet_crash_commit_redirties_every_client():
    spec = corpus_spec("fleet-crash-commit")
    outcome = run_spec(spec, verify_determinism=False)
    assert outcome.passed, [
        (i.name, i.detail) for i in outcome.invariants if not i.ok
    ]
    assert _inv(outcome, "files-complete-durable").ok
    assert _inv(outcome, "fleet-clients-redirtied").ok
    # The crash really lost unstable state: the server restarted with a
    # new boot verifier and every client saw the mismatch.
    assert outcome.payload["boot_verf"] == [2]
    # The redirty check's detail lists clients that saw no mismatch;
    # its pass + empty list means all three clients hit the new verifier.
    assert _inv(outcome, "fleet-clients-redirtied").detail.endswith(": ")
    assert len(outcome.payload["clients"]) == 3


def test_fleet_starvation_routes_to_owning_client():
    pinned = load_scenario(os.path.join(CORPUS, "fleet-starved-client.json"))
    spec = pinned.replace(
        checks=pinned.checks + (CheckSpec("starvation-applied"),)
    )
    outcome = run_spec(spec, verify_determinism=False)
    assert outcome.passed
    assert _inv(outcome, "starvation-applied").ok
    # A check row reads the run; the payload keeps its pinned digest.
    assert outcome.fingerprint == pinned.expect.fingerprint


def _fleet_spec(**kwargs):
    base = dict(
        name="t-fleet",
        bed=BedSpec(target="netapp", client="stock", clients=2),
        workload=WorkloadSpec(file_bytes=64 * KIB),
        checks=(CheckSpec("fleet-files-durable"),),
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


def test_probes_are_single_client_only():
    spec = _fleet_spec(probes=(ProbeSpec(at_ns=ms(1)),))
    with pytest.raises(ConfigError, match="single-client only"):
        run_spec(spec, verify_determinism=False)


def test_eio_expectation_is_single_client_only():
    spec = _fleet_spec(workload=WorkloadSpec(file_bytes=64 * KIB, expect="eio"))
    with pytest.raises(ConfigError, match="single-client only"):
        run_spec(spec, verify_determinism=False)


def test_bare_client_attach_is_ambiguous_in_fleet():
    spec = _fleet_spec(
        link_faults=(
            LinkFaultSpec(kind="jitter", attach="client", direction="uplink"),
        )
    )
    with pytest.raises(ConfigError, match="ambiguous"):
        run_spec(spec, verify_determinism=False)


def test_server_event_index_bounds_checked():
    spec = _fleet_spec(
        server_events=(ServerEventSpec(op="crash", at_ns=ms(1), server=3),)
    )
    with pytest.raises(ConfigError, match="targets server 3"):
        run_spec(spec, verify_determinism=False)


def test_fleet_client_event_index_bounds_checked():
    spec = _fleet_spec(
        client_events=(ClientEventSpec(client=7, start_ns=ms(1), end_ns=ms(2)),)
    )
    with pytest.raises(
        ConfigError, match=r"targets client 7; scenario has 2 client\(s\)"
    ):
        run_spec(spec, verify_determinism=False)


def test_single_bed_client_event_index_bounds_checked():
    spec = ScenarioSpec(
        name="t-single",
        bed=BedSpec(target="netapp", client="stock"),
        workload=WorkloadSpec(file_bytes=64 * KIB),
        client_events=(ClientEventSpec(client=3, start_ns=ms(1), end_ns=ms(2)),),
        checks=(CheckSpec("starvation-applied"),),
    )
    with pytest.raises(
        ConfigError, match=r"targets client 3; scenario has 1 client\(s\)"
    ):
        run_spec(spec, verify_determinism=False)


def test_sweeps_are_single_client_only():
    spec = _fleet_spec(sweep_loss_rates=(0.0, 0.02))
    with pytest.raises(ConfigError, match="single-client only"):
        run_spec(spec, verify_determinism=False)
