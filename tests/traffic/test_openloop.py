"""Open-loop session planning and the fleet replay contracts.

Three properties carry the open-loop driver: per-client plans are pure
functions of (spec, client, seed); an open-loop fleet replays to the
same fingerprint — with faults active; and observing a run changes
nothing.
"""

import random

import pytest

from repro.faults.link import DropFrames, Duplicate
from repro.topology import (
    FleetJobSpec,
    FleetWorkload,
    Topology,
    reduce_fleet,
    run_fleet_job,
)
from repro.traffic import ArrivalSpec, MixEntry, SizeSpec, plan_sessions
from repro.units import ms, us

ARRIVALS = ArrivalSpec(
    process="poisson",
    rate_per_s=150.0,
    duration_ns=ms(60),
    sizes=SizeSpec(
        dist="lognormal", bytes=49152, sigma=0.8,
        min_bytes=4096, max_bytes=262144,
    ),
)


def _fleet_spec(clients=3, arrivals=ARRIVALS, **kwargs):
    return FleetJobSpec.homogeneous(
        clients, target="netapp", arrivals=arrivals, **kwargs
    )


# -- planning -----------------------------------------------------------------


def test_plan_is_deterministic():
    a = plan_sessions(ARRIVALS, "client0", 1)
    b = plan_sessions(ARRIVALS, "client0", 1)
    assert a == b and len(a) > 0


def test_plan_varies_by_client_and_seed():
    base = plan_sessions(ARRIVALS, "client0", 1)
    assert plan_sessions(ARRIVALS, "client1", 1) != base
    assert plan_sessions(ARRIVALS, "client0", 2) != base


def test_plan_sessions_ordered_and_sized():
    plan = plan_sessions(ARRIVALS, "client0", 1)
    times = [s.time_ns for s in plan]
    assert times == sorted(times)
    for session in plan:
        params = dict(session.params)
        assert 4096 <= params["file_bytes"] <= 262144
        assert params["file_name"] == f"session{session.index}"


def test_mix_weights_drive_workload_choice():
    mixed = ArrivalSpec(
        process="poisson",
        rate_per_s=400.0,
        duration_ns=ms(100),
        mix=(
            MixEntry(workload="sequential-write", weight=9.0),
            MixEntry(
                workload="database-fsync",
                weight=1.0,
                params=(("transactions", 5),),
            ),
        ),
    )
    plan = plan_sessions(mixed, "client0", 1)
    kinds = [s.workload for s in plan]
    assert kinds.count("sequential-write") > kinds.count("database-fsync")
    assert "database-fsync" in kinds  # the light entry still appears
    fsync = next(s for s in plan if s.workload == "database-fsync")
    assert dict(fsync.params)["transactions"] == 5


# -- fleet replay -------------------------------------------------------------


def _faulted_point(spec):
    """One open-loop fleet run with downlink faults on two clients."""
    topo = Topology(clients=spec.clients, servers=spec.servers, switch=spec.switch)
    topo.switch.install_fault("client1", downlink=DropFrames([3, 7]))
    topo.switch.install_fault(
        "client0",
        downlink=Duplicate(random.Random(5), probability=0.05, lag_ns=us(40)),
    )
    workload = FleetWorkload(
        topo, spec.file_bytes, arrivals=spec.arrivals, seed=spec.seed
    )
    return reduce_fleet(workload.run(time_limit_ns=spec.time_limit_ns))


def test_open_loop_fleet_replays():
    from repro.parallel.executor import SweepExecutor

    specs = [_fleet_spec(clients=2), _fleet_spec(clients=3)]
    inline = [run_fleet_job(spec).run_fingerprint() for spec in specs]
    pooled = [p.run_fingerprint() for p in SweepExecutor(jobs=2).map(specs)]
    assert pooled == inline


def test_open_loop_faulted_fleet_replays():
    spec = _fleet_spec()
    faulted = _faulted_point(spec)
    assert _faulted_point(spec).run_fingerprint() == faulted.run_fingerprint()
    # The faults really changed the run.
    assert faulted.run_fingerprint() != run_fleet_job(spec).run_fingerprint()


def test_open_loop_seed_changes_fingerprint():
    base = run_fleet_job(_fleet_spec())
    reseeded = run_fleet_job(_fleet_spec(seed=2))
    assert base.run_fingerprint() != reseeded.run_fingerprint()


def test_open_loop_sessions_complete():
    spec = _fleet_spec()
    point = run_fleet_job(spec)
    for row in point.clients:
        assert row["ops"] == row["extra"]["sessions"] > 0
        assert row["file_bytes"] == row["extra"]["offered_bytes"] > 0


def test_observed_open_loop_is_a_pure_observer():
    from repro.obs.core import observed

    spec = _fleet_spec()
    bare = run_fleet_job(spec)
    with observed() as session:
        watched = run_fleet_job(spec)
    assert watched.run_fingerprint() == bare.run_fingerprint()
    obs = session.observabilities[0]
    # The arrival layer's intent made it into the (client-prefixed)
    # timelines.
    keys = set(dict(obs.timelines.items()))
    assert any(k.endswith("traffic/offered_bytes") for k in keys)
    assert any(k.endswith("traffic/sessions") for k in keys)


def test_observed_slo_report_has_load_curves():
    from repro.obs.core import observed
    from repro.obs.slo import evaluate_slos

    spec = _fleet_spec(clients=4)
    with observed() as session:
        run_fleet_job(spec)
    report = evaluate_slos(session.observabilities[0].timelines)
    offered = report["load"]["offered_bytes"]
    goodput = report["load"]["goodput_bytes"]
    assert offered and goodput
    assert sum(n for _, n in offered) > 0
    assert sum(n for _, n in goodput) > 0


def test_arrivals_excludes_fixed_workload():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        FleetJobSpec.homogeneous(
            2,
            arrivals=ARRIVALS,
            workload=("database-fsync", ()),
        )
