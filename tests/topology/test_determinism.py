"""Multi-client determinism: one spec, one outcome — everywhere.

The fleet contract mirrors the single-client one: the same
:class:`FleetJobSpec` must reduce to the same content hash whether it
runs in-process, through a process pool, out of a warm result cache, or
under observers/sanitizers.  Per-link faults must perturb the run — and
perturb it identically every time.
"""

import hashlib

from repro.analysis.sanitize.runtime import sanitized
from repro.cache import ResultCache
from repro.faults.link import DropFrames
from repro.obs.core import observed
from repro.parallel.executor import SweepExecutor
from repro.topology import (
    FleetJobSpec,
    FleetWorkload,
    Topology,
    reduce_fleet,
    run_fleet_job,
)
from repro.units import KIB

SPEC = FleetJobSpec.homogeneous(3, file_bytes=192 * KIB)


def test_same_spec_same_fingerprint_across_runs():
    first = run_fleet_job(SPEC)
    second = run_fleet_job(SPEC)
    assert first.run_fingerprint() == second.run_fingerprint()
    assert first.events_processed == second.events_processed


def test_pool_and_cache_modes_bit_identical(tmp_path):
    specs = [
        FleetJobSpec.homogeneous(n, file_bytes=128 * KIB) for n in (1, 2, 3)
    ]
    serial = [p.run_fingerprint() for p in SweepExecutor(jobs=1).map(specs)]
    pooled = [p.run_fingerprint() for p in SweepExecutor(jobs=2).map(specs)]
    assert pooled == serial

    cache = ResultCache(tmp_path)
    cold = [
        p.run_fingerprint() for p in SweepExecutor(jobs=1, cache=cache).map(specs)
    ]
    warm = [
        p.run_fingerprint() for p in SweepExecutor(jobs=1, cache=cache).map(specs)
    ]
    assert cold == serial
    assert warm == serial
    assert cache.hits == len(specs)


def test_fleet_unperturbed_by_observers_and_sanitizers():
    baseline = run_fleet_job(SPEC).run_fingerprint()
    with observed():
        assert run_fleet_job(SPEC).run_fingerprint() == baseline
    with sanitized():
        assert run_fleet_job(SPEC).run_fingerprint() == baseline
    # Both at once — the CLI's --sanitize path.
    with observed():
        with sanitized():
            assert run_fleet_job(SPEC).run_fingerprint() == baseline


def _faulted_fingerprint(drop_frames):
    topo = Topology(clients=3)
    if drop_frames:
        topo.switch.install_fault("client1", uplink=DropFrames(drop_frames))
    fleet = FleetWorkload(topo, 192 * KIB).run()
    return reduce_fleet(fleet).run_fingerprint()


def test_per_link_fault_perturbs_one_client_deterministically():
    clean = _faulted_fingerprint(None)
    faulted = _faulted_fingerprint([4, 5, 6])
    assert faulted != clean, "dropped frames left no trace"
    assert _faulted_fingerprint([4, 5, 6]) == faulted
    # A different shot pattern is a different — still deterministic — run.
    other = _faulted_fingerprint([10])
    assert other != faulted
    assert _faulted_fingerprint([10]) == other


def test_faulted_client_pays_while_the_others_dont():
    topo = Topology(clients=3)
    clean = FleetWorkload(topo, 192 * KIB).run()
    topo2 = Topology(clients=3)
    topo2.switch.install_fault("client1", uplink=DropFrames(range(4, 12)))
    faulted = FleetWorkload(topo2, 192 * KIB).run()
    # client1 retransmits through its major timeout; the victims' own
    # close paths shift only through shared-server scheduling.
    assert (
        faulted.clients[1].result.close_elapsed_ns
        > clean.clients[1].result.close_elapsed_ns
    )


def test_run_fingerprint_is_sha256_of_payload():
    point = run_fleet_job(FleetJobSpec.homogeneous(1, file_bytes=64 * KIB))
    digest = point.run_fingerprint()
    assert len(digest) == 64
    int(digest, 16)  # hex
    # Stable against payload key ordering; leaves events_processed out,
    # as the pinned corpus and benchmark digests were computed without it.
    import json

    payload = point.to_payload()
    payload.pop("events_processed")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(blob.encode()).hexdigest()
