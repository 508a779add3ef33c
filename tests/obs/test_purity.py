"""The pure-observer contract: instrumentation changes nothing.

An observed run must be bit-for-bit identical to an unobserved one —
same event count, same full latency series, same phase timings.  This
is the determinism-replay proof, checked for the Figure 1 and Figure 7
configurations and (via the scenario runner's ``deterministic``
invariant, whose replay runs unobserved) for a chaos scenario.
"""

import hashlib

import pytest

from repro.bench.runner import TestBed
from repro.chaos import run_spec
from repro.units import MIB

from ..chaos import corpus_spec


def _fingerprint(target: str, client: str, file_bytes: int, observe: bool):
    bed = TestBed(target=target, client=client, observe=observe)
    result = bed.run_sequential_write(file_bytes)
    series = ",".join(str(v) for v in result.trace.latencies_ns).encode()
    return (
        bed.sim.events_processed,
        hashlib.sha256(series).hexdigest(),
        result.write_elapsed_ns,
        result.flush_elapsed_ns,
        result.close_elapsed_ns,
    )


@pytest.mark.parametrize(
    "target,client",
    [
        ("linux", "stock"),  # the Figure 1 configuration
        ("linux", "enhanced"),  # the Figure 7 configuration
    ],
)
def test_observed_run_is_bit_identical(target, client):
    off = _fingerprint(target, client, 2 * MIB, observe=False)
    on = _fingerprint(target, client, 2 * MIB, observe=True)
    assert on == off


def test_observed_chaos_scenario_is_bit_identical():
    # run_spec's replay runs WITHOUT the observer; a matching
    # fingerprint therefore proves the observed first run unperturbed.
    outcome = run_spec(corpus_spec("jukebox"), observe=True)
    assert outcome.passed, [i for i in outcome.invariants if not i.ok]
    det = next(i for i in outcome.invariants if i.name == "deterministic")
    assert det.ok
    assert outcome.observabilities, "observer did not attach"
    obs = outcome.observabilities[0]
    assert obs.metrics.snapshot().get("rpc/jukebox_retries", 0) >= 1


def test_disabled_observer_records_nothing():
    bed = TestBed(target="netapp", client="stock")
    bed.run_sequential_write(1 * MIB)
    assert not bed.obs.enabled
    assert len(bed.obs.metrics) == 0
    assert bed.obs.tracer is None
