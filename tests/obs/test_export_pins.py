"""Byte-level pins on every observability export.

Three small observed runs are reduced to SHA-256 digests of their four
exports: the canonical Chrome-trace JSON, the prometheus text, the
timeline snapshot and the SLO report.  The filer fleet exercises the
client-scoped views (prefixed metric keys and sample names, ``client``
span attributes, per-client BKL harvests) and the per-frame link spans;
the knfsd bed runs fsync transactions, so it records COMMIT spans and
the transport's samples; the faulted fleet drops and duplicates reply
frames under a short-timeout mount, so it records ``frame_dropped``
spans, the drop and duplicate counters and retransmits.  A change to
how the observer records or stores anything shows up here as a digest
mismatch, however the run itself is fingerprinted.
"""

import hashlib
import json
import random

import pytest

from repro.bench.runner import TestBed
from repro.config import MountConfig
from repro.faults import DropFrames, Duplicate, FaultChain
from repro.obs import chrome_trace, evaluate_slos, prometheus_text
from repro.obs.core import observed
from repro.topology import ClientSpec, FleetWorkload, Topology
from repro.units import KIB, ms, us

#: name -> {export -> SHA-256 hex digest}.
PINS = {
    "filer-fleet-3": {
        "chrome_trace": "1475590e6c6adfbf74ba051546d68ff08b3320be30fa9f15f1bc4dfee2e76d92",
        "prometheus": "dc5e57403f6829f2e711fdd87410703867f21623f8556e284b7e1be9626d2f09",
        "timelines": "a7d0c84c72e4fc0592170c8e64b6ee618c3d73e6e01aa882eb0f9f39c88d1431",
        "slo": "b3c22887c5753ebe100b1afde1259164085db1c05a3b5e3d5704bb8173e3e441",
    },
    "knfsd-fsync": {
        "chrome_trace": "ae5bce24975ba3a3d3a7076d3362b2f9e10452c3f434c76e90975bf0cb188f44",
        "prometheus": "557b043f3fab18178d2b304b346bcf4af24c0a3c149387a8747a919127a8126e",
        "timelines": "2ed375ce77d432efee6a4106489619ddcebad8a19585eb532c3003189021ed97",
        "slo": "91d37f8d3e886d942fcf4b492365bfc1006ea0f2d590237dde26a592134306b3",
    },
    "faulted-fleet-2": {
        "chrome_trace": "7095dcf304446ed739c5417deb74d03099f4db70cf8587f1b71af78e813b13df",
        "prometheus": "4719f181b824b44851c8b137ee36c9a8cfbc2c89a18a8003d2038ce2e15ed1b0",
        "timelines": "b03a43b3d12993ade2b991a533270865f45d14191443ec6a0bf2e8733a587512",
        "slo": "712b23f7d07644407c0c5bd28d8de893aae4ad52bb96759e48efbe5cf7585240",
    },
}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digests(obs):
    texts = {
        "chrome_trace": _canonical(chrome_trace(obs)),
        "prometheus": prometheus_text(obs.metrics),
        "timelines": _canonical(obs.timelines.snapshot()),
        "slo": _canonical(evaluate_slos(obs.timelines)),
    }
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in texts.items()
    }


def _filer_fleet():
    with observed() as session:
        topo = Topology(clients=3)
        FleetWorkload(topo, 96 * KIB).run()
    for stack in topo.clients:
        stack.obs.harvest_lock(stack.nfs.bkl)
    (obs,) = session.observabilities
    return obs


def _knfsd_fsync():
    bed = TestBed(target="linux", client="stock", observe=True)
    bed.topology.run_workload(
        "database-fsync", {"transactions": 12, "record_bytes": 6 * KIB}
    )
    bed.obs.harvest_lock(bed.nfs.bkl)
    return bed.obs


def _faulted_fleet():
    with observed() as session:
        topo = Topology(
            clients=ClientSpec(mount=MountConfig(timeo_ns=ms(20))).replicate(2)
        )
        # Two of client1's replies are lost (each costs a retransmit the
        # server answers again) and a quarter of the rest arrive twice.
        topo.switch.install_fault(
            "client1",
            downlink=FaultChain(
                [
                    DropFrames([2, 6]),
                    Duplicate(random.Random(7), probability=0.25, lag_ns=us(30)),
                ]
            ),
        )
        FleetWorkload(topo, 96 * KIB).run()
    for stack in topo.clients:
        stack.obs.harvest_lock(stack.nfs.bkl)
    (obs,) = session.observabilities
    return obs


RUNS = {
    "filer-fleet-3": _filer_fleet,
    "knfsd-fsync": _knfsd_fsync,
    "faulted-fleet-2": _faulted_fleet,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exports_match_their_pins(name):
    assert _digests(RUNS[name]()) == PINS[name]
