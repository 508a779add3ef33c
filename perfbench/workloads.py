"""The benchmark's three workloads: parameters, build, outputs, checks.

Each workload is a ``build(params, input_seed)`` function that imports
``repro``, assembles everything the run needs and returns a pair of
closures: ``run()`` drives the simulator from its first event to the
workload's result, and ``outputs(result)`` reduces that result to the
flat dict of simulated outputs the benchmark pins.  Only public entry
points are used: ``TestBed``, ``FleetJobSpec``/``FleetWorkload``/
``Topology``, ``repro.obs.core.observed`` and
``repro.obs.slo.evaluate_slos``.

This module imports nothing from ``repro`` at module level, so the
parent process can read parameters and checks without loading the
simulator.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Tuple

#: ``repro.units``' decimal megabyte, as the paper counts them.
MB = 1000 * 1000
MIB = 1 << 20
KIB = 1 << 10

#: The open-loop arrivals of ``scenarios/templates/open-loop-overload.json``
#: (MMPP bursts, lognormal sizes, a 3:1 mix of ``sequential-write`` and
#: ``database-fsync``), copied so the benchmark does not move when the
#: scenario corpus does.  ``duration_ns`` is set per size below.
OPEN_LOOP_ARRIVALS: Dict[str, Any] = {
    "process": "mmpp",
    "rate_per_s": 40.0,
    "burst_rate_per_s": 400.0,
    "mean_idle_ns": 20_000_000,
    "mean_burst_ns": 10_000_000,
    "sizes": {
        "dist": "lognormal",
        "bytes": 65536,
        "sigma": 1.0,
        "min_bytes": 4096,
        "max_bytes": 1048576,
    },
    "mix": [
        {"workload": "sequential-write", "weight": 3.0},
        {
            "workload": "database-fsync",
            "weight": 1.0,
            "params": {"transactions": 20, "record_bytes": 4096},
        },
    ],
    "diurnal": [0.5, 1.0, 2.0],
    "max_sessions": 64,
}

#: Arrival seeds the open-loop workload draws from; ``--seed n`` runs
#: ``ARRIVAL_SEEDS[n % len(ARRIVAL_SEEDS)]``.  Every one is pinned in
#: ``pins.json``; README.md says how they were chosen.
ARRIVAL_SEEDS: Tuple[int, ...] = (1, 6, 18, 20, 22, 28)

#: Workload parameters per size.  ``full`` is the benchmark; ``small``
#: is a fraction-of-a-second version for the determinism test.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "headline-30mb": {"file_bytes": 30 * MB},
        "fleet-32": {"clients": 32, "file_bytes": 1 * MIB},
        "openloop-knfsd": {"clients": 4, "duration_ns": 400_000_000},
    },
    "small": {
        "headline-30mb": {"file_bytes": 2 * MB},
        "fleet-32": {"clients": 4, "file_bytes": 256 * KIB},
        "openloop-knfsd": {"clients": 2, "duration_ns": 40_000_000},
    },
}

#: The filer's ingest envelope for the fleet check, in MBps (DESIGN.md:
#: ~38 MBps); the aggregate must sit in its top tenth.
FILER_ENVELOPE_MBPS = 38.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def headline(params: Dict[str, Any], input_seed: int):
    """The abstract's progression: a stock, then a ``nolock`` client,
    each writing ``file_bytes`` sequentially to the filer."""
    from repro import TestBed

    beds = {v: TestBed(target="netapp", client=v) for v in ("stock", "nolock")}

    def run():
        return {
            v: bed.run_sequential_write(params["file_bytes"])
            for v, bed in beds.items()
        }

    def outputs(results) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "sim.events": sum(bed.sim.events_processed for bed in beds.values())
        }
        for variant, result in results.items():
            out[f"{variant}.write_mbps"] = result.write_mbps
            out[f"{variant}.trace_sha"] = _sha(
                ",".join(str(v) for v in result.trace.latencies_ns)
            )
        return out

    return run, outputs


def fleet(params: Dict[str, Any], input_seed: int):
    """``clients`` closed-loop stock clients, each writing
    ``file_bytes`` to one filer at the same time."""
    from repro.topology import FleetJobSpec, FleetWorkload, Topology
    from repro.topology.fleet import reduce_fleet

    spec = FleetJobSpec.homogeneous(
        params["clients"], target="netapp", file_bytes=params["file_bytes"]
    )
    topo = Topology(clients=spec.clients, servers=spec.servers, switch=spec.switch)
    workload = FleetWorkload(topo, spec.file_bytes)

    def run():
        return reduce_fleet(workload.run())

    def outputs(point) -> Dict[str, Any]:
        return {
            "sim.events": point.events_processed,
            "run_fingerprint": point.run_fingerprint(),
            "aggregate_mbps": point.aggregate_mbps,
        }

    return run, outputs


def openloop(params: Dict[str, Any], input_seed: int):
    """Open-loop MMPP sessions from ``clients`` clients against Linux
    knfsd, observed, ending with the SLO report."""
    from repro.obs.core import observed
    from repro.obs.slo import evaluate_slos
    from repro.topology import FleetJobSpec, FleetWorkload, Topology
    from repro.topology.fleet import reduce_fleet

    arrivals = dict(OPEN_LOOP_ARRIVALS, duration_ns=params["duration_ns"])
    spec = FleetJobSpec.homogeneous(
        params["clients"], target="linux", arrivals=arrivals, seed=input_seed
    )
    stack = ExitStack()
    stack.enter_context(observed())
    topo = Topology(clients=spec.clients, servers=spec.servers, switch=spec.switch)
    workload = FleetWorkload(
        topo, spec.file_bytes, arrivals=spec.arrivals, seed=spec.seed
    )

    def run():
        with stack:
            point = reduce_fleet(workload.run())
            return point, evaluate_slos(topo.obs.timelines)

    def outputs(result) -> Dict[str, Any]:
        point, report = result
        return {
            "sim.events": point.events_processed,
            "run_fingerprint": point.run_fingerprint(),
            "slo_sha": _sha(
                json.dumps(report, sort_keys=True, separators=(",", ":"))
            ),
            "sessions": sum(c["extra"]["sessions"] for c in point.clients),
            "completed": sum(c["ops"] for c in point.clients),
        }

    return run, outputs


#: name -> (build, seeded).  Unseeded workloads ignore ``--seed``.
WORKLOADS: Dict[str, Tuple[Callable, bool]] = {
    "headline-30mb": (headline, False),
    "fleet-32": (fleet, False),
    "openloop-knfsd": (openloop, True),
}


def input_seed(workload: str, seed: int) -> int:
    """The seed a workload's inputs are drawn from (0 when unseeded)."""
    if not WORKLOADS[workload][1]:
        return 0
    return ARRIVAL_SEEDS[seed % len(ARRIVAL_SEEDS)]


def paper_checks(workload: str, outputs: Dict[str, Any]) -> List[str]:
    """The paper-level claims a full-size run must reproduce; returns
    one message per claim that fails."""
    failures = []
    if workload == "headline-30mb":
        ratio = outputs["nolock.write_mbps"] / outputs["stock.write_mbps"]
        if not ratio > 3.0:
            failures.append(f"nolock/stock {ratio:.2f}x, paper claims > 3x")
    elif workload == "fleet-32":
        mbps = outputs["aggregate_mbps"]
        if not 0.9 * FILER_ENVELOPE_MBPS <= mbps <= FILER_ENVELOPE_MBPS:
            failures.append(
                f"fleet aggregate {mbps:.1f} MBps outside the filer's "
                f"{0.9 * FILER_ENVELOPE_MBPS:.1f}-{FILER_ENVELOPE_MBPS:.0f} MBps envelope"
            )
    elif workload == "openloop-knfsd":
        if outputs["completed"] != outputs["sessions"]:
            failures.append(
                f"{outputs['completed']} of {outputs['sessions']} sessions completed"
            )
    return failures
