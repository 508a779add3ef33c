"""Per-run observability bundles.

A *bundle* is the on-disk artefact ``repro-nfs trace`` and the
``--obs-dir`` options produce: one directory holding

* ``trace.json`` — Chrome trace-event JSON (Perfetto-loadable),
* ``metrics.prom`` — prometheus-style text dump,
* ``profile.txt`` — readprofile-style flat profile,
* ``timeline.json`` — windowed per-layer timelines (``timeline@1``),
* ``slo.json`` — SLO verdicts over those timelines (``slo-report@1``).

Each experiment id maps to a small single-bed *trace point* — a
representative configuration observed end to end.  Figure sweeps run
dozens of beds (some in worker processes where an observer could not
follow); the trace point reruns one characteristic bed inline with
tracing on, which is what a causal write-path trace is for.  A
``scenario.json`` path runs that scenario observed instead, one bundle
per bed it builds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..units import KIB, MIB
from .core import Observability, observed
from .export import chrome_trace, flat_profile, prometheus_text, validate_chrome_trace
from .slo import evaluate_slos

__all__ = ["TRACE_POINTS", "run_traced", "write_bundle"]

#: Experiment id -> (TestBed kwargs, file_bytes) for the observed run.
TRACE_POINTS: Dict[str, Tuple[Dict[str, object], int]] = {
    "fig1": ({"target": "linux", "client": "stock"}, 4 * MIB),
    "fig2": ({"target": "netapp", "client": "stock"}, 8 * MIB),
    "fig3": ({"target": "netapp", "client": "noflush"}, 8 * MIB),
    "fig4": ({"target": "netapp", "client": "hashtable"}, 8 * MIB),
    "fig5": ({"target": "netapp", "client": "stock"}, 8 * MIB),
    "fig6": ({"target": "netapp", "client": "nolock"}, 8 * MIB),
    "tab1": ({"target": "linux", "client": "stock"}, 4 * MIB),
    "fig7": ({"target": "linux", "client": "enhanced"}, 4 * MIB),
    # Multi-client trace point: kwargs carry "clients" and run a fleet.
    "fleet": ({"clients": 4, "target": "netapp"}, 1 * MIB),
    # The scale experiment's observable slice: big enough to queue at
    # the server, small enough to trace.
    "scale": ({"clients": 16, "target": "netapp"}, 256 * KIB),
}


def run_traced(name: str):
    """Run one observed trace-point or scenario file.

    ``name`` is an experiment id from :data:`TRACE_POINTS` or a path to
    a ``scenario.json``.  Returns ``(observabilities, result, outcome)``:
    the per-bed observers, the benchmark result for experiment trace
    points (else None), and the scenario outcome for scenario files
    (else None).
    """
    if name in TRACE_POINTS:
        from ..bench.runner import TestBed

        kwargs, file_bytes = TRACE_POINTS[name]
        if "clients" in kwargs:
            from ..topology import FleetWorkload, ServerSpec, Topology

            with observed() as session:
                topo = Topology(
                    clients=kwargs["clients"],
                    servers=(ServerSpec(kwargs["target"]),),
                )
                fleet = FleetWorkload(topo, file_bytes).run()
            for stack in topo.clients:
                # Through the scoped view: lock stats land under
                # "client{i}/bkl".
                stack.obs.harvest_lock(stack.nfs.bkl)
            obs = session.observabilities[0]
            obs.latency_trace = fleet.clients[0].result.trace
            return session.observabilities, fleet.clients[0].result, None
        with observed() as session:
            bed = TestBed(profile=True, **kwargs)
            result = bed.run_sequential_write(file_bytes)
        obs = session.observabilities[0]
        if bed.nfs is not None:
            obs.harvest_lock(bed.nfs.bkl)
        obs.profiler = bed.profiler
        obs.latency_trace = result.trace
        return session.observabilities, result, None
    if name.endswith(".json"):
        from ..chaos import load_scenario, run_spec

        outcome = run_spec(load_scenario(name), observe=True)
        return outcome.observabilities or [], None, outcome
    raise ConfigError(
        f"unknown trace target {name!r} (expected one of "
        f"{', '.join(sorted(TRACE_POINTS))}, or a scenario .json path)"
    )


def write_bundle(
    obs: Observability,
    out_dir: str,
    name: str,
    profiler=None,
    trace=None,
    index: Optional[int] = None,
    force: bool = False,
) -> List[str]:
    """Write one observer's bundle into ``out_dir``; returns the paths.

    Multi-bed runs (e.g. the monotone-loss scenario) pass ``index`` to
    suffix the files per bed.  Refuses to clobber an existing bundle
    file unless ``force`` is set (``--force`` on the CLI).
    """
    os.makedirs(out_dir, exist_ok=True)
    suffix = "" if index is None else f"-{index}"
    names = [
        f"trace{suffix}.json",
        f"metrics{suffix}.prom",
        f"profile{suffix}.txt",
        f"timeline{suffix}.json",
        f"slo{suffix}.json",
    ]
    paths = [os.path.join(out_dir, n) for n in names]
    if not force:
        clobbered = [p for p in paths if os.path.exists(p)]
        if clobbered:
            raise ConfigError(
                f"refusing to overwrite {', '.join(clobbered)} "
                "(pass --force to replace an existing bundle)"
            )
    trace_path, metrics_path, profile_path, timeline_path, slo_path = paths

    trace_obj = chrome_trace(obs, process_name=f"repro-nfs {name}")
    validate_chrome_trace(trace_obj)
    with open(trace_path, "w") as f:
        json.dump(trace_obj, f, indent=1, sort_keys=True)

    with open(metrics_path, "w") as f:
        f.write(prometheus_text(obs.metrics))

    if profiler is None:
        profiler = obs.profiler
    if trace is None:
        trace = obs.latency_trace
    with open(profile_path, "w") as f:
        f.write(flat_profile(profiler, registry=obs.metrics, trace=trace))

    with open(timeline_path, "w") as f:
        json.dump(obs.timelines.snapshot(), f, indent=1, sort_keys=True)

    with open(slo_path, "w") as f:
        json.dump(evaluate_slos(obs.timelines), f, indent=1, sort_keys=True)
    return paths
