"""``repro-nfs bench``: the repo's performance lane, as one JSON row.

Every PR in the perf trajectory appends a ``BENCH_<n>.json`` snapshot
so speedups (and regressions) are numbers in the tree, not anecdotes.
Five lanes, each measuring a layer the sweeps actually stress:

* **sim_core** — events/sec through the event loop on the two event
  shapes the workloads produce: timed self-rescheduling callback
  chains, and timed slots each followed by a zero-delay continuation
  (about half of every workload's events are such continuations).
* **headline** — wall-clock of the paper's headline progression
  (stock vs fully-patched client, 30 MB vs the filer), plus the
  simulated improvement factor it reproduces.
* **fleet** — a 32-client fleet point against the filer: wall-clock,
  aggregate throughput, Jain's index and the event count.
* **cache** — warm hit rate of the content-addressed result cache over
  a small sweep re-run.
* **imports** — what a fresh process pays before its first event: the
  seconds the benchmark's build imports take, and how many modules
  (``repro`` and all) they load in an interpreter started without
  ``site``, so the count does not depend on what a host's ``.pth``
  files preload.

Simulated results are deterministic; the wall-clock fields are the only
machine-dependent numbers and are recorded alongside ``nproc``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["run_bench", "bench_payload"]

#: Headline progression file size (the abstract's 30 MB point).
HEADLINE_MB = 30

#: Fleet lane shape: the acceptance point for the perf trajectory.
FLEET_CLIENTS = 32
FLEET_FILE_KIB = 1024

#: The imports ``perfbench/workloads.py`` builds its three runs from.
BUILD_IMPORTS = """\
from repro import TestBed
from repro.topology import FleetJobSpec, FleetWorkload, Topology
from repro.topology.fleet import reduce_fleet
from repro.obs.core import observed
from repro.obs.slo import evaluate_slos
"""


def _wall() -> float:
    # Wall-clock benchmarking of the host, never simulation input.
    return time.perf_counter()  # noqa: DET102


def _timed_chains(sim, chains: int, events_per_chain: int) -> List[int]:
    """Self-rescheduling timed callbacks (slot completions, deliveries)."""
    left = [events_per_chain] * chains

    def tick(i):
        left[i] -= 1
        if left[i]:
            sim.call_after(10 + i, tick, i)

    for i in range(chains):
        sim.call_after(i, tick, i)
    return left


def _continuation_chains(sim, chains: int, events_per_chain: int) -> List[int]:
    """A timed slot, then its zero-delay continuation, as
    ``CpuSet._complete`` resumes the task that yielded the slot."""
    left = [events_per_chain // 2] * chains

    def resume(i):
        left[i] -= 1
        if left[i]:
            sim.call_after(10 + i, complete, i)

    def complete(i):
        sim.call_after(0, resume, i)

    for i in range(chains):
        sim.call_after(i, complete, i)
    return left


def _best_rate(chains_of, chains: int, events_per_chain: int) -> int:
    """Events/sec of the fastest of three runs of one chain shape."""
    from ..sim import Simulator

    total = chains * events_per_chain
    best = None
    for _ in range(3):
        sim = Simulator()
        started = _wall()
        left = chains_of(sim, chains, events_per_chain)
        sim.run()
        elapsed = _wall() - started
        assert sim.events_processed == total and not any(left)
        best = elapsed if best is None else min(best, elapsed)
    return round(total / best)


def _bench_sim_core(chains: int, events_per_chain: int) -> Dict[str, Any]:
    return {
        "events": chains * events_per_chain,
        "events_per_second": _best_rate(_timed_chains, chains, events_per_chain),
        "continuation_events_per_second": _best_rate(
            _continuation_chains, chains, events_per_chain
        ),
    }


def _bench_headline(file_mb: int) -> Dict[str, Any]:
    from ..bench.runner import TestBed
    from ..units import MB

    started = _wall()
    mbps = {}
    for variant in ("stock", "nolock"):
        bed = TestBed(target="netapp", client=variant)
        result = bed.run_sequential_write(file_mb * MB)
        mbps[variant] = result.write_mbps
    elapsed = _wall() - started
    return {
        "file_mb": file_mb,
        "stock_mbps": round(mbps["stock"], 2),
        "patched_mbps": round(mbps["nolock"], 2),
        "improvement_x": round(mbps["nolock"] / mbps["stock"], 2),
        "wall_s": round(elapsed, 3),
    }


def _bench_fleet(clients: int, file_kib: int) -> Dict[str, Any]:
    from ..topology import FleetJobSpec, run_fleet_job
    from ..units import KIB

    spec = FleetJobSpec.homogeneous(
        clients, target="netapp", file_bytes=file_kib * KIB
    )
    started = _wall()
    point = run_fleet_job(spec)
    elapsed = _wall() - started
    return {
        "clients": clients,
        "file_kib": file_kib,
        "aggregate_mbps": round(point.aggregate_mbps, 2),
        "jain": round(point.fairness, 4),
        "events": point.events_processed,
        "wall_s": round(elapsed, 3),
        "nproc": os.cpu_count() or 1,
    }


def _bench_cache() -> Dict[str, Any]:
    from ..cache import ResultCache
    from ..parallel.executor import SweepExecutor
    from ..topology import FleetJobSpec
    from ..units import KIB

    specs = [
        FleetJobSpec.homogeneous(1, target="netapp", file_bytes=n * 256 * KIB)
        for n in (1, 2, 3, 4)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        executor = SweepExecutor(jobs=1, cache=cache)
        cold = executor.map(specs)
        cold_misses = cache.misses
        started = _wall()
        warm = executor.map(specs)
        warm_wall = _wall() - started
        warm_hits = cache.hits
    assert [p.to_payload() for p in cold] == [p.to_payload() for p in warm]
    return {
        "points": len(specs),
        "cold_misses": cold_misses,
        "warm_hits": warm_hits,
        "warm_hit_rate": round(warm_hits / len(specs), 3),
        "warm_wall_s": round(warm_wall, 3),
    }


def _bench_imports() -> Dict[str, Any]:
    """Time ``BUILD_IMPORTS`` in a fresh interpreter and count the
    modules they load.

    The interpreter runs with ``-S``: ``site`` imports whatever the
    host's ``.pth`` files name before the count starts, which would hide
    a model import of any module they load.
    """
    code = (
        "import sys, time\n"
        "before = set(sys.modules)\n"
        "started = time.perf_counter()\n"
        + BUILD_IMPORTS
        + "elapsed = time.perf_counter() - started\n"
        "loaded = set(sys.modules) - before\n"
        "import json\n"
        "print(json.dumps([elapsed, len(loaded), "
        "sum(name.split('.')[0] == 'repro' for name in loaded)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, modules, ours = json.loads(proc.stdout)
    return {
        "import_s": round(elapsed, 4),
        "modules": modules,
        "repro_modules": ours,
    }


def bench_payload(quick: bool = False) -> Dict[str, Any]:
    """Run every lane; returns the JSON-ready payload."""
    if quick:
        sim_core = _bench_sim_core(16, 500)
        headline = _bench_headline(4)
        fleet = _bench_fleet(8, 256)
    else:
        sim_core = _bench_sim_core(64, 2_000)
        headline = _bench_headline(HEADLINE_MB)
        fleet = _bench_fleet(FLEET_CLIENTS, FLEET_FILE_KIB)
    return {
        "bench": "repro-nfs",
        "quick": quick,
        "nproc": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "sim_core": sim_core,
        "headline": headline,
        "fleet": fleet,
        "cache": _bench_cache(),
        "imports": _bench_imports(),
    }


def run_bench(
    json_path: Optional[str] = None, quick: bool = False, out=None
) -> int:
    """``repro-nfs bench``: print the lanes; ``--json`` writes the row."""
    if out is None:
        out = sys.stdout
    payload = bench_payload(quick=quick)
    sim_core, headline = payload["sim_core"], payload["headline"]
    fleet, cache = payload["fleet"], payload["cache"]
    imports = payload["imports"]
    out.write(
        f"sim core   {sim_core['events_per_second']:>12,} events/s "
        f"timed, {sim_core['continuation_events_per_second']:,} with "
        f"continuations ({sim_core['events']:,} events)\n"
    )
    out.write(
        f"headline   {headline['wall_s']:>10.2f} s wall   "
        f"stock {headline['stock_mbps']:.1f} -> patched "
        f"{headline['patched_mbps']:.1f} MBps "
        f"({headline['improvement_x']:.1f}x)\n"
    )
    out.write(
        f"fleet      {fleet['wall_s']:>10.2f} s wall   "
        f"{fleet['aggregate_mbps']:.1f} MBps aggregate, "
        f"Jain {fleet['jain']:.4f} "
        f"({fleet['clients']} clients, {fleet['events']:,} events, "
        f"nproc={fleet['nproc']})\n"
    )
    out.write(
        f"cache      {cache['warm_hit_rate']:.0%} warm hit rate "
        f"({cache['warm_hits']}/{cache['points']} points, "
        f"warm replay {cache['warm_wall_s']*1e3:.0f} ms)\n"
    )
    out.write(
        f"imports    {imports['import_s']:>10.3f} s       "
        f"{imports['repro_modules']} repro modules, "
        f"{imports['modules']} in all\n"
    )
    if json_path:
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        out.write(f"wrote {json_path}\n")
    return 0
