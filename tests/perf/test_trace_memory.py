"""CI guard: an observed run's trace entries stay small.

The tracer holds every span edge, sample and link frame of an observed
run until it is read, so its bytes per entry set most of what observing
adds to a run's peak memory.  A tuple per entry, with a new ``int`` for
its time and span id, cost about 157 bytes; the shape-code, integer and
object streams of :mod:`repro.sim.trace` cost about a third of that.
The guard runs the benchmark's small observed open-loop fleet and
measures, with :mod:`tracemalloc`, what :meth:`Tracer.clear` releases:
the memory that only the trace held.
"""

import gc
import importlib.util
import tracemalloc
from pathlib import Path

from repro.obs.core import observed
from repro.topology import FleetJobSpec, FleetWorkload, Topology

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: Bytes per entry the streams may hold.  Parent (tuples): 156.7.
MAX_BYTES_PER_ENTRY = 90
#: What an entry holds at the least: its shape code and its time.
MIN_BYTES_PER_ENTRY = 9


def test_trace_entries_cost_under_90_bytes_each():
    params = workloads.SIZES["small"]["openloop-knfsd"]
    arrivals = dict(workloads.OPEN_LOOP_ARRIVALS, duration_ns=params["duration_ns"])
    spec = FleetJobSpec.homogeneous(
        params["clients"], target="linux", arrivals=arrivals, seed=1
    )
    tracemalloc.start()
    try:
        with observed():
            topo = Topology(
                clients=spec.clients, servers=spec.servers, switch=spec.switch
            )
            FleetWorkload(
                topo, spec.file_bytes, arrivals=spec.arrivals, seed=spec.seed
            ).run()
        tracer = topo.obs.tracer
        entries = len(tracer)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tracer.clear()
        gc.collect()
        released = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries == 9_096
    assert len(tracer) == 0 and tracer.records() == []
    per_entry = released / entries
    assert MIN_BYTES_PER_ENTRY <= per_entry <= MAX_BYTES_PER_ENTRY, per_entry
