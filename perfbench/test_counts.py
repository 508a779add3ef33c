"""The benchmark's own tests: the counts it reports are exact.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload's traced pass runs twice, at the small size, in fresh
processes; every call count and the event count must repeat exactly,
so later changes can quote them as counts rather than timings.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from layers import LAYERS, OTHER, layer_of  # noqa: E402
from workloads import ARRIVAL_SEEDS, WORKLOADS, input_seed  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    run.build()
    seed = input_seed(workload, 0)
    first, second = (
        run.run_worker(workload, seed, "small", 1, timeout=120) for _ in range(2)
    )
    counts = run.count_view(first)
    assert counts == run.count_view(second)
    assert first["outputs"] == second["outputs"]
    assert counts["sim.events"] > 0
    # ``repro`` holds every layer plus the package's modules in ``other``.
    assert counts["repro.calls"] >= sum(counts[f"{n}.calls"] for n in LAYERS)
    assert counts["sim.calls"] > 0 and counts["sim.execute.calls"] > 0


def test_layer_of_maps_packages_and_everything_else():
    package = os.sep.join(["", "x", "src", "repro", ""])
    assert layer_of(package + os.sep.join(["sim", "core.py"]), package) == "sim"
    assert layer_of(package + os.sep.join(["nfs3", "protocol.py"]), package) == OTHER
    assert layer_of(package + "units.py", package) == OTHER
    assert layer_of("~", package) == OTHER


def test_every_seed_maps_to_a_pinned_arrival_seed():
    pins = run.load_pins()["workloads"]
    for workload, (_build, seeded) in WORKLOADS.items():
        pinned = set(pins[workload]["seeds"])
        for seed in range(2 * len(ARRIVAL_SEEDS)):
            assert str(input_seed(workload, seed)) in pinned
        assert seeded == (len(pinned) == len(ARRIVAL_SEEDS))
