"""The committed bench row carries the call counts the CI bench job gates."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("headline-30mb", "fleet-32", "openloop-knfsd")


_spec = importlib.util.spec_from_file_location(
    "check_bench_counts", ROOT / "scripts" / "check_bench_counts.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


COMMITTED = {
    "sim.spawn.calls": 10,
    "sim.execute.calls": 20,
    "obs.calls": 30,
    "sim.calls": 40,
    "net.calls": 50,
}


def _result(correct=True, spawn=10, execute=20, obs=30, sim=40, net=50):
    return {
        "correct": correct,
        "metrics": {
            "sim.spawn.calls": {"value": spawn, "unit": "count"},
            "sim.execute.calls": {"value": execute, "unit": "count"},
            "obs.calls": {"value": obs, "unit": "count"},
            "sim.calls": {"value": sim, "unit": "count"},
            "net.calls": {"value": net, "unit": "count"},
        },
    }


def test_newest_bench_row_counts_every_workload():
    with open(gate.newest_bench(ROOT), encoding="utf-8") as f:
        counts = json.load(f)["counts"]
    for workload in WORKLOADS:
        assert set(gate.GATED) | {"sim.events"} <= set(counts[workload])
    # Only the open-loop workload runs observed.
    assert counts["headline-30mb"]["obs.calls"] == 0
    assert counts["fleet-32"]["obs.calls"] == 0


def test_newest_bench_is_the_highest_number(tmp_path):
    for n in (6, 14, 9):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert gate.newest_bench(tmp_path).name == "BENCH_14.json"


@pytest.mark.parametrize(
    "result, failing",
    [
        (_result(), []),
        (_result(spawn=5, execute=1, obs=0), []),
        (_result(spawn=11), ["sim.spawn.calls"]),
        (_result(execute=21), ["sim.execute.calls"]),
        (_result(obs=31), ["obs.calls"]),
        (_result(correct=False), ["correct"]),
        (_result(sim=39, net=1), []),
        (_result(sim=41), ["sim.calls"]),
        (_result(net=51), ["net.calls"]),
        (_result(sim=41, net=51), ["sim.calls", "net.calls"]),
    ],
)
def test_gate_fails_on_a_wrong_run_or_a_count_above_the_committed(result, failing):
    found = gate.problems(result, COMMITTED)
    assert len(found) == len(failing)
    for problem, name in zip(found, failing):
        assert name in problem

