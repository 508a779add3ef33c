"""The committed bench row carries the call counts the CI bench job gates."""

import importlib.util
import io
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


def test_newest_bench_row_gates_the_imports_lane():
    with open(gate.newest_bench(ROOT), encoding="utf-8") as f:
        imports = json.load(f)["imports"]
    assert set(gate.IMPORTS_GATED) <= set(imports)
    assert 0 < imports["repro_modules"] <= imports["modules"]


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


@pytest.mark.parametrize(
    "imports, failing",
    [
        ({"modules": 87, "repro_modules": 74, "import_s": 9.0}, []),
        ({"modules": 80, "repro_modules": 70, "import_s": 0.01}, []),
        ({"modules": 88, "repro_modules": 74, "import_s": 0.01}, ["imports.modules"]),
        ({"modules": 87, "repro_modules": 75, "import_s": 0.01}, ["imports.repro_modules"]),
        (
            {"modules": 96, "repro_modules": 75, "import_s": 0.01},
            ["imports.modules", "imports.repro_modules"],
        ),
    ],
)
def test_imports_gate_fails_only_on_more_modules(imports, failing):
    # Module counts may fall; time is reported, never gated.
    found = gate.import_problems(imports, {"modules": 87, "repro_modules": 74})
    assert len(found) == len(failing)
    for problem, name in zip(found, failing):
        assert name + " " in problem


def _main(monkeypatch, capsys, root, args, stdin):
    monkeypatch.setattr(gate, "ROOT", root)
    monkeypatch.setattr(gate.sys, "stdin", io.StringIO(json.dumps(stdin)))
    rc = gate.main(args)
    return rc, capsys.readouterr().err


def test_main_gates_a_bench_row_on_the_imports_lane(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCH_7.json").write_text(
        json.dumps({"imports": {"modules": 87, "repro_modules": 74, "import_s": 0.02}})
    )
    row = {"imports": {"modules": 86, "repro_modules": 74, "import_s": 0.5}}
    assert _main(monkeypatch, capsys, tmp_path, ["imports"], row) == (0, "")
    row["imports"]["modules"] = 90
    rc, err = _main(monkeypatch, capsys, tmp_path, ["imports"], row)
    assert rc == 1
    assert "imports.modules 90 exceeds the committed 87 (BENCH_7.json)" in err


def test_main_needs_the_committed_lane(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCH_7.json").write_text(json.dumps({"counts": {}}))
    row = {"imports": {"modules": 1, "repro_modules": 1, "import_s": 0.0}}
    rc, err = _main(monkeypatch, capsys, tmp_path, ["imports"], row)
    assert rc == 1 and "BENCH_7.json has no counts for imports" in err
    assert _main(monkeypatch, capsys, tmp_path, [], row)[0] == 2
