"""The ``repro-nfs bench`` lane: schema, invariants, JSON round-trip.

The wall-clock numbers themselves are machine noise and never asserted;
what CI guards is that the lane *runs*, that its simulated results hold
(fair fleet, cache replays perfectly), and that the JSON row it emits
carries every field the perf trajectory compares across PRs.
"""

import io
import json

from repro.experiments.bench import bench_payload, run_bench


def test_bench_payload_quick_schema_and_invariants():
    payload = bench_payload(quick=True)
    assert payload["quick"] is True
    assert payload["nproc"] >= 1

    sim_core = payload["sim_core"]
    assert sim_core["events"] == 16 * 500
    assert sim_core["events_per_second"] > 0
    assert sim_core["continuation_events_per_second"] > 0

    headline = payload["headline"]
    assert headline["improvement_x"] > 1.0
    assert headline["wall_s"] > 0

    fleet = payload["fleet"]
    assert set(fleet) == {
        "clients", "file_kib", "aggregate_mbps", "jain", "events",
        "wall_s", "nproc",
    }
    assert fleet["clients"] == 8
    assert fleet["jain"] >= 0.95
    assert fleet["events"] > 0
    assert fleet["wall_s"] > 0

    cache = payload["cache"]
    assert cache["warm_hit_rate"] == 1.0
    assert cache["cold_misses"] == cache["points"]

    imports = payload["imports"]
    assert set(imports) == {"import_s", "modules", "repro_modules"}
    assert imports["import_s"] > 0
    assert 0 < imports["repro_modules"] < imports["modules"]


def test_run_bench_writes_json_row(tmp_path):
    out = io.StringIO()
    path = tmp_path / "bench.json"
    code = run_bench(json_path=str(path), quick=True, out=out)
    assert code == 0
    text = out.getvalue()
    assert "sim core" in text and "MBps aggregate" in text
    assert "repro modules" in text
    row = json.loads(path.read_text())
    assert set(row) >= {"sim_core", "headline", "fleet", "cache", "imports", "nproc"}
