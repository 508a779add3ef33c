"""``repro-nfs fleet`` end to end: verdict, invariant rows, fingerprint.

Small fleets (2 clients, 64 KiB each, or a 20 ms arrival window) keep
each run to a fraction of a second while exercising the closed-loop,
sanitized and open-loop paths of the command.
"""

import json

from repro.experiments.cli import main
from repro.topology import FleetJobSpec, run_fleet_job
from repro.units import KIB

SMALL_FLEET = ["fleet", "--clients", "2", "--file-kib", "64"]


def invariant_rows(out):
    """``(mark, name)`` of every invariant row the command printed."""
    rows = []
    for line in out.splitlines():
        if line.startswith("  ["):
            mark, name = line[3:].split("] ", 1)
            rows.append((mark.strip(), name))
    return rows


def test_closed_loop_fleet_passes_with_the_job_fingerprint(capsys):
    assert main(SMALL_FLEET) == 0
    out = capsys.readouterr().out
    spec = FleetJobSpec.homogeneous(2, target="netapp", file_bytes=64 * KIB)
    fingerprint = run_fleet_job(spec).run_fingerprint()[:12]
    assert f"PASS fleet (fingerprint={fingerprint}," in out
    assert invariant_rows(out) == [
        ("ok", "files-complete-durable[netapp-f85]"),
        ("ok", "within-ingest-envelope[netapp-f85]"),
        ("ok", "fair-share"),
        ("ok", "deterministic-replay"),
    ]


def test_sanitized_staggered_fleet_skips_the_fair_share_check(capsys):
    argv = SMALL_FLEET + ["--target", "linux", "--sanitize", "--stagger-us", "500"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "PASS fleet" in out
    rows = invariant_rows(out)
    assert all(mark == "ok" for mark, _ in rows)
    names = [name for _, name in rows]
    assert [n for n in names if n.startswith("sanitize-")] == [
        "sanitize-locks",
        "sanitize-races",
        "sanitize-invariants",
    ]
    assert "fair-share" not in names


def test_open_loop_fleet_writes_the_slo_report(capsys, tmp_path):
    slo_path = tmp_path / "slo.json"
    arrivals = (
        "rate=300 duration_ms=20 dist=lognormal bytes=65536 "
        "sigma=1.0 max_bytes=524288"
    )
    argv = SMALL_FLEET + ["--arrivals", arrivals, "--slo-out", str(slo_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "open-loop poisson 300/s x 20 ms" in out
    assert f"slo report -> {slo_path}" in out
    assert "PASS fleet" in out
    assert invariant_rows(out) == [
        ("ok", "open-loop-complete"),
        ("ok", "open-loop-durable[netapp-f85]"),
        ("ok", "within-ingest-envelope[netapp-f85]"),
        ("ok", "deterministic-replay"),
    ]
    with open(slo_path, encoding="utf-8") as handle:
        assert json.load(handle)["schema"] == "repro-nfs/slo-report@1"
