"""The trace/metrics CLI surface and the bundle writer."""

import io
import json
import os

import pytest

from repro.experiments.cli import main
from repro.obs.bundle import TRACE_POINTS, run_traced, write_bundle
from repro.obs.export import validate_chrome_trace

from ..chaos import CORPUS


def test_trace_cli_runs_scenario_file(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    rc = main(["trace", os.path.join(CORPUS, "jukebox.json"), "--out", str(out_dir)])
    assert rc == 0
    assert "PASS jukebox" in capsys.readouterr().out
    assert sorted(os.listdir(out_dir)) == [
        "metrics.prom",
        "profile.txt",
        "slo.json",
        "timeline.json",
        "trace.json",
    ]
    assert "repro_rpc_jukebox_retries" in (out_dir / "metrics.prom").read_text()


def test_run_traced_rejects_unknown_name():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown trace target"):
        run_traced("fig99")


def test_trace_cli_writes_valid_bundle(tmp_path):
    out_dir = tmp_path / "bundle"
    rc = main(["trace", "fig1", "--out", str(out_dir)])
    assert rc == 0
    trace_path = out_dir / "trace.json"
    assert trace_path.exists()
    with open(trace_path) as f:
        obj = json.load(f)
    spans = validate_chrome_trace(obj)
    names = {s.name for s in spans.values()}
    assert "write" in names and "server_WRITE" in names
    prom = (out_dir / "metrics.prom").read_text()
    assert "repro_syscall_write_calls" in prom
    assert prom.endswith("\n")
    profile = (out_dir / "profile.txt").read_text()
    assert "samples" in profile  # the profiler section rendered
    assert "write() latency" in profile


def test_metrics_cli_prints_prometheus_text(capsys):
    rc = main(["metrics", "fig1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "repro_rpc_submitted" in text
    assert "repro_bkl_acquisitions" in text  # harvested BKL ledger


def test_metrics_deterministic_across_runs(tmp_path):
    buf1, buf2 = io.StringIO(), io.StringIO()
    from repro.experiments.cli import print_metrics

    assert print_metrics("fig1", out=buf1) == 0
    assert print_metrics("fig1", out=buf2) == 0
    assert buf1.getvalue() == buf2.getvalue()


def test_write_bundle_multi_bed_suffixes(tmp_path):
    observabilities, result, _ = run_traced("fig1")
    paths = write_bundle(
        observabilities[0], str(tmp_path), "fig1", index=0
    )
    assert [os.path.basename(p) for p in paths] == [
        "trace-0.json",
        "metrics-0.prom",
        "profile-0.txt",
        "timeline-0.json",
        "slo-0.json",
    ]


def test_write_bundle_refuses_overwrite_without_force(tmp_path):
    from repro.errors import ConfigError

    observabilities, _, _ = run_traced("fig1")
    write_bundle(observabilities[0], str(tmp_path), "fig1")
    with pytest.raises(ConfigError, match="refusing to overwrite"):
        write_bundle(observabilities[0], str(tmp_path), "fig1")
    # --force replaces the bundle in place.
    paths = write_bundle(observabilities[0], str(tmp_path), "fig1", force=True)
    assert all(os.path.exists(p) for p in paths)


def test_trace_cli_overwrite_refusal_and_force(tmp_path):
    out_dir = str(tmp_path / "bundle")
    assert main(["trace", "fig1", "--out", out_dir]) == 0
    assert main(["trace", "fig1", "--out", out_dir]) == 1
    assert main(["trace", "fig1", "--out", out_dir, "--force"]) == 0


def test_report_cli_from_bundle_dir(tmp_path, capsys):
    out_dir = str(tmp_path / "bundle")
    assert main(["trace", "fleet", "--out", out_dir]) == 0
    capsys.readouterr()
    assert main(["report", out_dir]) == 0
    text = capsys.readouterr().out
    assert "== timelines ==" in text
    assert "== slo verdicts ==" in text
    assert "== percentiles ==" in text
    assert "write-latency" in text


def test_report_cli_html_and_live_run(tmp_path):
    html_path = str(tmp_path / "dash.html")
    assert main(["report", "fleet", "--html", html_path]) == 0
    text = open(html_path).read()
    assert text.startswith("<!DOCTYPE html>")
    assert "SLO verdicts" in text and "polyline" in text


def test_report_cli_rejects_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "no timeline" in capsys.readouterr().out


def test_every_trace_point_names_a_real_experiment():
    from repro.experiments.registry import experiment_ids

    assert set(TRACE_POINTS) == set(experiment_ids())
