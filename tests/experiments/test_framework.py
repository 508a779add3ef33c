"""Tests for the experiment framework, registry and CLI plumbing."""

import io

import pytest

from repro.errors import ConfigError
from repro.experiments import experiment_ids, format_table, get_experiment, scaled_configs
from repro.experiments.cli import build_parser, run_experiments


def test_registry_covers_every_paper_artifact():
    ids = experiment_ids()
    assert ids == [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "tab1", "fig7", "fleet",
        "scale",
    ]
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        assert experiment.id == experiment_id
        assert experiment.title
        assert experiment.paper_ref


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        get_experiment("fig9")


def test_scaled_configs():
    hw, filer = scaled_configs(4)
    assert hw.ram_bytes == 64 * 1024 * 1024
    assert filer.nvram_bytes == 16 * 1024 * 1024
    with pytest.raises(ConfigError):
        get_experiment("fig2").run(scale=0)


def test_format_table_alignment():
    text = format_table(["a", "bee"], [[1.234, "x"], [10, "yy"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.2" in lines[2]
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_cli_parser():
    parser = build_parser()
    args = parser.parse_args(["run", "fig2", "--quick", "--scale", "8"])
    assert args.ids == ["fig2"]
    assert args.quick
    assert args.scale == 8.0
    args = parser.parse_args(["list"])
    assert args.command == "list"
    args = parser.parse_args(["fleet", "--clients", "4"])
    assert args.clients == 4
    args = parser.parse_args(["bench", "--quick", "--json", "out.json"])
    assert args.quick and args.json_path == "out.json"


def test_run_experiments_renders_report():
    out = io.StringIO()
    ok = run_experiments(["fig2"], scale=4.0, quick=True, out=out)
    text = out.getvalue()
    assert "fig2" in text
    assert "[PASS]" in text
    assert ok  # fig2's criteria hold even in quick mode
