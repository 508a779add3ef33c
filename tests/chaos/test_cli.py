"""CLI exit-code gating for the chaos surface.

``repro-nfs fleet``, ``run <scenario.json>``, ``corpus``, and ``fuzz``
all exit non-zero on any invariant failure or expectation drift, so CI
can gate on them.
"""

import io
import json
import os

import pytest

from repro.chaos import pin_expectations, run_spec, save_scenario
from repro.chaos.spec import ExpectSpec
from repro.experiments.cli import main, run_corpus, run_scenario_files

from . import corpus_spec

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def _pinned(name, tmp_path, **replace):
    spec = corpus_spec(name)
    if replace:
        spec = spec.replace(**replace)
    outcome = run_spec(spec, verify_determinism=False)
    return save_scenario(pin_expectations(spec, outcome), str(tmp_path))


def test_run_scenario_file_exits_zero_on_pass(tmp_path, capsys):
    path = _pinned("jukebox", tmp_path)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "PASS jukebox" in out


def test_run_scenario_file_exits_one_on_drift(tmp_path, capsys):
    path = _pinned("jukebox", tmp_path)
    doc = json.loads(open(path, encoding="utf-8").read())
    doc["expect"]["fingerprint"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL jukebox" in out
    assert "DRIFT" in out
    assert "fingerprint drift" in out


def test_run_template_reads_placeholders_from_environment(
    monkeypatch, capsys
):
    template = os.path.join(REPO, "scenarios", "templates", "burst-loss.json")
    monkeypatch.setenv("CHAOS_FILE_BYTES", str(2 * 1024 * 1024))
    monkeypatch.setenv("CHAOS_TIMEO_NS", str(25_000_000))
    assert main(["run", template]) == 0
    assert "PASS burst-loss" in capsys.readouterr().out


def test_run_template_without_env_fails_loudly(monkeypatch):
    template = os.path.join(REPO, "scenarios", "templates", "burst-loss.json")
    monkeypatch.delenv("CHAOS_FILE_BYTES", raising=False)
    monkeypatch.delenv("CHAOS_TIMEO_NS", raising=False)
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="CHAOS_"):
        main(["run", template])


def test_corpus_command_gates_on_drift(tmp_path):
    _pinned("jukebox", tmp_path)
    out = io.StringIO()
    assert run_corpus(str(tmp_path), verify=False, out=out) is True
    assert "1 scenario(s) replayed" in out.getvalue()

    # Tamper a pinned verdict: the same corpus must now fail.
    spec = corpus_spec("jukebox")
    tampered = spec.replace(
        expect=ExpectSpec(passed=False, failed=("stability",), fingerprint=None)
    )
    save_scenario(tampered, str(tmp_path))
    out = io.StringIO()
    assert run_corpus(str(tmp_path), verify=False, out=out) is False
    assert "FAIL" in out.getvalue()


def test_fuzz_command_writes_json_report(tmp_path, capsys):
    json_path = str(tmp_path / "report.json")
    assert (
        main(
            [
                "fuzz",
                "--seed",
                "7",
                "--draws",
                "2",
                "--no-sanitize",
                "--json",
                json_path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "PASS fuzz seed=7" in out
    with open(json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["seed"] == 7
    assert len(report["scenarios"]) == 2


def test_fuzz_rejects_bad_draws():
    with pytest.raises(SystemExit):
        main(["fuzz", "--draws", "0"])


def test_run_mixes_scenarios_and_experiments_gate_together(tmp_path):
    """`run` accepts .json paths alongside experiment ids; a failing
    scenario fails the combined run even if experiments pass."""
    spec = corpus_spec("jukebox").replace(
        expect=ExpectSpec(passed=False, failed=("stability",), fingerprint=None)
    )
    path = save_scenario(spec, str(tmp_path))
    out = io.StringIO()
    assert run_scenario_files([path], out=out) is False
    assert "DRIFT" in out.getvalue()
