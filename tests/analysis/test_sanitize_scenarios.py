"""Sanitized fault-scenario runs: clean, and perturbation-free."""

import io
import os

from repro.chaos import run_spec
from repro.experiments.cli import main as cli_main, run_scenario_files

from ..chaos import CORPUS, corpus_spec

JUKEBOX = os.path.join(CORPUS, "jukebox.json")


def test_sanitized_scenario_adds_passing_invariants():
    outcome = run_spec(
        corpus_spec("jukebox"), verify_determinism=False, sanitize=True
    )
    names = [inv.name for inv in outcome.invariants]
    assert "sanitize-locks" in names
    assert "sanitize-races" in names
    assert "sanitize-invariants" in names
    assert outcome.passed


def test_sanitizers_do_not_perturb_the_fingerprint():
    # The sanitized first run must fingerprint identically to both the
    # unsanitized replay (checked inside run_spec) and a fully
    # unsanitized run (checked here).
    spec = corpus_spec("lossy-burst")
    sanitized_outcome = run_spec(spec, verify_determinism=True, sanitize=True)
    plain_outcome = run_spec(spec, verify_determinism=False, sanitize=False)
    assert sanitized_outcome.passed
    assert sanitized_outcome.fingerprint == plain_outcome.fingerprint


def test_unsanitized_scenario_has_no_sanitize_rows():
    outcome = run_spec(corpus_spec("jukebox"), verify_determinism=False)
    assert not any(inv.name.startswith("sanitize-") for inv in outcome.invariants)


def test_cli_run_sanitize_flag():
    out = io.StringIO()
    assert run_scenario_files([JUKEBOX], sanitize=True, out=out)
    text = out.getvalue()
    assert "sanitize-locks" in text
    assert "sanitize-races" in text
    assert "sanitize-invariants" in text


def test_cli_run_sanitize_end_to_end(capsys):
    assert cli_main(["run", JUKEBOX, "--sanitize"]) == 0
    assert "sanitize-locks" in capsys.readouterr().out
