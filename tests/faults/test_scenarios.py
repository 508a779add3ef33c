"""End-to-end fault scenarios, run from the pinned ``scenarios/`` corpus."""

import io
import os

import pytest

from repro.chaos import corpus_files, load_scenario, run_spec
from repro.errors import ConfigError
from repro.experiments.cli import main, run_scenario_files

from ..chaos import CORPUS, corpus_spec

FAULT_SCENARIOS = {
    "lossy-burst",
    "server-restart",
    "soft-timeout",
    "jukebox",
    "slot-starvation",
    "monotone-loss",
}


def test_registry_has_the_full_scenario_suite():
    # The corpus directory is the scenario registry: losing a file must
    # fail here, not silently shrink the strict replay's parametrisation.
    specs = {
        spec.name: spec
        for spec in map(load_scenario, corpus_files(CORPUS))
    }
    assert FAULT_SCENARIOS <= set(specs)
    assert all(specs[name].description for name in FAULT_SCENARIOS)


def test_jukebox_scenario_passes():
    outcome = run_spec(corpus_spec("jukebox"), verify_determinism=False)
    assert outcome.passed
    names = {inv.name for inv in outcome.invariants}
    assert "jukebox-injected" in names
    assert "no-duplicate-ingest" in names


def test_soft_timeout_scenario_surfaces_eio():
    outcome = run_spec(corpus_spec("soft-timeout"), verify_determinism=False)
    assert outcome.passed
    by_name = {inv.name: inv for inv in outcome.invariants}
    assert by_name["eio-surfaced"].ok
    assert by_name["syscall-saw-eio"].ok


def test_determinism_invariant_appended_when_verifying():
    outcome = run_spec(
        corpus_spec("slot-starvation"), seed=2, verify_determinism=True
    )
    assert outcome.passed
    by_name = {inv.name: inv for inv in outcome.invariants}
    assert by_name["deterministic"].ok


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="cannot read scenario"):
        load_scenario(os.path.join(CORPUS, "no-such-chaos.json"))


def test_cli_runner_prints_verdicts():
    out = io.StringIO()
    ok = run_scenario_files([os.path.join(CORPUS, "jukebox.json")], out=out)
    assert ok
    text = out.getvalue()
    assert text.startswith("PASS jukebox")
    assert "[ok      ] jukebox-injected" in text


def test_cli_rejects_unknown_scenario():
    with pytest.raises(ConfigError, match="cannot read scenario"):
        main(["run", "bogus.json"])
