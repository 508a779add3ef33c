"""The on-disk scenario corpus: discovery, strict replay, drift detection."""

import json
import os

import pytest

from repro.chaos import (
    corpus_files,
    load_scenario,
    pin_expectations,
    replay_file,
    run_spec,
    save_regression,
    save_scenario,
)
from repro.errors import ConfigError

from . import CORPUS, corpus_spec

#: Every strict corpus file but the Figure 1 sweep, which has its own test.
CHAOS_FILES = [
    path
    for path in corpus_files(CORPUS)
    if os.path.basename(path) != "fig1-throughput.json"
]


def test_corpus_discovery_excludes_templates(tmp_path):
    (tmp_path / "a.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("")
    (tmp_path / "templates").mkdir()
    (tmp_path / "templates" / "t.json").write_text("{}")
    (tmp_path / "regressions").mkdir()
    (tmp_path / "regressions" / "r.json").write_text("{}")
    files = corpus_files(str(tmp_path))
    names = [os.path.relpath(p, str(tmp_path)) for p in files]
    assert names == ["a.json", os.path.join("regressions", "r.json")]
    assert corpus_files(str(tmp_path), include_regressions=False) == [
        str(tmp_path / "a.json")
    ]


def test_missing_corpus_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no scenario corpus"):
        corpus_files(str(tmp_path / "nowhere"))


def test_replay_detects_fingerprint_drift(tmp_path):
    spec = corpus_spec("slot-starvation")
    outcome = run_spec(spec, verify_determinism=False)
    pinned = pin_expectations(spec, outcome)
    tampered = pinned.replace(
        expect=pinned.expect.__class__(
            passed=pinned.expect.passed,
            failed=pinned.expect.failed,
            fingerprint="0" * 64,
        )
    )
    path = save_scenario(tampered, str(tmp_path))
    replay = replay_file(path, verify_determinism=False)
    assert not replay.ok
    assert not replay.verdict_ok
    assert any("fingerprint drift" in m for m in replay.mismatches)


def test_replay_detects_verdict_drift(tmp_path):
    spec = corpus_spec("slot-starvation")
    outcome = run_spec(spec, verify_determinism=False)
    pinned = pin_expectations(spec, outcome)
    tampered = pinned.replace(
        expect=pinned.expect.__class__(
            passed=False,
            failed=("stability",),
            fingerprint=pinned.expect.fingerprint,
        )
    )
    path = save_scenario(tampered, str(tmp_path))
    replay = replay_file(path, verify_determinism=False)
    assert not replay.ok
    assert any("expected pass=False" in m for m in replay.mismatches)
    assert any("stability" in m for m in replay.mismatches)


def test_unpinned_scenario_gates_on_its_own_verdict(tmp_path):
    """A file with no expect block is still a CI gate: the run must pass."""
    spec = corpus_spec("slot-starvation")
    path = save_scenario(spec, str(tmp_path))
    replay = replay_file(path, verify_determinism=False)
    assert replay.ok  # no expectations to violate...
    assert replay.verdict_ok  # ...but the run itself passed

    failing = spec.replace(
        name="rigged",
        checks=spec.checks
        + (spec.checks[1].__class__("backlog-built-up", params=(("min", 10**9),)),),
    )
    path = save_scenario(failing, str(tmp_path))
    replay = replay_file(path, verify_determinism=False)
    assert replay.ok
    assert not replay.verdict_ok


def test_save_regression_lands_in_subdir_with_provenance(tmp_path):
    spec = corpus_spec("jukebox")
    outcome = run_spec(spec, verify_determinism=False)
    path = save_regression(
        spec, outcome, str(tmp_path), provenance=(("fuzz_seed", 9),)
    )
    assert os.path.dirname(path).endswith("regressions")
    saved = load_scenario(path)
    assert dict(saved.provenance)["fuzz_seed"] == 9
    assert saved.expect.fingerprint == outcome.fingerprint
    assert path in corpus_files(str(tmp_path))


@pytest.mark.parametrize(
    "path",
    CHAOS_FILES,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in CHAOS_FILES],
)
def test_corpus_file_replays_strictly(path):
    """Every pinned chaos file still passes, fingerprints as pinned, and
    replays bit for bit."""
    replay = replay_file(path, verify_determinism=True)
    assert replay.ok, replay.mismatches
    assert replay.outcome.passed
    assert replay.spec.expect.fingerprint


def test_payload_is_seed_sensitive_and_repeatable():
    spec = corpus_spec("lossy-burst")
    one = run_spec(spec, seed=1, verify_determinism=False)
    again = run_spec(spec, seed=1, verify_determinism=False)
    other = run_spec(spec, seed=9, verify_determinism=False)
    assert one.payload == again.payload
    assert one.fingerprint != other.fingerprint


def test_corpus_files_are_canonical_json():
    for path in corpus_files(CORPUS, include_regressions=False):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert text == load_scenario(path).to_json(), path
        assert doc["schema"] == "repro-nfs/scenario@1"


# -- experiment scenarios (paper figures replayed as corpus gates) ------------


def test_experiment_spec_round_trips():
    from repro.chaos import ExperimentSpec, ScenarioSpec, BedSpec

    spec = ScenarioSpec(
        name="fig1-rt",
        bed=BedSpec(),
        experiment=ExperimentSpec(id="fig1", scale=16.0, quick=True),
    )
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.workload is None
    assert rebuilt.experiment.id == "fig1"


def test_experiment_spec_rejects_workload_and_faults():
    from repro.chaos import (
        BedSpec,
        ExperimentSpec,
        ScenarioSpec,
        ServerEventSpec,
        WorkloadSpec,
    )

    exp = ExperimentSpec(id="fig1", scale=16.0, quick=True)
    with pytest.raises(ConfigError, match="no workload"):
        ScenarioSpec(
            name="x",
            bed=BedSpec(),
            workload=WorkloadSpec(file_bytes=1),
            experiment=exp,
        )
    with pytest.raises(ConfigError, match="no fault schedule"):
        ScenarioSpec(
            name="x",
            bed=BedSpec(),
            experiment=exp,
            server_events=(ServerEventSpec(op="crash", at_ns=1),),
        )
    with pytest.raises(ConfigError, match="workload or an experiment"):
        ScenarioSpec(name="x", bed=BedSpec())


def test_experiment_scenario_rejects_unknown_registry_id():
    from repro.chaos import BedSpec, ExperimentSpec, ScenarioSpec

    spec = ScenarioSpec(
        name="x",
        bed=BedSpec(),
        experiment=ExperimentSpec(id="no-such-figure"),
    )
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_spec(spec, verify_determinism=False)


def test_fig1_corpus_scenario_replays_strictly():
    """The Figure 1 sweep is corpus-gated: pinned fingerprint, and every
    paper shape criterion is an invariant row."""
    replay = replay_file(
        os.path.join(CORPUS, "fig1-throughput.json"), verify_determinism=False
    )
    assert replay.ok, replay.mismatches
    assert replay.outcome.passed
    names = [inv.name for inv in replay.outcome.invariants]
    assert "local memory-write peak dwarfs NFS" in names
    assert replay.spec.experiment.id == "fig1"
    assert replay.spec.experiment.quick is True
