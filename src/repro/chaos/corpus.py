"""The versioned ``scenarios/`` corpus: discovery, replay, regression save.

Corpus layout (conventions documented in ``docs/scenarios.md``):

* ``scenarios/*.json`` — strict replay files.  Each carries an
  ``expect`` block (pass verdict, failed-invariant names, payload
  fingerprint) pinned when the file was generated; CI replays every one
  and fails on any drift.
* ``scenarios/templates/*.json`` — parameterised scenarios with
  ``{{ PLACEHOLDER }}`` markers.  They need environment variables to
  load, so strict replay skips them; tests exercise them with explicit
  ``env`` dicts.
* ``scenarios/regressions/*.json`` — shrunk fuzzer findings, auto-saved
  with provenance (fuzz seed, draw index, shrink trace).  Replayed
  strictly like the top level.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .runner import ScenarioOutcome, failure_signature, run_spec
from .spec import ExpectSpec, ScenarioSpec, load_scenario

__all__ = [
    "REGRESSION_DIR",
    "CorpusReplay",
    "corpus_files",
    "replay_file",
    "pin_expectations",
    "save_scenario",
    "save_regression",
]

REGRESSION_DIR = "regressions"


def corpus_files(root: str, include_regressions: bool = True) -> List[str]:
    """Every strict-replay scenario file under ``root``, sorted.

    Templates are excluded — they cannot load without an environment —
    and regressions are included unless asked otherwise.
    """
    if not os.path.isdir(root):
        raise ConfigError(f"no scenario corpus at {root!r}")
    out = [
        os.path.join(root, name)
        for name in sorted(os.listdir(root))
        if name.endswith(".json")
    ]
    regressions = os.path.join(root, REGRESSION_DIR)
    if include_regressions and os.path.isdir(regressions):
        out.extend(
            os.path.join(regressions, name)
            for name in sorted(os.listdir(regressions))
            if name.endswith(".json")
        )
    return out


@dataclass
class CorpusReplay:
    """One corpus file's replay: the outcome plus any contract drift."""

    path: str
    spec: ScenarioSpec
    outcome: ScenarioOutcome
    #: Human-readable expectation mismatches; empty means the file's
    #: ``expect`` block still holds.
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def verdict_ok(self) -> bool:
        """The CI gate: expectations hold — and, for files that pin no
        verdict at all, the run itself must pass."""
        if self.spec.expect.passed is None and not self.spec.expect.failed:
            return self.ok and self.outcome.passed
        return self.ok


def _check_expectations(
    spec: ScenarioSpec, outcome: ScenarioOutcome
) -> List[str]:
    expect = spec.expect
    mismatches: List[str] = []
    if expect.passed is not None and outcome.passed != expect.passed:
        failed = ", ".join(failure_signature(outcome.invariants)) or "none"
        mismatches.append(
            f"expected pass={expect.passed}, got pass={outcome.passed} "
            f"(failed: {failed})"
        )
    if expect.failed:
        got = failure_signature(outcome.invariants)
        want = tuple(sorted(expect.failed))
        if got != want:
            mismatches.append(
                f"expected failed invariants {list(want)}, got {list(got)}"
            )
    if expect.fingerprint is not None and outcome.fingerprint != expect.fingerprint:
        mismatches.append(
            f"fingerprint drift: pinned {expect.fingerprint[:12]}, "
            f"got {outcome.fingerprint[:12]}"
        )
    return mismatches


def replay_file(
    path: str,
    env: Optional[Dict[str, str]] = None,
    verify_determinism: bool = True,
    sanitize: bool = False,
) -> CorpusReplay:
    """Load one scenario file, run it, and audit its ``expect`` block."""
    spec = load_scenario(path, env)
    outcome = run_spec(
        spec, verify_determinism=verify_determinism, sanitize=sanitize
    )
    return CorpusReplay(
        path=path,
        spec=spec,
        outcome=outcome,
        mismatches=_check_expectations(spec, outcome),
    )


def pin_expectations(
    spec: ScenarioSpec, outcome: ScenarioOutcome
) -> ScenarioSpec:
    """Bake the run's verdicts into the spec's ``expect`` block."""
    return spec.replace(
        expect=ExpectSpec(
            passed=outcome.passed,
            failed=failure_signature(outcome.invariants),
            fingerprint=outcome.fingerprint,
        )
    )


def save_scenario(spec: ScenarioSpec, root: str, subdir: str = "") -> str:
    """Serialise one spec into the corpus; returns the file path."""
    directory = os.path.join(root, subdir) if subdir else root
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{spec.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())
    return path


def save_regression(
    spec: ScenarioSpec,
    outcome: ScenarioOutcome,
    root: str,
    provenance: Tuple[Tuple[str, object], ...] = (),
) -> str:
    """Auto-save one shrunk fuzzer finding as a regression scenario."""
    pinned = pin_expectations(spec, outcome)
    if provenance:
        pinned = pinned.replace(provenance=provenance)
    return save_scenario(pinned, root, subdir=REGRESSION_DIR)
