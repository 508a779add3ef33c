"""Chaos engineering for the simulated write path.

Declarative, schema-validated fault scenarios (:mod:`repro.chaos.spec`,
:mod:`repro.chaos.schema`), a runner that materialises them against the
simulator (:mod:`repro.chaos.runner`), the invariant check registry
(:mod:`repro.chaos.checks`), the versioned ``scenarios/`` corpus loader
(:mod:`repro.chaos.corpus`), and the seeded fault-schedule fuzzer with
its deterministic delta-debugging shrinker (:mod:`repro.chaos.fuzz`,
:mod:`repro.chaos.shrink`).
"""

from .schema import SCENARIO_SCHEMA, SCHEMA_VERSION, SchemaError, validate
from .spec import (
    BedSpec,
    CheckSpec,
    ClientEventSpec,
    ExpectSpec,
    ExperimentSpec,
    LinkFaultSpec,
    ProbeSpec,
    ScenarioSpec,
    ServerEventSpec,
    WorkloadSpec,
    load_scenario,
    loads_scenario,
)
from .checks import CHECKS, CheckContext, Invariant, check_names, run_checks
from .runner import ScenarioOutcome, failure_signature, run_spec
from .corpus import (
    CorpusReplay,
    corpus_files,
    pin_expectations,
    replay_file,
    save_regression,
    save_scenario,
)
from .shrink import ShrinkResult, shrink
from .fuzz import FuzzFinding, FuzzReport, draw_spec, fuzz

__all__ = [
    "SCENARIO_SCHEMA",
    "SCHEMA_VERSION",
    "SchemaError",
    "validate",
    "BedSpec",
    "CheckSpec",
    "ClientEventSpec",
    "ExpectSpec",
    "ExperimentSpec",
    "LinkFaultSpec",
    "ProbeSpec",
    "ScenarioSpec",
    "ServerEventSpec",
    "WorkloadSpec",
    "load_scenario",
    "loads_scenario",
    "CHECKS",
    "CheckContext",
    "Invariant",
    "check_names",
    "run_checks",
    "ScenarioOutcome",
    "failure_signature",
    "run_spec",
    "CorpusReplay",
    "corpus_files",
    "pin_expectations",
    "replay_file",
    "save_regression",
    "save_scenario",
    "ShrinkResult",
    "shrink",
    "FuzzFinding",
    "FuzzReport",
    "draw_spec",
    "fuzz",
]
