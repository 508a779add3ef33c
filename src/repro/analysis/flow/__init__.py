"""The static analyzer: statically prove the repro contracts.

``repro.analysis.flow`` parses the entire ``repro`` package once into a
module-resolved call graph (:mod:`.modindex`, :mod:`.callgraph`) and
runs every rule over it:

* :mod:`.syntactic` — DET101–DET105, MUT201, DEAD301 per-module
  determinism and hygiene rules,
* :mod:`.effects` — PUR5xx pure-observer proof (field-write effect
  inference over everything reachable from obs/sanitizer hooks),
* :mod:`.taint` — DET15x nondeterminism taint to fingerprints,
  schedulers, and object state,
* :mod:`.locks` — LCK7xx BKL break/reacquire and blocking-call
  discipline,
* :mod:`.simapi` — SIM6xx simulator API misuse.

Everything is stdlib-only and runs in seconds without executing a
simulation. Suppressions are ``# noqa: CODE`` comments that must name
what they silence. Entry point: :func:`analyze` / :func:`run_flow`
(the ``repro-nfs flow`` CLI).
"""

from .baseline import (  # noqa: F401
    BASELINE_SCHEMA,
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from .callgraph import CallGraph, build_callgraph  # noqa: F401
from .config import DEFAULT_CONFIG, FlowConfig  # noqa: F401
from .engine import (  # noqa: F401
    FLOW_RULES,
    REPORT_SCHEMA,
    FlowFinding,
    FlowReport,
    analyze,
    default_flow_root,
    run_flow,
)
from .modindex import PackageIndex, build_index  # noqa: F401

__all__ = [
    "BASELINE_SCHEMA",
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_CONFIG",
    "FLOW_RULES",
    "FlowConfig",
    "FlowFinding",
    "FlowReport",
    "PackageIndex",
    "REPORT_SCHEMA",
    "analyze",
    "apply_baseline",
    "build_callgraph",
    "build_index",
    "default_flow_root",
    "load_baseline",
    "run_flow",
    "save_baseline",
]
