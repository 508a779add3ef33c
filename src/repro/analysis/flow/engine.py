"""Orchestration for ``repro-nfs flow``: index → graph → passes → report.

Runs every rule — the per-module syntactic DET10x/MUT201/DEAD301 pass
and the interprocedural passes — over one package root, applies
``# noqa: CODE`` suppressions (a suppression that silences nothing is
SUP401), diffs against the committed baseline, and renders text or a
stable JSON report (``repro-nfs/flow-report@1``).

Exit contract: 0 clean, 1 findings (errors always fail, warnings only
under ``--strict``), 2 usage errors (unknown ``--select`` code,
unreadable/invalid baseline).
"""

from __future__ import annotations

import io
import json
import re
import sys
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from .baseline import BaselineEntry, apply_baseline, load_baseline, save_baseline
from .callgraph import build_callgraph
from .config import DEFAULT_CONFIG, FlowConfig
from .effects import FlowIssue, check_pure_observer, extract_effects
from .locks import check_locks
from .modindex import build_index
from .simapi import check_simapi
from .syntactic import check_syntactic
from .taint import check_taint

__all__ = [
    "FLOW_RULES",
    "FlowFinding",
    "FlowReport",
    "analyze",
    "default_flow_root",
    "run_flow",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "repro-nfs/flow-report@1"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class FlowRule:
    code: str
    name: str
    severity: str
    summary: str


_FLOW_RULE_LIST = [
    FlowRule("FLW001", "syntax-error", SEVERITY_ERROR, "file does not parse; excluded from the whole-program graph"),
    FlowRule("FLW002", "stale-baseline-entry", SEVERITY_ERROR, "baseline entry matches no current finding; remove it"),
    FlowRule("SUP401", "unused-suppression", SEVERITY_WARNING, "noqa comment suppresses no finding on this line; remove it"),
    FlowRule("DET101", "unseeded-rng", SEVERITY_ERROR, "process-global or unseeded RNG breaks deterministic replay; draw from a named repro.sim.RngStreams stream instead"),
    FlowRule("DET102", "wall-clock", SEVERITY_ERROR, "host wall-clock reads leak nondeterminism into the simulation; use the simulator clock (sim.now) for model time"),
    FlowRule("DET103", "unordered-iteration", SEVERITY_ERROR, "iterating a set yields PYTHONHASHSEED-dependent order; sort it or keep an insertion-ordered structure"),
    FlowRule("DET104", "id-in-key", SEVERITY_ERROR, "id() in a sort key or hash input depends on allocation addresses and varies run to run"),
    FlowRule("DET105", "stray-random-import", SEVERITY_WARNING, "import random outside repro.sim.rng; all randomness must flow through named RngStreams streams"),
    FlowRule("MUT201", "mutable-default", SEVERITY_ERROR, "mutable default argument is shared across calls"),
    FlowRule("DEAD301", "unreachable-code", SEVERITY_ERROR, "statement is unreachable after an unconditional return/raise/break/continue"),
    FlowRule("PUR501", "impure-observer-write", SEVERITY_ERROR, "observer-reachable code writes non-observer state"),
    FlowRule("PUR502", "unresolved-ownership-write", SEVERITY_WARNING, "observer-reachable write whose owner could not be resolved"),
    FlowRule("PUR503", "observer-schedules-or-draws", SEVERITY_ERROR, "observer-reachable code schedules events or draws RNG"),
    FlowRule("PUR504", "observer-unresolved-call", SEVERITY_WARNING, "unresolved call escapes the audited observer region"),
    FlowRule("DET151", "taint-reaches-fingerprint", SEVERITY_ERROR, "nondeterministic value flows into a fingerprint"),
    FlowRule("DET152", "taint-reaches-scheduler", SEVERITY_ERROR, "nondeterministic value flows into event scheduling"),
    FlowRule("DET153", "tainted-state-write", SEVERITY_WARNING, "nondeterministic value stored into object state"),
    FlowRule("LCK701", "bkl-break-without-reacquire", SEVERITY_ERROR, "break_all without a finally-protected reacquire"),
    FlowRule("LCK702", "blocking-call-in-handler", SEVERITY_ERROR, "blocking/forbidden call reachable from event handlers"),
    FlowRule("SIM601", "negative-delay", SEVERITY_ERROR, "call_after delay constant-folds negative"),
    FlowRule("SIM602", "dead-simulator-schedule", SEVERITY_WARNING, "scheduling on a possibly-None simulator"),
    FlowRule("SIM603", "dropped-coroutine", SEVERITY_ERROR, "generator call never iterated (missing yield from)"),
]

FLOW_RULES: Dict[str, FlowRule] = {r.code: r for r in _FLOW_RULE_LIST}


@dataclass(frozen=True)
class FlowFinding:
    """One flow finding with its stable baseline key."""

    code: str
    path: str  # absolute path as analysed
    rel: str  # path relative to the package root's parent
    line: int
    message: str
    severity: str
    scope: str
    slug: str

    @property
    def key(self) -> str:
        return f"{self.code}::{self.rel}::{self.scope}::{self.slug}"

    def render(self) -> str:
        return f"{self.rel}:{self.line}: {self.code} {self.message}"


@dataclass
class FlowReport:
    root: str
    findings: List[FlowFinding]
    stats: Dict[str, int]
    #: Absolute path -> the source text each analysed module was parsed
    #: from (what ``--fix-suppressions`` rewrites).
    sources: Dict[str, str] = field(default_factory=dict, repr=False)


# -- noqa suppressions -------------------------------------------------------

#: ``# noqa: CODE[,CODE]``. A bare ``# noqa``, or any variant without
#: the ``: CODE`` list, names no code and silences nothing. Foreign
#: codes (flake8's ``F401``, ``BLE001`` …) parse but are never ours.
_NOQA_RE = re.compile(r"#\s*noqa:\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


def _scan_suppressions(source: str) -> Dict[int, List[object]]:
    """Map line number -> [codes, used] for every ``# noqa: CODE`` comment."""
    suppressions: Dict[int, List[object]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is not None:
                codes = frozenset(
                    c.strip() for c in match.group("codes").split(",")
                )
                suppressions[token.start[0]] = [codes, False]
    except tokenize.TokenError:
        pass  # the file parsed; a tokenize-only quirk leaves it unsuppressed
    return suppressions


# -- analysis ----------------------------------------------------------------


def default_flow_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parents[2]


def _relpath(path: str, root: Path) -> str:
    try:
        return Path(path).resolve().relative_to(root.resolve().parent).as_posix()
    except ValueError:
        return Path(path).name


def analyze(
    root: Optional[Union[str, Path]] = None,
    config: Optional[FlowConfig] = None,
) -> FlowReport:
    """Run all flow passes over one package root."""
    started = time.perf_counter()  # noqa: DET102 host-side timing only
    root_path = Path(root) if root is not None else default_flow_root()
    if config is not None:
        cfg = config
    elif root is None:
        cfg = DEFAULT_CONFIG
    else:
        cfg = FlowConfig(root_package=root_path.name)
    index = build_index(root_path, root_package=cfg.root_package)
    graph = build_callgraph(index)

    # Per-file suppressions, keyed by the absolute path the index uses.
    noqa = {
        mod.path: _scan_suppressions(mod.source) for mod in index.modules.values()
    }

    def source_silenced(path: str, line: int) -> bool:
        """A noqa naming a DET code also silences the line's taint source."""
        entry = noqa[path].get(line)
        return entry is not None and any(c.startswith("DET") for c in entry[0])

    issues: List[FlowIssue] = check_syntactic(index)
    stats: Dict[str, int] = {}
    local = extract_effects(graph)
    pur, pur_stats = check_pure_observer(graph, local, cfg)
    det, det_stats = check_taint(graph, source_silenced)
    lck, lck_stats = check_locks(graph)
    sim, sim_stats = check_simapi(graph)
    issues.extend(pur)
    issues.extend(det)
    issues.extend(lck)
    issues.extend(sim)
    stats.update(pur_stats)
    stats.update(det_stats)
    stats.update(lck_stats)
    stats.update(sim_stats)
    stats.update(graph.stats())

    findings: List[FlowFinding] = []
    for failure in index.failures:
        findings.append(
            FlowFinding(
                code="FLW001",
                path=failure.path,
                rel=_relpath(failure.path, root_path),
                line=failure.line,
                message=f"syntax error: {failure.message}",
                severity=SEVERITY_ERROR,
                scope="<module>",
                slug="syntax",
            )
        )

    for issue in issues:
        entry = noqa[issue.path].get(issue.line)
        if entry is not None and issue.code in entry[0]:
            entry[1] = True
            continue
        findings.append(
            FlowFinding(
                code=issue.code,
                path=issue.path,
                rel=_relpath(issue.path, root_path),
                line=issue.line,
                message=issue.message,
                severity=FLOW_RULES[issue.code].severity,
                scope=issue.scope,
                slug=issue.slug,
            )
        )

    # SUP401: a noqa naming one of our codes that silenced nothing.
    for path, entries in sorted(noqa.items()):
        for line, (codes, used) in sorted(entries.items()):
            ours = sorted(codes & FLOW_RULES.keys())
            if used or not ours:
                continue
            findings.append(
                FlowFinding(
                    code="SUP401",
                    path=path,
                    rel=_relpath(path, root_path),
                    line=line,
                    message=f"noqa ({','.join(ours)}) suppresses no finding "
                    "on this line; remove the stale suppression",
                    severity=SEVERITY_WARNING,
                    scope="<module>",
                    slug=f"stale:{','.join(ours)}",
                )
            )

    findings.sort(key=lambda f: (f.rel, f.line, f.code, f.slug))
    elapsed = time.perf_counter() - started  # noqa: DET102 host timing
    stats["elapsed_ms"] = int(elapsed * 1000)
    stats["findings"] = len(findings)
    return FlowReport(
        root=str(root_path),
        findings=findings,
        stats=stats,
        sources={mod.path: mod.source for mod in index.modules.values()},
    )


# -- CLI driver --------------------------------------------------------------


def _stale_finding(entry: BaselineEntry, root: str) -> FlowFinding:
    parts = entry.key.split("::")
    rel = parts[1] if len(parts) > 1 else "<baseline>"
    return FlowFinding(
        code="FLW002",
        path=rel,
        rel=rel,
        line=0,
        message=f"baseline entry `{entry.key}` matches no current finding; "
        "remove it from the baseline",
        severity=SEVERITY_ERROR,
        scope=parts[2] if len(parts) > 2 else "<baseline>",
        slug=entry.key,
    )


def _fix_suppressions(report: FlowReport, out) -> int:
    """Strip every noqa comment SUP401 reports, rewriting files in place.

    A noqa that still silences one of its codes never fires SUP401, so
    it is left alone even when another listed code is stale.
    """
    stale: Dict[str, List[FlowFinding]] = {}
    for finding in report.findings:
        if finding.code == "SUP401":
            stale.setdefault(finding.path, []).append(finding)
    for path, found in sorted(stale.items()):
        lines = report.sources[path].split("\n")
        for finding in found:
            raw = lines[finding.line - 1]
            match = _NOQA_RE.search(raw)
            lines[finding.line - 1] = raw[: match.start()].rstrip()
            out.write(
                f"{finding.rel}:{finding.line}: removed stale "
                f"`{raw[match.start():].strip()}`\n"
            )
        Path(path).write_text("\n".join(lines), encoding="utf-8")
    removed = sum(len(found) for found in stale.values())
    out.write(f"removed {removed} stale suppression(s) in {len(stale)} file(s)\n")
    return 0


def run_flow(
    root: Optional[str] = None,
    strict: bool = False,
    select: Optional[str] = None,
    fmt: str = "text",
    baseline: Optional[str] = None,
    write_baseline: Optional[str] = None,
    fix_suppressions: bool = False,
    out=None,
    config: Optional[FlowConfig] = None,
) -> int:
    """CLI driver for ``repro-nfs flow``."""
    if out is None:
        out = sys.stdout
    selected: Optional[Set[str]] = None
    if select:
        codes = [c.strip() for c in select.split(",") if c.strip()]
        unknown = [c for c in codes if c not in FLOW_RULES]
        if unknown:
            out.write(f"unknown rule code(s): {', '.join(unknown)}\n")
            out.write(f"known codes: {', '.join(sorted(FLOW_RULES))}\n")
            return 2
        selected = set(codes)

    report = analyze(root, config=config)
    findings = report.findings

    if fix_suppressions:
        return _fix_suppressions(report, out)

    if write_baseline:
        # Carry forward justifications for entries that survive the
        # regeneration; new entries get the placeholder to fill in.
        kept: Dict[str, str] = {}
        if Path(write_baseline).exists():
            try:
                kept = {
                    key: entry.justification
                    for key, entry in load_baseline(write_baseline).items()
                    if entry.justification
                }
            except (OSError, ValueError, json.JSONDecodeError):
                kept = {}
        save_baseline(write_baseline, findings, justifications=kept)
        out.write(
            f"wrote {len({f.key for f in findings})} baseline entrie(s) to "
            f"{write_baseline}\n"
        )
        return 0

    matched = 0
    if baseline:
        try:
            entries = load_baseline(baseline)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            out.write(f"cannot load baseline: {err}\n")
            return 2
        findings, matched, stale = apply_baseline(findings, entries)
        findings.extend(_stale_finding(entry, report.root) for entry in stale)
        findings.sort(key=lambda f: (f.rel, f.line, f.code, f.slug))

    if selected is not None:
        findings = [f for f in findings if f.code in selected]

    errors = [f for f in findings if f.severity == SEVERITY_ERROR]
    warnings = [f for f in findings if f.severity == SEVERITY_WARNING]

    if fmt == "json":
        payload = {
            "schema": REPORT_SCHEMA,
            "root": report.root,
            "stats": report.stats,
            "baseline": {"matched": matched},
            "findings": [
                {
                    "code": f.code,
                    "path": f.rel,
                    "line": f.line,
                    "severity": f.severity,
                    "message": f.message,
                    "scope": f.scope,
                    "key": f.key,
                }
                for f in findings
            ],
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for finding in findings:
            out.write(finding.render() + "\n")
        out.write(
            f"{len(findings)} finding(s): {len(errors)} error(s), "
            f"{len(warnings)} warning(s)"
            + (f"; {matched} baselined" if baseline else "")
            + f" [{report.stats.get('elapsed_ms', 0)} ms, "
            f"{report.stats.get('functions', 0)} functions, "
            f"{report.stats.get('unresolved', 0)} unresolved calls]\n"
        )

    failed = bool(errors) or (strict and bool(warnings))
    return 1 if failed else 0
