"""Seeded generative fault-schedule fuzzer.

Each *draw* samples a random scenario — bed, workload, link faults
(Gilbert–Elliott loss, jitter, duplication), timed server
pause/crash/restart, client slot starvation, over single-client or
fleet topologies — from a named RNG stream derived from the fuzz seed,
then runs it under the full invariant suite: durability checks, the
runtime sanitizers, and the determinism replay.

Any violation becomes a finding: the schedule is delta-debug shrunk
(:mod:`repro.chaos.shrink`) to a minimal reproducer preserving the
exact failure signature, re-validated, and — when a corpus root is
given — auto-saved as a regression scenario carrying its fuzz seed,
draw index, and shrink trace.

Everything is a pure function of ``(seed, draw index)``: per-draw RNG
streams mean draw *k* samples the same scenario no matter how many
draws run, and :meth:`FuzzReport.payload` hashes to the same
fingerprint on every machine — ``repro-nfs fuzz`` is bit-reproducible.
"""

from __future__ import annotations

import random  # noqa: DET105 - typing only; draws come from named RngStreams
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim import RngStreams
from ..units import ms
from .corpus import save_regression
from .runner import ScenarioOutcome, _fingerprint, failure_signature, run_spec
from .shrink import ShrinkResult, shrink
from .spec import (
    BedSpec,
    CheckSpec,
    ClientEventSpec,
    LinkFaultSpec,
    ScenarioSpec,
    ServerEventSpec,
    WorkloadSpec,
)

__all__ = ["FuzzFinding", "FuzzReport", "draw_spec", "fuzz"]

_TARGETS = ("netapp", "linux")
_TIMEO_MS = (10, 15, 20, 25, 50)
_RETRANS = (3, 5, 7)
_FILE_KIB = (256, 512, 1024)
_LINK_KINDS = ("gilbert-elliott", "gilbert-elliott", "jitter", "duplicate")


def _draw_link_fault(rng: random.Random, hosts: Tuple[str, ...]) -> LinkFaultSpec:
    kind = rng.choice(_LINK_KINDS)
    attach = rng.choice(hosts)
    direction = rng.choice(("uplink", "downlink"))
    if kind == "gilbert-elliott":
        params: Tuple[Tuple[str, Any], ...] = (
            ("p_bad_to_good", round(rng.uniform(0.2, 0.5), 3)),
            ("p_good_to_bad", round(rng.uniform(0.005, 0.03), 4)),
        )
    elif kind == "jitter":
        params = (("max_jitter_ns", rng.randrange(100_000, 2_000_000)),)
    else:
        params = (("probability", round(rng.uniform(0.005, 0.05), 4)),)
    return LinkFaultSpec(
        kind=kind, attach=attach, direction=direction, params=params
    )


def _draw_server_events(
    rng: random.Random, mount: Dict[str, Any]
) -> Tuple[ServerEventSpec, ...]:
    roll = rng.random()
    if roll < 0.30:
        crash = rng.randrange(ms(5), ms(100))
        restart = crash + rng.randrange(ms(50), ms(300))
        return (
            ServerEventSpec(op="crash", at_ns=crash),
            ServerEventSpec(op="restart", at_ns=restart),
        )
    if roll < 0.50:
        start = rng.randrange(0, ms(50))
        return (
            ServerEventSpec(
                op="pause",
                start_ns=start,
                end_ns=start + rng.randrange(ms(10), ms(120)),
            ),
        )
    if roll < 0.62:
        mount["jukebox_delay_ns"] = ms(rng.choice((10, 20, 40)))
        start = rng.randrange(0, ms(20))
        return (
            ServerEventSpec(
                op="jukebox",
                start_ns=start,
                end_ns=start + rng.randrange(ms(20), ms(80)),
            ),
        )
    return ()


def draw_spec(rng: random.Random, name: str) -> ScenarioSpec:
    """Sample one random scenario from ``rng`` (pure; no I/O)."""
    clients = rng.choice((2, 3)) if rng.random() < 0.25 else 1
    target = rng.choice(_TARGETS)
    mount: Dict[str, Any] = {
        "timeo_ns": ms(rng.choice(_TIMEO_MS)),
        "retrans": rng.choice(_RETRANS),
    }
    if rng.random() < 0.25:
        mount["adaptive_timeo"] = True
    file_bytes = rng.choice(_FILE_KIB) * 1024

    if clients == 1:
        hosts: Tuple[str, ...] = ("client", "server")
    else:
        hosts = tuple(f"client{i}" for i in range(clients)) + ("server",)
    link_faults = tuple(
        _draw_link_fault(rng, hosts)
        for _ in range(rng.choice((0, 1, 1, 2)))
    )
    server_events = _draw_server_events(rng, mount)
    client_events: Tuple[ClientEventSpec, ...] = ()
    if rng.random() < 0.30:
        start = rng.randrange(0, ms(20))
        client_events = (
            ClientEventSpec(
                client=rng.randrange(clients),
                start_ns=start,
                end_ns=start + rng.randrange(ms(5), ms(50)),
                slots=1,
            ),
        )
    checks = (
        (CheckSpec("fleet-files-durable"),)
        if clients > 1
        else (CheckSpec("stability"),)
    )
    return ScenarioSpec(
        name=name,
        description="fuzzer draw",
        bed=BedSpec(
            target=target,
            client="stock",
            clients=clients,
            mount=tuple(sorted(mount.items())),
        ),
        workload=WorkloadSpec(file_bytes=file_bytes),
        link_faults=link_faults,
        server_events=server_events,
        client_events=client_events,
        checks=checks,
    )


@dataclass
class FuzzFinding:
    """One violating draw, with its shrunk minimal reproducer."""

    draw: int
    spec: ScenarioSpec
    outcome: ScenarioOutcome
    signature: Tuple[str, ...]
    shrunk: ScenarioSpec
    shrunk_outcome: ScenarioOutcome
    shrink: ShrinkResult
    saved_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Everything one ``fuzz(seed, draws)`` campaign produced."""

    seed: int
    draws: int
    #: Per-draw verdict rows, in draw order (JSON-safe).
    rows: List[Dict[str, Any]] = field(default_factory=list)
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings

    def payload(self) -> Dict[str, Any]:
        """The campaign's JSON-safe outcome — hashed for the
        bit-reproducibility contract (same seed → same payload)."""
        return {
            "seed": self.seed,
            "draws": self.draws,
            "scenarios": self.rows,
            "findings": [
                {
                    "draw": f.draw,
                    "name": f.spec.name,
                    "signature": list(f.signature),
                    "shrink_steps": f.shrink.steps,
                    "shrink_trace": list(f.shrink.trace),
                    "shrunk_faults": f.shrunk.fault_count(),
                    "shrunk_fingerprint": f.shrunk_outcome.fingerprint,
                }
                for f in self.findings
            ],
        }

    def fingerprint(self) -> str:
        return _fingerprint(self.payload())


def fuzz(
    seed: int,
    draws: int,
    sanitize: bool = True,
    corpus_root: Optional[str] = None,
    max_shrink_attempts: int = 80,
) -> FuzzReport:
    """Run one fuzz campaign: ``draws`` seeded draws, shrink failures.

    With ``corpus_root``, every shrunk finding is auto-saved under
    ``<corpus_root>/regressions/`` with pinned expectations and full
    provenance.
    """
    report = FuzzReport(seed=seed, draws=draws)
    for i in range(draws):
        rng = RngStreams(seed).stream(f"fuzz/draw{i}")
        spec = draw_spec(rng, f"fuzz-{seed}-{i:03d}")
        outcome = run_spec(spec, sanitize=sanitize)
        signature = failure_signature(outcome.invariants)
        report.rows.append(
            {
                "draw": i,
                "name": spec.name,
                "clients": spec.bed.clients,
                "faults": spec.fault_count(),
                "passed": outcome.passed,
                "failed": list(signature),
                "fingerprint": outcome.fingerprint,
            }
        )
        if not signature:
            continue
        # The oracle re-runs candidates under the same instrumentation
        # that produced the failure; the determinism replay is only
        # paid when the signature itself involves it.
        verify = "deterministic" in signature

        def oracle(candidate: ScenarioSpec) -> Tuple[str, ...]:
            result = run_spec(
                candidate, sanitize=sanitize, verify_determinism=verify
            )
            return failure_signature(result.invariants)

        shrunk = shrink(
            spec, oracle, signature=signature, max_attempts=max_shrink_attempts
        )
        shrunk_outcome = run_spec(shrunk.spec, sanitize=sanitize)
        saved = None
        if corpus_root is not None:
            saved = save_regression(
                shrunk.spec,
                shrunk_outcome,
                corpus_root,
                provenance=(
                    ("draw", i),
                    ("fuzz_seed", seed),
                    ("shrink_steps", shrunk.steps),
                    ("shrink_trace", tuple(shrunk.trace)),
                ),
            )
        report.findings.append(
            FuzzFinding(
                draw=i,
                spec=spec,
                outcome=outcome,
                signature=signature,
                shrunk=shrunk.spec,
                shrunk_outcome=shrunk_outcome,
                shrink=shrunk,
                saved_path=saved,
            )
        )
    return report
