"""Invariant checks a scenario file can select by name.

Each check is a small function over the finished run's
:class:`CheckContext` — the payload, the live bed/topology, and any
fault objects the runner installed — returning :class:`Invariant` rows.
A ``scenario.json`` lists the checks it wants in order; unknown names
fail at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigError

__all__ = ["Invariant", "CheckContext", "CHECKS", "run_checks", "check_names"]


@dataclass
class Invariant:
    """One audited verdict row: a name, whether it held, and a
    diagnostic shown when it did not."""

    name: str
    ok: bool
    detail: str = ""


class CheckContext:
    """Everything a check may inspect after one scenario run."""

    def __init__(
        self,
        spec,
        payload: Dict[str, Any],
        bed=None,
        topology=None,
        point=None,
        starvations: Optional[List[Any]] = None,
        schedules: Optional[List[Any]] = None,
        sweep_elapsed: Optional[List[int]] = None,
    ):
        self.spec = spec
        self.payload = payload
        self.bed = bed
        self.topology = topology
        #: Reduced FleetPointResult (fleet scenarios only).
        self.point = point
        self.starvations = starvations or []
        self.schedules = schedules or []
        self.sweep_elapsed = sweep_elapsed

    @property
    def file_bytes(self) -> int:
        if self.spec.workload is None:
            raise ConfigError(
                "this check needs a workload block with file_bytes"
            )
        return self.spec.workload.file_bytes


CheckFn = Callable[[CheckContext, Dict[str, Any]], List[Invariant]]

CHECKS: Dict[str, CheckFn] = {}


def _check(name: str):
    def register(fn: CheckFn) -> CheckFn:
        CHECKS[name] = fn
        return fn

    return register


def check_names() -> List[str]:
    return sorted(CHECKS)


def run_checks(ctx: CheckContext) -> List[Invariant]:
    """Audit every check the spec selected, in spec order."""
    rows: List[Invariant] = []
    for check in ctx.spec.checks:
        fn = CHECKS.get(check.kind)
        if fn is None:
            raise ConfigError(
                f"unknown check {check.kind!r} (expected one of {check_names()})"
            )
        rows.extend(fn(ctx, check.param_dict()))
    return rows


# -- single-bed checks ---------------------------------------------------------


@_check("loss-injected")
def _loss_injected(ctx, params):
    dropped = ctx.payload.get("frames_dropped", 0)
    return [Invariant("loss-injected", dropped > 0, f"{dropped} frames dropped")]


@_check("client-retransmitted")
def _client_retransmitted(ctx, params):
    n = ctx.payload.get("retransmits", 0)
    return [Invariant("client-retransmitted", n > 0, f"{n} retransmits")]


@_check("stability")
def _stability(ctx, params):
    """The end-state every completed run must reach: all data durable."""
    payload, file_bytes = ctx.payload, ctx.file_bytes
    return [
        Invariant(
            "file-complete",
            payload["server_file_size"] == file_bytes,
            f"server size {payload['server_file_size']} != {file_bytes}",
        ),
        Invariant(
            "all-data-stable",
            payload["server_stable_bytes"] >= file_bytes
            and payload["server_dirty_bytes"] == 0,
            f"stable={payload['server_stable_bytes']} "
            f"dirty={payload['server_dirty_bytes']}",
        ),
        Invariant(
            "client-acked-stable",
            payload["bytes_acked_stable"] >= file_bytes,
            f"acked {payload['bytes_acked_stable']} < {file_bytes}",
        ),
    ]


@_check("verifier-bumped")
def _verifier_bumped(ctx, params):
    expected = params.get("expected", 2)
    verf = ctx.payload.get("boot_verf")
    return [Invariant("verifier-bumped", verf == expected, f"verf={verf}")]


@_check("verf-mismatch-detected")
def _verf_mismatch(ctx, params):
    n = ctx.payload.get("commit_verf_mismatches", 0)
    return [Invariant("verf-mismatch-detected", n > 0, f"{n} mismatches")]


@_check("no-stable-data-lost")
def _no_stable_data_lost(ctx, params):
    server = ctx.payload.get("server_stable_at_crash", 0)
    client = ctx.payload.get("acked_stable_at_crash", 0)
    return [
        Invariant(
            "no-stable-data-lost",
            server >= client,
            f"server had {server} stable, client believed {client}",
        )
    ]


@_check("eio-surfaced")
def _eio_surfaced(ctx, params):
    return [
        Invariant(
            "eio-surfaced",
            bool(ctx.payload.get("eio_raised")),
            "benchmark did not fail with EIO",
        )
    ]


@_check("major-timeout-hit")
def _major_timeout_hit(ctx, params):
    n = ctx.payload.get("major_timeouts", 0)
    return [Invariant("major-timeout-hit", n >= 1, f"{n} major timeouts")]


@_check("requests-failed-soft")
def _requests_failed_soft(ctx, params):
    soft = ctx.payload.get("soft_failures", 0)
    writes = ctx.payload.get("write_failures", 0)
    return [
        Invariant(
            "requests-failed-soft",
            soft >= 1 and writes >= 1,
            f"soft={soft} writes={writes}",
        )
    ]


@_check("syscall-saw-eio")
def _syscall_saw_eio(ctx, params):
    n = ctx.payload.get("syscall_eio_errors", 0)
    return [Invariant("syscall-saw-eio", n >= 1, f"{n} EIO returns")]


@_check("jukebox-injected")
def _jukebox_injected(ctx, params):
    n = ctx.payload.get("jukebox_injected", 0)
    return [Invariant("jukebox-injected", n >= 1, f"{n} injections")]


@_check("client-waited-and-retried")
def _client_waited(ctx, params):
    n = ctx.payload.get("jukebox_retries", 0)
    return [Invariant("client-waited-and-retried", n >= 1, f"{n} jukebox retries")]


@_check("no-duplicate-ingest")
def _no_duplicate_ingest(ctx, params):
    received = ctx.payload.get("server_bytes_received", 0)
    return [
        Invariant(
            "no-duplicate-ingest",
            received == ctx.file_bytes,
            f"server ingested {received} for a {ctx.file_bytes}-byte file",
        )
    ]


@_check("starvation-applied")
def _starvation_applied(ctx, params):
    ok = bool(ctx.starvations) and all(
        s.applied_at is not None and s.restored_at is not None
        for s in ctx.starvations
    )
    return [Invariant("starvation-applied", ok, "window never fired")]


@_check("backlog-built-up")
def _backlog_built_up(ctx, params):
    minimum = params.get("min", 4)
    peak = ctx.payload.get("backlog_peak", 0)
    return [Invariant("backlog-built-up", peak >= minimum, f"backlog peak {peak}")]


@_check("throughput-monotone")
def _throughput_monotone(ctx, params):
    elapsed = ctx.sweep_elapsed or []
    monotone = all(a <= b for a, b in zip(elapsed, elapsed[1:]))
    return [
        Invariant(
            "throughput-monotone", monotone, f"elapsed {elapsed} not non-decreasing"
        )
    ]


@_check("loss-cost-visible")
def _loss_cost_visible(ctx, params):
    elapsed = ctx.sweep_elapsed or []
    ok = len(elapsed) >= 2 and elapsed[-1] > elapsed[0]
    return [
        Invariant(
            "loss-cost-visible",
            ok,
            f"{elapsed and elapsed[-1]} loss no slower than clean run ({elapsed})",
        )
    ]


# -- fleet checks --------------------------------------------------------------


def _fleet_servers(ctx):
    if ctx.topology is None:
        raise ConfigError("fleet checks need a live fleet topology")
    return [s for s in ctx.topology.servers if s is not None]


@_check("fleet-files-durable")
def _fleet_files_durable(ctx, params):
    """Every client's file complete and fully stable, per server."""
    clients = ctx.spec.bed.clients
    rows = []
    for server in _fleet_servers(ctx):
        laggards = sorted(
            f.name
            for f in server.files.values()
            if f.size != ctx.file_bytes or f.stable_bytes < f.size
        )
        rows.append(
            Invariant(
                f"files-complete-durable[{server.name}]",
                len(server.files) == clients and not laggards,
                f"{len(server.files)} files, incomplete: {laggards}",
            )
        )
    return rows


@_check("fleet-clients-redirtied")
def _fleet_clients_redirtied(ctx, params):
    """After a crash/restart verifier mismatch, every client must have
    detected the new verifier at COMMIT and re-dirtied unstable pages."""
    if ctx.topology is None:
        raise ConfigError("fleet-clients-redirtied needs a live fleet topology")
    cold = [
        stack.name
        for stack in ctx.topology.clients
        if stack.nfs is None or stack.nfs.stats.commit_verf_mismatches < 1
    ]
    return [
        Invariant(
            "fleet-clients-redirtied",
            not cold,
            f"no verifier mismatch seen on: {', '.join(cold)}",
        )
    ]


@_check("fleet-fair-share")
def _fleet_fair_share(ctx, params):
    minimum = params.get("min", 0.95)
    if ctx.point is None:
        raise ConfigError("fleet-fair-share needs a reduced fleet point")
    fairness = ctx.point.fairness
    return [
        Invariant(
            "fair-share",
            fairness >= minimum,
            f"Jain {fairness:.4f} < {minimum} for identical clients",
        )
    ]


@_check("open-loop-complete")
def _open_loop_complete(ctx, params):
    """Every planned open-loop session completed, and nothing a server
    ingested was left unstable — the overload-safe completeness bar for
    arrivals scenarios, where per-session sizes vary by design."""
    if ctx.point is None:
        raise ConfigError("open-loop-complete needs a reduced fleet point")
    planned = completed = 0
    for row in ctx.point.clients:
        planned += row.get("extra", {}).get("sessions", 0)
        completed += row.get("ops", 0)
    rows = [
        Invariant(
            "open-loop-complete",
            planned > 0 and completed == planned,
            f"{completed}/{planned} sessions completed",
        )
    ]
    for server in _fleet_servers(ctx):
        laggards = sorted(
            f.name
            for f in server.files.values()
            if f.stable_bytes < f.size
        )
        rows.append(
            Invariant(
                f"open-loop-durable[{server.name}]",
                not laggards,
                f"unstable files: {laggards}",
            )
        )
    return rows


@_check("within-ingest-envelope")
def _within_ingest_envelope(ctx, params):
    slack = params.get("slack", 1.1)
    if ctx.point is None:
        raise ConfigError("within-ingest-envelope needs a reduced fleet point")
    rows = []
    for server in _fleet_servers(ctx):
        bound = slack * server.ingest_bytes_per_sec
        rows.append(
            Invariant(
                f"within-ingest-envelope[{server.name}]",
                ctx.point.aggregate_bytes_per_sec <= bound,
                f"aggregate {ctx.point.aggregate_mbps:.1f} MBps exceeds "
                "the server's ingest rate",
            )
        )
    return rows
