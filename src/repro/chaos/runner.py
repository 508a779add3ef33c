"""Materialise and run one :class:`~repro.chaos.spec.ScenarioSpec`.

Given a spec the runner assembles the beds, arms the fault objects,
runs the benchmark, and reduces the run to a JSON-safe payload whose
SHA-256 is the scenario's fingerprint — the value every corpus file
pins in its ``expect`` block.

Four execution shapes, chosen by the spec:

* **single** (``bed.clients == 1``): one :class:`TestBed`, link faults
  on the switch, server schedules, slot starvation, probes;
* **fleet** (``bed.clients > 1``): a :class:`Topology` of identical
  clients, armed the same way — link faults on the switch, slot
  starvation on the targeted client, server schedules;
* **sweep** (``sweep.loss_rates``): the bed re-runs once per loss rate
  (the monotone-loss shape);
* **experiment**: a registered paper experiment replayed under pinned
  knobs.

Faults are rebuilt from scratch on every run with RNG streams derived
from the seed by *name*, so a spec can be run, replayed, and shrunk
without state leaking between runs — the determinism contract extends
to every fuzz draw.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bench.runner import TestBed
from ..bench.workloads import trace_sha
from ..config import MountConfig, NetConfig
from ..errors import ConfigError, EioError, ReproError
from ..faults.client import SlotStarvation
from ..faults.link import (
    DelayJitter,
    DropFrames,
    Duplicate,
    FaultChain,
    GilbertElliott,
)
from ..faults.server import ServerFaultSchedule
from ..sim import RngStreams
from .checks import CheckContext, Invariant, run_checks
from .spec import ScenarioSpec

__all__ = ["ScenarioOutcome", "run_spec", "failure_signature"]


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced."""

    name: str
    seed: int
    payload: Dict[str, object]
    invariants: List[Invariant] = field(default_factory=list)
    fingerprint: str = ""
    #: Observers of the beds the first run built (``observe=True`` only).
    observabilities: Optional[List] = None

    @property
    def passed(self) -> bool:
        return all(inv.ok for inv in self.invariants)


def _fingerprint(payload: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _server_file(bed: TestBed):
    return next(iter(bed.server.files.values()), None)


def _common_payload(bed: TestBed, result) -> Dict[str, object]:
    xs = bed.nfs.xprt.stats
    cs = bed.nfs.stats
    file = _server_file(bed)
    return {
        "write_elapsed_ns": result.write_elapsed_ns,
        "flush_elapsed_ns": result.flush_elapsed_ns,
        "close_elapsed_ns": result.close_elapsed_ns,
        "trace_checksum": trace_sha(result.trace.latencies_ns),
        "retransmits": xs.retransmits,
        "major_timeouts": xs.major_timeouts,
        "duplicate_replies": xs.duplicate_replies,
        "jukebox_retries": xs.jukebox_retries,
        "backlog_peak": xs.backlog_peak,
        "writes_sent": cs.writes_sent,
        "commits_sent": cs.commits_sent,
        "bytes_acked_stable": cs.bytes_acked_stable,
        "commit_verf_mismatches": cs.commit_verf_mismatches,
        "server_drc_hits": bed.server.rpc.drc_hits,
        "server_bytes_received": bed.server.bytes_received,
        "server_file_size": file.size if file else 0,
        "server_stable_bytes": file.stable_bytes if file else 0,
        "server_dirty_bytes": file.dirty_bytes if file else 0,
    }


def _sanitizer_invariants(session) -> List[Invariant]:
    """Fold a sanitize session's findings into scenario invariants.

    Three rows — locks (ordering/deadlock/FIFO/depth), races (unlocked
    request-list or index mutations), invariants (accounting, durability,
    wait-queue FIFO) — each ok iff its group found nothing.
    """
    groups = session.grouped()
    rows = []
    for key in ("locks", "races", "invariants"):
        findings = groups[key]
        rows.append(
            Invariant(
                f"sanitize-{key}",
                not findings,
                "; ".join(str(f) for f in findings[:3]),
            )
        )
    return rows


def _mount(spec: ScenarioSpec) -> Optional[MountConfig]:
    return MountConfig(**spec.bed.mount_dict()) if spec.bed.mount else None


def _net(spec: ScenarioSpec) -> Optional[NetConfig]:
    p = spec.bed.loss_probability
    return NetConfig(loss_probability=p) if p else None


def _build_link_fault(lf, rngs: RngStreams, scenario_name: str):
    """One live fault object from its spec, with a named RNG stream."""
    params = dict(lf.params)
    if lf.kind == "drop-frames":
        return DropFrames(params.get("indices", ()))
    rng = rngs.stream(lf.rng or f"{scenario_name}/{lf.attach}-{lf.direction}")
    if lf.kind == "gilbert-elliott":
        return GilbertElliott(rng, **params)
    if lf.kind == "jitter":
        return DelayJitter(rng, params.get("max_jitter_ns", 0))
    return Duplicate(
        rng, params.get("probability", 1.0), params.get("lag_ns", 0)
    )


class _BuiltFaults:
    """The live fault objects one run armed, grouped for bookkeeping."""

    def __init__(self) -> None:
        self.ge: List[GilbertElliott] = []
        self.dup: List[Duplicate] = []
        self.drop: List[DropFrames] = []
        self.by_port: Dict[Tuple[str, str], List[Any]] = {}

    def add(self, host: str, direction: str, fault: Any) -> None:
        if isinstance(fault, GilbertElliott):
            self.ge.append(fault)
        elif isinstance(fault, Duplicate):
            self.dup.append(fault)
        elif isinstance(fault, DropFrames):
            self.drop.append(fault)
        self.by_port.setdefault((host, direction), []).append(fault)

    def port_faults(self) -> Dict[Tuple[str, str], Any]:
        """One fault per (host, direction): chained when several stack."""
        return {
            key: (faults[0] if len(faults) == 1 else FaultChain(faults))
            for key, faults in self.by_port.items()
        }


def _group_server_ops(events) -> List[Tuple[int, Tuple[Tuple[str, tuple], ...]]]:
    """Per-server (method, args) lists, preserving event order."""
    ops: Dict[int, List[Tuple[str, tuple]]] = {}
    order: List[int] = []
    for event in events:
        if event.server not in ops:
            ops[event.server] = []
            order.append(event.server)
        ops[event.server].append(event.schedule_ops())
    return [(index, tuple(ops[index])) for index in order]


def _arm_server_events(spec: ScenarioSpec, servers) -> List[ServerFaultSchedule]:
    out = []
    for index, ops in _group_server_ops(spec.server_events):
        if index >= len(servers) or servers[index] is None:
            raise ConfigError(
                f"server event targets server {index}; scenario has "
                f"{len(servers)} server(s)"
            )
        schedule = ServerFaultSchedule(servers[index])
        for method, args in ops:
            getattr(schedule, method)(*args)
        out.append(schedule)
    return out


def _arm_client_events(spec: ScenarioSpec, stacks) -> List[SlotStarvation]:
    """Slot-starvation windows on the client stacks they target."""
    out = []
    for event in spec.client_events:
        if not 0 <= event.client < len(stacks):
            raise ConfigError(
                f"client event targets client {event.client}; scenario has "
                f"{len(stacks)} client(s)"
            )
        stack = stacks[event.client]
        out.append(
            SlotStarvation(
                stack.sim,
                stack.nfs.xprt,
                event.start_ns,
                event.end_ns,
                slots=event.slots,
            )
        )
    return out


def _arm_probes(spec: ScenarioSpec, bed: TestBed) -> List[Dict[str, int]]:
    snapshots: List[Dict[str, int]] = []
    for probe in spec.probes:
        snap: Dict[str, int] = {}

        def take(snap: Dict[str, int] = snap) -> None:
            file = _server_file(bed)
            snap["client_acked_stable"] = bed.nfs.stats.bytes_acked_stable
            snap["server_stable"] = file.stable_bytes if file else 0

        bed.sim.schedule_at(probe.at_ns, take)
        snapshots.append(snap)
    return snapshots


def _fault_extras(
    payload: Dict[str, Any], spec: ScenarioSpec, built: _BuiltFaults
) -> None:
    """Per-fault-kind counters, added only when that kind is armed, so a
    fault-free spec's payload (and so its fingerprint) has no fault
    keys."""
    if built.ge:
        payload["frames_dropped"] = sum(f.frames_dropped for f in built.ge)
        payload["loss_bursts"] = sum(f.bursts for f in built.ge)
    if built.dup:
        payload["frames_duplicated"] = sum(f.duplicated for f in built.dup)
    if built.drop:
        payload["frames_scripted_dropped"] = sum(f.dropped for f in built.drop)


def _starvation_extras(payload: Dict[str, Any], starvations) -> None:
    for i, starve in enumerate(starvations):
        suffix = "" if i == 0 else str(i)
        payload[f"starved_at_ns{suffix}"] = starve.applied_at or 0
        payload[f"restored_at_ns{suffix}"] = starve.restored_at or 0


def _probe_extras(payload: Dict[str, Any], snapshots) -> None:
    for i, snap in enumerate(snapshots):
        suffix = "_at_crash" if i == 0 else f"_at_probe{i}"
        payload[f"acked_stable{suffix}"] = snap.get("client_acked_stable", 0)
        payload[f"server_stable{suffix}"] = snap.get("server_stable", 0)


# -- single-bed execution ------------------------------------------------------


def _single_attach(attach: str, bed: TestBed) -> str:
    if attach in ("client", "client0"):
        return "client"
    if attach == "server":
        return bed.server.name
    return attach


def _execute_single(spec: ScenarioSpec, seed: int):
    bed = TestBed(
        target=spec.bed.target,
        client=spec.bed.client,
        net=_net(spec),
        mount=_mount(spec),
    )
    rngs = RngStreams(seed)
    built = _BuiltFaults()
    for lf in spec.link_faults:
        built.add(
            _single_attach(lf.attach, bed),
            lf.direction,
            _build_link_fault(lf, rngs, spec.name),
        )
    for (host, direction), fault in built.port_faults().items():
        bed.switch.install_fault(host, **{direction: fault})
    schedules = _arm_server_events(spec, [bed.server])
    starvations = _arm_client_events(spec, [bed])
    snapshots = _arm_probes(spec, bed)
    wl = spec.workload

    if wl.expect == "eio":
        eio_raised = False
        try:
            bed.run_sequential_write(
                wl.file_bytes,
                chunk_bytes=wl.chunk_bytes,
                do_fsync=wl.do_fsync,
                time_limit_ns=wl.time_limit_ns,
            )
        except EioError:
            eio_raised = True
        xs = bed.nfs.xprt.stats
        payload: Dict[str, Any] = {
            "eio_raised": eio_raised,
            "failed_at_ns": bed.sim.now,
            "major_timeouts": xs.major_timeouts,
            "soft_failures": xs.soft_failures,
            "retransmits": xs.retransmits,
            "write_failures": bed.nfs.stats.write_failures,
            "syscall_eio_errors": bed.syscalls.eio_errors,
        }
    else:
        result = bed.run_sequential_write(
            wl.file_bytes,
            chunk_bytes=wl.chunk_bytes,
            do_fsync=wl.do_fsync,
            time_limit_ns=wl.time_limit_ns,
        )
        payload = _common_payload(bed, result)
        _fault_extras(payload, spec, built)
        _probe_extras(payload, snapshots)
        if any(e.op in ("crash", "restart") for e in spec.server_events):
            payload["boot_verf"] = bed.server.boot_verf
        if any(e.op == "jukebox" for e in spec.server_events):
            payload["jukebox_injected"] = bed.server.jukebox_injected
            payload["jukebox_replies"] = bed.server.rpc.jukebox_replies
        _starvation_extras(payload, starvations)

    return payload, CheckContext(
        spec, payload, bed=bed, starvations=starvations, schedules=schedules
    )


# -- fleet execution -----------------------------------------------------------


def _fleet_job(spec: ScenarioSpec, seed: int):
    from ..topology import ClientSpec, ServerSpec
    from ..topology.fleet import FleetJobSpec
    from ..units import seconds

    wl = spec.workload
    client = ClientSpec(
        client=spec.bed.client, net=_net(spec), mount=_mount(spec)
    )
    workload = None
    if wl is not None and wl.name is not None and spec.arrivals is None:
        workload = (wl.name, wl.params)
    return FleetJobSpec(
        clients=client.replicate(spec.bed.clients),
        servers=(ServerSpec(kind=spec.bed.target),),
        file_bytes=(wl.file_bytes if wl is not None and wl.file_bytes else 1 << 20),
        chunk_bytes=wl.chunk_bytes if wl is not None else 8192,
        do_fsync=wl.do_fsync if wl is not None else True,
        stagger_ns=spec.bed.stagger_ns,
        time_limit_ns=(
            wl.time_limit_ns if wl is not None else seconds(600)
        ),
        workload=workload,
        arrivals=spec.arrivals,
        seed=seed,
    )


def _fleet_attach(attach: str, names: List[str], server_names: List[str]) -> str:
    if attach == "server":
        return server_names[0]
    if attach == "client" and len(names) > 1:
        raise ConfigError(
            'link fault attach "client" is ambiguous in a fleet; use '
            '"client<i>"'
        )
    if attach == "client":
        return names[0]
    return attach


def _execute_fleet(spec: ScenarioSpec, seed: int):
    from ..topology.build import Topology
    from ..topology.fleet import FleetWorkload, reduce_fleet

    if spec.probes:
        raise ConfigError("stability-snapshot probes are single-client only")
    if spec.workload is not None and spec.workload.expect == "eio":
        raise ConfigError("eio expectation is single-client only")
    job = _fleet_job(spec, seed)
    topo = Topology(clients=job.clients, servers=job.servers, switch=job.switch)
    names = [stack.name for stack in topo.clients]
    server_names = [s.name for s in topo.server_specs]
    rngs = RngStreams(seed)
    built = _BuiltFaults()
    for lf in spec.link_faults:
        built.add(
            _fleet_attach(lf.attach, names, server_names),
            lf.direction,
            _build_link_fault(lf, rngs, spec.name),
        )
    # Arming order (links, client events, server schedules) fixes the
    # event sequence numbers the pinned fleet fingerprints depend on.
    for (host, direction), fault in built.port_faults().items():
        topo.switch.install_fault(host, **{direction: fault})
    starvations = _arm_client_events(spec, topo.clients)
    schedules = _arm_server_events(spec, topo.servers)
    workload = FleetWorkload(
        topo,
        job.file_bytes,
        chunk_bytes=job.chunk_bytes,
        do_fsync=job.do_fsync,
        stagger_ns=job.stagger_ns,
        workload=job.workload,
        arrivals=job.arrivals,
        seed=job.seed,
    )
    fleet = workload.run(time_limit_ns=job.time_limit_ns)
    point = reduce_fleet(fleet)
    payload: Dict[str, Any] = {
        "clients": point.clients,
        "servers": point.servers,
    }
    _fault_extras(payload, spec, built)
    if any(e.op in ("crash", "restart") for e in spec.server_events):
        payload["boot_verf"] = [
            s.boot_verf for s in topo.servers if s is not None
        ]
    ctx = CheckContext(
        spec,
        payload,
        topology=topo,
        point=point,
        starvations=starvations,
        schedules=schedules,
    )
    return payload, ctx


# -- sweep execution -----------------------------------------------------------


def _execute_sweep(spec: ScenarioSpec, seed: int):
    if spec.fault_count() or spec.probes:
        raise ConfigError("loss-rate sweeps take no fault schedule")
    if spec.bed.clients != 1:
        raise ConfigError("loss-rate sweeps are single-client only")
    if spec.workload is not None and spec.workload.name is not None:
        raise ConfigError("loss-rate sweeps drive the sequential writer only")
    wl = spec.workload
    rates = spec.sweep_loss_rates
    payload: Dict[str, Any] = {"loss_rates": list(rates)}
    elapsed: List[int] = []
    for rate in rates:
        bed = TestBed(
            target=spec.bed.target,
            client=spec.bed.client,
            net=NetConfig(loss_probability=rate),
            mount=_mount(spec),
        )
        result = bed.run_sequential_write(
            wl.file_bytes,
            chunk_bytes=wl.chunk_bytes,
            do_fsync=wl.do_fsync,
            time_limit_ns=wl.time_limit_ns,
        )
        elapsed.append(result.flush_elapsed_ns)
        payload[f"flush_elapsed_ns@{rate}"] = result.flush_elapsed_ns
        payload[f"retransmits@{rate}"] = bed.nfs.xprt.stats.retransmits
        payload[f"trace_checksum@{rate}"] = trace_sha(result.trace.latencies_ns)
    return payload, CheckContext(spec, payload, sweep_elapsed=elapsed)


# -- experiment execution ------------------------------------------------------


def _round_floats(value):
    """Stabilise experiment curves for fingerprinting: floats carry
    platform-independent deterministic arithmetic already, but rounding
    keeps the payload JSON readable and cheap to diff."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in sorted(value.items())}
    return value


def _execute_experiment(spec: ScenarioSpec, seed: int):
    """Replay one registered paper experiment under pinned knobs.

    The payload is the experiment's raw data (curves, sizes) plus its
    verdict; every shape criterion becomes one invariant row, so a
    corpus file gates both the figures' numbers (fingerprint) and the
    paper's qualitative claims (failed-invariant names)."""
    from ..experiments import get_experiment

    exp = spec.experiment
    experiment = get_experiment(exp.id)
    result = experiment.run(scale=exp.scale, quick=exp.quick)
    payload: Dict[str, Any] = {
        "experiment": exp.id,
        "scale": exp.scale,
        "quick": exp.quick,
        "criteria_passed": result.passed,
    }
    for name, value in sorted(result.data.items()):
        if isinstance(value, (int, float, str, bool, list)):
            payload[name] = _round_floats(value)
    ctx = CheckContext(spec, payload)
    ctx.experiment_result = result
    return payload, ctx


# -- entry point ---------------------------------------------------------------


def _execute(spec: ScenarioSpec, seed: int):
    """One full run → (payload, ctx, error).

    Build-phase problems (bad spec references) raise; run-phase failures
    (wedged simulation, unexpected EIO) are captured as ``error`` so the
    fuzzer can treat them as findings and shrink them.
    """
    try:
        if spec.experiment is not None:
            payload, ctx = _execute_experiment(spec, seed)
        elif spec.sweep_loss_rates:
            payload, ctx = _execute_sweep(spec, seed)
        elif (
            spec.bed.clients > 1
            or spec.arrivals is not None
            or (spec.workload is not None and spec.workload.name is not None)
        ):
            # Fleets, open-loop arrivals, and registry-named workloads
            # all run through the topology path (a one-client fleet is
            # just a fleet of one).
            payload, ctx = _execute_fleet(spec, seed)
        else:
            payload, ctx = _execute_single(spec, seed)
        return payload, ctx, None
    except ConfigError:
        raise
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {"error": error}, None, error


def failure_signature(invariants: List[Invariant]) -> Tuple[str, ...]:
    """The sorted names of every failed invariant — the shrinker's
    'same bug' predicate."""
    return tuple(sorted(inv.name for inv in invariants if not inv.ok))


def run_spec(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    verify_determinism: bool = True,
    sanitize: bool = False,
    observe: bool = False,
) -> ScenarioOutcome:
    """Run one declarative scenario and audit its selected checks.

    With ``verify_determinism`` the spec executes twice and both payload
    fingerprints must match — the repo's bit-for-bit reproducibility
    contract extended to faulted runs.  With ``sanitize`` the first run
    executes under the runtime sanitizers, adding the three
    ``sanitize-*`` rows.  With ``observe`` (implied by an ``slo`` block)
    it runs under an :func:`repro.obs.core.observed` session whose
    per-bed observers land in ``outcome.observabilities``.  Only the
    first run is instrumented; the replay is not, so a matching
    fingerprint also proves neither observer perturbed the simulation.
    """
    seed = spec.seed if seed is None else seed
    san_session = None
    obs_sess = None
    with ExitStack() as stack:
        if sanitize:
            from ..analysis.sanitize import sanitized

            san_session = stack.enter_context(sanitized())
        if observe or spec.slos:
            from ..obs.core import observed

            obs_sess = stack.enter_context(observed())
        payload, ctx, error = _execute(spec, seed)
    invariants: List[Invariant] = []
    if error is not None:
        invariants.append(Invariant("completed", False, error))
    else:
        invariants.extend(run_checks(ctx))
        exp_result = getattr(ctx, "experiment_result", None)
        if exp_result is not None:
            # Each paper shape criterion gates as its own invariant row.
            invariants.extend(
                Invariant(check.name, check.passed, check.measured)
                for check in exp_result.comparison.checks
            )
        if spec.slos and obs_sess.observabilities:
            from ..obs.slo import evaluate_slos

            report = evaluate_slos(
                obs_sess.observabilities[0].timelines, spec.slos
            )
            for row in report["slos"]:
                attained = row["attained"]
                detail = (
                    f"{row['verdict']}: attained "
                    + (f"{attained:.6f}" if attained is not None else "n/a")
                    + f" target {row['spec']['target']}"
                )
                invariants.append(
                    Invariant(
                        f"slo-{row['spec']['name']}",
                        row["verdict"] == "ok",
                        detail,
                    )
                )
    if san_session is not None:
        invariants.extend(_sanitizer_invariants(san_session))
    fingerprint = _fingerprint(payload)
    if verify_determinism:
        replay, _, _ = _execute(spec, seed)
        replay_fp = _fingerprint(replay)
        invariants.append(
            Invariant(
                "deterministic",
                replay_fp == fingerprint,
                f"{fingerprint[:12]} vs replay {replay_fp[:12]}",
            )
        )
    return ScenarioOutcome(
        name=spec.name,
        seed=seed,
        payload=payload,
        invariants=invariants,
        fingerprint=fingerprint,
        observabilities=obs_sess.observabilities if observe else None,
    )
