"""Command-line entry point: ``repro-nfs`` / ``python -m repro``.

Examples::

    repro-nfs list
    repro-nfs run fig2
    repro-nfs run all --quick
    repro-nfs run fig1 fig7 --scale 8
    repro-nfs run fig1 --full        # paper-size sweep (slow)
    repro-nfs run scenarios/lossy-burst.json   # one chaos scenario file
    repro-nfs run scenarios/jukebox.json --sanitize
    repro-nfs corpus                 # replay the whole scenario corpus
    repro-nfs corpus --sanitize
    repro-nfs fuzz --seed 1 --draws 25 --save-dir scenarios
    repro-nfs fleet --clients 8 --target netapp
    repro-nfs fleet --clients 4 --target linux --sanitize
    repro-nfs trace fig1                 # Chrome trace + metrics bundle
    repro-nfs trace scenarios/lossy-burst.json --out obs-lossy
    repro-nfs metrics fig1               # prometheus text to stdout
    repro-nfs report obs-fig1            # ASCII dashboard from a bundle
    repro-nfs report fleet --html fleet.html
    repro-nfs flow --strict --baseline flow-baseline.json
    repro-nfs flow --select DET101,DEAD301
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .registry import experiment_ids, get_experiment

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nfs",
        description=(
            "Reproduce 'Linux NFS Client Write Performance' "
            "(Lever & Honeyman, USENIX 2002) in simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible tables/figures")
    run = sub.add_parser(
        "run", help="run experiments or declarative scenario files"
    )
    run.add_argument(
        "ids",
        nargs="+",
        help=f"experiment ids ({', '.join(experiment_ids())}), 'all', "
        "or scenario.json paths",
    )
    run.add_argument(
        "--scale",
        type=float,
        default=4.0,
        help="memory scale factor for the file-size sweeps (default 4)",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="run sweeps at the paper's full 256 MB / 450 MB scale (slow)",
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced sizes for a fast smoke run",
    )
    run.add_argument(
        "--dump-dir",
        default=None,
        help="export each experiment's report/data/CSVs into this directory",
    )
    run.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="additionally run each experiment's observed trace point and "
        "write its trace/metrics/profile bundle under DIR/<id>",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="with --obs-dir: overwrite existing bundles",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep points over N worker processes (0 = all cores; "
        "results are identical to --jobs 1)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep point instead of reusing cached results",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: $REPRO_NFS_CACHE_DIR or "
        "~/.cache/repro-nfs)",
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="scenario files only: run under the runtime sanitizers",
    )
    corpus = sub.add_parser(
        "corpus",
        help="replay every scenario in the corpus against its pinned "
        "expectations (verdicts + fingerprints)",
    )
    corpus.add_argument(
        "--dir",
        default="scenarios",
        dest="corpus_dir",
        metavar="DIR",
        help="corpus root (default: scenarios)",
    )
    corpus.add_argument(
        "--sanitize",
        action="store_true",
        help="run each scenario under the runtime sanitizers",
    )
    corpus.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the second run that checks bit-for-bit determinism",
    )
    fuzz = sub.add_parser(
        "fuzz",
        help="run the seeded fault-schedule fuzzer; violations are "
        "delta-debug shrunk to minimal reproducers",
    )
    fuzz.add_argument(
        "--seed", type=int, default=1, help="fuzz campaign seed (default 1)"
    )
    fuzz.add_argument(
        "--draws",
        type=int,
        default=25,
        metavar="N",
        help="number of random scenarios to draw (default 25)",
    )
    fuzz.add_argument(
        "--no-sanitize",
        action="store_true",
        help="skip the runtime sanitizers (faster, weaker oracle)",
    )
    fuzz.add_argument(
        "--save-dir",
        default=None,
        metavar="DIR",
        help="corpus root to auto-save shrunk findings under "
        "DIR/regressions/",
    )
    fuzz.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="write the campaign report (draws, verdicts, findings) as "
        "JSON to PATH",
    )
    fleet = sub.add_parser(
        "fleet",
        help="run a multi-client fleet against one server and audit "
        "fairness, saturation, and determinism",
    )
    fleet.add_argument(
        "--clients", type=int, default=8, help="client count (default 8)"
    )
    fleet.add_argument(
        "--target",
        choices=("netapp", "linux", "linux-100"),
        default="netapp",
        help="server under test (default netapp)",
    )
    fleet.add_argument(
        "--client-variant",
        default="stock",
        metavar="NAME",
        help="NFS client variant every fleet member runs (default stock)",
    )
    fleet.add_argument(
        "--file-kib",
        type=int,
        default=1024,
        metavar="KIB",
        help="per-client file size in KiB (default 1024)",
    )
    fleet.add_argument(
        "--chunk",
        type=int,
        default=8192,
        metavar="BYTES",
        help="write() size (default 8192)",
    )
    fleet.add_argument(
        "--stagger-us",
        type=int,
        default=0,
        metavar="US",
        help="stagger client start times by this many microseconds each",
    )
    fleet.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help="run the fleet open-loop: SPEC is a compact key=value "
        "string (e.g. 'rate=200 duration_ms=80'), inline JSON, or a "
        "path to a JSON arrival-spec file; each client releases "
        "sessions on its own seeded arrival process and the run is "
        "SLO-scored (offered-load vs goodput, knee)",
    )
    fleet.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="base seed for the open-loop arrival/mix/size streams "
        "(default 1; only meaningful with --arrivals)",
    )
    fleet.add_argument(
        "--slo-out",
        default=None,
        metavar="PATH",
        dest="slo_out",
        help="with --arrivals, write the repro-nfs/slo-report@1 JSON "
        "(load curves, knee, per-SLO verdicts) to PATH",
    )
    fleet.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the second run that checks bit-for-bit determinism",
    )
    fleet.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the runtime sanitizers and audit their findings",
    )
    bench = sub.add_parser(
        "bench",
        help="run the performance lanes (sim-core events/sec, headline "
        "wall-clock, 32-client fleet wall-clock, cache hit rate)",
    )
    bench.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="additionally write the lane results as a JSON row to PATH",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced sizes for a fast smoke run",
    )
    trace = sub.add_parser(
        "trace",
        help="run one experiment trace-point or scenario file observed "
        "and export a Chrome-trace/metrics/profile bundle",
    )
    trace.add_argument(
        "name",
        help="experiment id (fig1..fig7, tab1) or scenario .json path",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="bundle directory (default: obs-<name or file stem>)",
    )
    trace.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing bundle in the output directory",
    )
    report = sub.add_parser(
        "report",
        help="render a timeline/SLO dashboard from an obs bundle "
        "directory, or re-run an observed trace point and report it",
    )
    report.add_argument(
        "target",
        help="bundle directory (containing timeline.json), an "
        "experiment id, or a scenario .json path",
    )
    report.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="write a standalone HTML dashboard to PATH instead of "
        "printing ASCII",
    )
    metrics = sub.add_parser(
        "metrics",
        help="run one observed trace-point and print its metrics registry "
        "as prometheus-style text",
    )
    metrics.add_argument(
        "name",
        help="experiment id (fig1..fig7, tab1) or scenario .json path",
    )
    flow = sub.add_parser(
        "flow",
        help="static analysis: the determinism rules plus the "
        "pure-observer, determinism-taint, lock-discipline, and sim-API "
        "contracts",
    )
    flow.add_argument(
        "root",
        nargs="?",
        default=None,
        help="package directory to analyse (default: the repro package)",
    )
    flow.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too (stale noqa suppressions included)",
    )
    flow.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to report (default: all)",
    )
    flow.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (default: text)",
    )
    flow.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="committed baseline to diff against; drift in either "
        "direction fails",
    )
    flow.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings as a fresh baseline and exit 0",
    )
    flow.add_argument(
        "--fix-suppressions",
        action="store_true",
        help="remove the stale noqa comments SUP401 reports, rewriting "
        "files in place",
    )
    return parser


def run_experiments(
    ids: List[str],
    scale: float,
    quick: bool,
    out=None,
    dump_dir: Optional[str] = None,
    obs_dir: Optional[str] = None,
    force: bool = False,
    context: Optional["ExecutionContext"] = None,
) -> bool:
    from .base import ExecutionContext

    if out is None:
        out = sys.stdout
    context = context or ExecutionContext()
    all_passed = True
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        # Wall-clock reporting for the human at the terminal; never
        # feeds back into the simulation.
        started = time.time()  # noqa: DET102
        result = experiment.run(scale=scale, quick=quick, context=context)
        elapsed = time.time() - started  # noqa: DET102
        out.write(result.render())
        out.write(f"\n({elapsed:.1f} s wall)\n\n")
        if dump_dir:
            from .base import export_result

            for path in export_result(result, dump_dir):
                out.write(f"  wrote {path}\n")
        if obs_dir:
            import os

            from ..obs.bundle import TRACE_POINTS

            if experiment_id in TRACE_POINTS:
                run_trace_bundle(
                    experiment_id,
                    os.path.join(obs_dir, experiment_id),
                    force=force,
                    out=out,
                )
        all_passed = all_passed and result.passed
    return all_passed


def run_trace_bundle(
    name: str,
    out_dir: Optional[str] = None,
    force: bool = False,
    out=None,
) -> int:
    """``repro-nfs trace``: one observed run, one bundle on disk per bed."""
    import os

    from ..bench.report import trace_summary
    from ..errors import ConfigError
    from ..obs.bundle import run_traced, write_bundle

    if out is None:
        out = sys.stdout
    label = name
    if name.endswith(".json"):
        label = os.path.splitext(os.path.basename(name))[0]
    out_dir = out_dir or f"obs-{label}"
    observabilities, result, outcome = run_traced(name)
    if not observabilities:
        out.write(f"{name}: nothing observed\n")
        return 1
    multi = len(observabilities) > 1
    for i, obs in enumerate(observabilities):
        try:
            paths = write_bundle(
                obs, out_dir, label, index=i if multi else None, force=force
            )
        except ConfigError as err:
            out.write(f"error: {err}\n")
            return 1
        for path in paths:
            out.write(f"wrote {path}\n")
    if result is not None:
        out.write(trace_summary(result.trace) + "\n")
    if outcome is not None:
        verdict = "PASS" if outcome.passed else "FAIL"
        out.write(
            f"{verdict} {outcome.name} "
            f"(fingerprint={outcome.fingerprint[:12]})\n"
        )
        return 0 if outcome.passed else 1
    out.write(
        f"load {os.path.join(out_dir, 'trace.json')} in "
        "https://ui.perfetto.dev or chrome://tracing\n"
    )
    return 0


def run_report(target: str, html: Optional[str] = None, out=None) -> int:
    """``repro-nfs report``: timeline/SLO dashboard for one run.

    ``target`` is either an existing obs bundle directory — the
    timelines and slo-report are loaded from ``timeline*.json`` /
    ``slo*.json`` — or a trace-point name / scenario file, in which
    case the run happens here, observed, and is reported directly.
    """
    import json
    import os

    from ..obs.report import render_ascii, render_html
    from ..obs.slo import evaluate_slos
    from ..obs.timeseries import TimelineRegistry

    if out is None:
        out = sys.stdout
    pairs = []  # (label, TimelineRegistry, slo-report-or-None)
    if os.path.isdir(target):
        names = sorted(
            n
            for n in os.listdir(target)
            if n.startswith("timeline") and n.endswith(".json")
        )
        if not names:
            out.write(f"{target}: no timeline*.json bundle files\n")
            return 1
        for tname in names:
            with open(os.path.join(target, tname), encoding="utf-8") as fh:
                registry = TimelineRegistry.from_snapshot(json.load(fh))
            sname = "slo" + tname[len("timeline"):]
            spath = os.path.join(target, sname)
            report = None
            if os.path.exists(spath):
                with open(spath, encoding="utf-8") as fh:
                    report = json.load(fh)
            pairs.append((f"{target}/{tname}", registry, report))
    else:
        from ..obs.bundle import run_traced

        observabilities, _, _ = run_traced(target)
        if not observabilities:
            out.write(f"{target}: nothing observed\n")
            return 1
        for i, obs in enumerate(observabilities):
            label = target if len(observabilities) == 1 else f"{target}[{i}]"
            pairs.append(
                (label, obs.timelines, evaluate_slos(obs.timelines))
            )
    for i, (label, registry, report) in enumerate(pairs):
        if html:
            path = html
            if len(pairs) > 1:
                root, ext = os.path.splitext(html)
                path = f"{root}-{i}{ext}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_html(registry, report, title=label))
            out.write(f"wrote {path}\n")
        else:
            out.write(f"== report: {label} ==\n")
            out.write(render_ascii(registry, report))
            out.write("\n")
    return 0


def print_metrics(name: str, out=None) -> int:
    """``repro-nfs metrics``: prometheus-style text on stdout."""
    from ..obs.export import prometheus_text
    from ..obs.bundle import run_traced

    if out is None:
        out = sys.stdout
    observabilities, _, _ = run_traced(name)
    if not observabilities:
        out.write(f"{name}: nothing observed\n")
        return 1
    for obs in observabilities:
        out.write(prometheus_text(obs.metrics))
    return 0


def run_fleet(
    clients: int,
    target: str,
    client_variant: str = "stock",
    file_kib: int = 1024,
    chunk_bytes: int = 8192,
    stagger_us: int = 0,
    verify: bool = True,
    sanitize: bool = False,
    arrivals: Optional[str] = None,
    seed: int = 1,
    slo_out: Optional[str] = None,
    out=None,
) -> bool:
    """``repro-nfs fleet``: one fleet point with a fairness audit.

    Runs N identical clients concurrently against one server, prints
    per-client and aggregate throughput plus Jain's fairness index, and
    audits invariants (durability, fairness, ingest envelope — and the
    sanitizer groups with ``sanitize``).  With ``verify`` the fleet runs
    a second, uninstrumented time and the two reduced results must hash
    identically: the bit-for-bit contract, which also proves the
    sanitizers perturbed nothing.

    ``arrivals`` switches the fleet open-loop: every client releases
    sessions on its own seeded arrival process (Poisson or MMPP, sized
    draws, workload mix) instead of writing one fixed file.  The run
    executes observed so the arrival layer's ``traffic/*`` timelines
    exist, and the verdict gains an SLO report: offered-load vs goodput
    curves and the located latency knee, written to ``slo_out`` when
    given.  The durability invariant switches to the open-loop bar
    (every planned session completed, nothing ingested left unstable)
    because per-session sizes vary by design.
    """
    import json
    import os
    from contextlib import ExitStack

    from ..chaos import Invariant
    from ..chaos.runner import _sanitizer_invariants
    from ..topology import FleetJobSpec, FleetWorkload, Topology
    from ..topology.fleet import reduce_fleet
    from ..units import KIB, us

    if out is None:
        out = sys.stdout
    arrival_spec = None
    if arrivals is not None:
        from ..traffic import parse_arrivals

        text = arrivals
        if os.path.isfile(arrivals):
            with open(arrivals, "r", encoding="utf-8") as handle:
                text = handle.read()
        arrival_spec = parse_arrivals(text)
    spec = FleetJobSpec.homogeneous(
        clients,
        target=target,
        client=client_variant,
        file_bytes=file_kib * KIB,
        chunk_bytes=chunk_bytes,
        stagger_ns=us(stagger_us),
        arrivals=arrival_spec,
        seed=seed,
    )
    started = time.time()  # noqa: DET102 - wall-clock reporting only
    registry = None
    with ExitStack() as stack:
        san_session = None
        if sanitize:
            from ..analysis.sanitize import sanitized

            san_session = stack.enter_context(sanitized())
        if arrival_spec is not None:
            # Open-loop runs are SLO-scored, which needs timelines, so
            # the first execution runs observed.  The verify replay
            # below stays unobserved — its fingerprint match doubles as
            # the pure-observer proof.
            from ..obs.core import observed

            stack.enter_context(observed())
        topo = Topology(
            clients=spec.clients, servers=spec.servers, switch=spec.switch
        )
        fleet = FleetWorkload(
            topo,
            spec.file_bytes,
            chunk_bytes=spec.chunk_bytes,
            do_fsync=spec.do_fsync,
            stagger_ns=spec.stagger_ns,
            workload=spec.workload,
            arrivals=spec.arrivals,
            seed=spec.seed,
        ).run(time_limit_ns=spec.time_limit_ns)
        point = reduce_fleet(fleet)
        if arrival_spec is not None:
            registry = topo.obs.timelines
    elapsed = time.time() - started  # noqa: DET102

    rows = [
        (c["name"], f"{mb:.2f}", f"{p99:.1f}")
        for c, mb, p99 in zip(
            point.clients, point.client_mbps(), point.client_p99_us()
        )
    ]
    width = max(len(r[0]) for r in rows)
    if arrival_spec is not None:
        load = (
            f"open-loop {arrival_spec.process} "
            f"{arrival_spec.rate_per_s:g}/s x "
            f"{arrival_spec.duration_ns / 1e6:g} ms"
        )
    else:
        load = f"{file_kib} KiB each"
    out.write(f"{clients} x {client_variant} client(s) -> {target}, {load}\n")
    out.write(f"{'client'.ljust(width)}  write MBps   p99 us\n")
    for name, mb, p99 in rows:
        out.write(f"{name.ljust(width)}  {mb.rjust(10)}  {p99.rjust(7)}\n")
    out.write(
        f"aggregate {point.aggregate_mbps:.2f} MBps over "
        f"{point.span_ns / 1e6:.1f} ms, Jain {point.fairness:.4f}\n"
    )
    for row in point.servers:
        shares = ", ".join(
            f"{src} {share:.3f}" for src, share in sorted(row["ingest_shares"].items())
        )
        out.write(
            f"{row['name']}: {row['bytes_received']} bytes in, "
            f"shares [{shares}], downlink queued "
            f"{row['downlink_queue_ns'] / 1e6:.1f} ms total\n"
        )

    slo_report = None
    if arrival_spec is not None and registry is not None:
        from ..obs.slo import evaluate_slos

        slo_report = evaluate_slos(registry)
        offered_total = sum(n for _, n in slo_report["load"]["offered_bytes"])
        goodput_total = sum(n for _, n in slo_report["load"]["goodput_bytes"])
        out.write(
            f"offered {offered_total / 1e6:.2f} MB over "
            f"{len(slo_report['load']['offered_bytes'])} windows, "
            f"goodput {goodput_total / 1e6:.2f} MB over "
            f"{len(slo_report['load']['goodput_bytes'])}\n"
        )
        knee = slo_report["knee"]
        if knee is not None:
            out.write(
                f"knee at {knee['offered_bytes_per_window']} B/window "
                f"(p99 {knee['p99']:.1f} us, window starting "
                f"{knee['window_start_ns'] / 1e6:.1f} ms)\n"
            )
        else:
            out.write("knee: not located (load curve too short or flat)\n")
        if slo_out is not None:
            with open(slo_out, "w", encoding="utf-8") as handle:
                json.dump(slo_report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            out.write(f"slo report -> {slo_out}\n")

    invariants = []
    if arrival_spec is not None:
        planned = sum(
            c.get("extra", {}).get("sessions", 0) for c in point.clients
        )
        completed = sum(c.get("ops", 0) for c in point.clients)
        invariants.append(
            Invariant(
                "open-loop-complete",
                planned > 0 and completed == planned,
                f"{completed}/{planned} sessions completed",
            )
        )
    for server in topo.servers:
        if server is None:
            continue
        if arrival_spec is not None:
            laggards = sorted(
                f.name
                for f in server.files.values()
                if f.stable_bytes < f.size
            )
            invariants.append(
                Invariant(
                    f"open-loop-durable[{server.name}]",
                    not laggards,
                    f"unstable files: {laggards}",
                )
            )
        else:
            laggards = sorted(
                f.name
                for f in server.files.values()
                if f.size != spec.file_bytes or f.stable_bytes < f.size
            )
            invariants.append(
                Invariant(
                    f"files-complete-durable[{server.name}]",
                    len(server.files) == clients and not laggards,
                    f"{len(server.files)} files, incomplete: {laggards}",
                )
            )
        bound = 1.1 * server.ingest_bytes_per_sec
        invariants.append(
            Invariant(
                f"within-ingest-envelope[{server.name}]",
                point.aggregate_bytes_per_sec <= bound,
                f"aggregate {point.aggregate_mbps:.1f} MBps exceeds "
                "the server's ingest rate",
            )
        )
    if stagger_us == 0 and arrival_spec is None:
        invariants.append(
            Invariant(
                "fair-share",
                point.fairness >= 0.95,
                f"Jain {point.fairness:.4f} < 0.95 for identical clients",
            )
        )
    if sanitize:
        invariants.extend(_sanitizer_invariants(san_session))
    fingerprint = point.run_fingerprint()
    if verify:
        from ..topology import run_fleet_job

        replay_fp = run_fleet_job(spec).run_fingerprint()
        invariants.append(
            Invariant(
                "deterministic-replay",
                replay_fp == fingerprint,
                f"replay fingerprint {replay_fp[:12]} != {fingerprint[:12]}",
            )
        )

    passed = all(inv.ok for inv in invariants)
    verdict = "PASS" if passed else "FAIL"
    out.write(
        f"{verdict} fleet (fingerprint={fingerprint[:12]}, {elapsed:.1f} s wall)\n"
    )
    _write_invariants(invariants, out)
    return passed


def _write_invariants(invariants, out) -> None:
    for inv in invariants:
        mark = "ok" if inv.ok else "VIOLATED"
        # Details are phrased as failure diagnostics; show them only
        # when the invariant actually tripped.
        detail = f" — {inv.detail}" if inv.detail and not inv.ok else ""
        out.write(f"  [{mark:8s}] {inv.name}{detail}\n")


def run_scenario_files(
    paths: List[str], sanitize: bool = False, out=None
) -> bool:
    """``repro-nfs run <scenario.json>``: replay declarative scenarios.

    Each file is schema-validated, placeholder-substituted from the
    environment, run under its selected checks, and — when it carries an
    ``expect`` block — audited against its pinned verdicts and
    fingerprint.  Any failed invariant or expectation drift fails the
    command (non-zero exit).
    """
    from ..chaos import replay_file

    if out is None:
        out = sys.stdout
    all_ok = True
    for path in paths:
        started = time.time()  # noqa: DET102 - wall-clock reporting only
        replay = replay_file(path, sanitize=sanitize)
        elapsed = time.time() - started  # noqa: DET102
        verdict = "PASS" if replay.verdict_ok else "FAIL"
        out.write(
            f"{verdict} {replay.spec.name} ({path}, seed={replay.outcome.seed}, "
            f"fingerprint={replay.outcome.fingerprint[:12]}, "
            f"{elapsed:.1f} s wall)\n"
        )
        _write_invariants(replay.outcome.invariants, out)
        for mismatch in replay.mismatches:
            out.write(f"  [DRIFT   ] {mismatch}\n")
        all_ok = all_ok and replay.verdict_ok
    return all_ok


def run_corpus(
    root: str, verify: bool = True, sanitize: bool = False, out=None
) -> bool:
    """``repro-nfs corpus``: strict replay of the whole corpus."""
    from ..chaos import corpus_files, replay_file

    if out is None:
        out = sys.stdout
    all_ok = True
    paths = corpus_files(root)
    for path in paths:
        started = time.time()  # noqa: DET102 - wall-clock reporting only
        replay = replay_file(
            path, verify_determinism=verify, sanitize=sanitize
        )
        elapsed = time.time() - started  # noqa: DET102
        verdict = "PASS" if replay.verdict_ok else "FAIL"
        out.write(
            f"{verdict} {replay.spec.name:20s} "
            f"fingerprint={replay.outcome.fingerprint[:12]} "
            f"({elapsed:.1f} s wall)\n"
        )
        if not replay.verdict_ok:
            _write_invariants(replay.outcome.invariants, out)
            for mismatch in replay.mismatches:
                out.write(f"  [DRIFT   ] {mismatch}\n")
        all_ok = all_ok and replay.verdict_ok
    out.write(f"{len(paths)} scenario(s) replayed\n")
    return all_ok


def run_fuzz_campaign(
    seed: int,
    draws: int,
    sanitize: bool = True,
    save_dir: Optional[str] = None,
    json_path: Optional[str] = None,
    out=None,
) -> bool:
    """``repro-nfs fuzz``: one seeded campaign, shrunk findings."""
    import json as json_mod

    from ..chaos import fuzz

    if out is None:
        out = sys.stdout
    started = time.time()  # noqa: DET102 - wall-clock reporting only
    report = fuzz(seed, draws, sanitize=sanitize, corpus_root=save_dir)
    elapsed = time.time() - started  # noqa: DET102
    for row in report.rows:
        verdict = "PASS" if row["passed"] else "FAIL"
        shape = f"{row['clients']} client(s), {row['faults']} fault(s)"
        out.write(
            f"{verdict} draw {row['draw']:3d}  {shape:26s} "
            f"fingerprint={row['fingerprint'][:12]}\n"
        )
    for finding in report.findings:
        out.write(
            f"finding: draw {finding.draw} violated "
            f"{', '.join(finding.signature)}; shrunk to "
            f"{finding.shrunk.fault_count()} fault(s) in "
            f"{finding.shrink.steps} step(s)\n"
        )
        for step in finding.shrink.trace:
            out.write(f"    {step}\n")
        if finding.saved_path:
            out.write(f"  saved reproducer: {finding.saved_path}\n")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json_mod.dump(report.payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write(f"wrote {json_path}\n")
    verdict = "PASS" if report.passed else "FAIL"
    out.write(
        f"{verdict} fuzz seed={seed}: {draws} draw(s), "
        f"{len(report.findings)} finding(s), "
        f"campaign fingerprint={report.fingerprint()[:12]} "
        f"({elapsed:.1f} s wall)\n"
    )
    return report.passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    if args.command == "fleet":
        if args.clients < 1:
            parser.error(f"--clients must be >= 1, got {args.clients}")
        if args.file_kib < 1:
            parser.error(f"--file-kib must be >= 1, got {args.file_kib}")
        ok = run_fleet(
            args.clients,
            args.target,
            client_variant=args.client_variant,
            file_kib=args.file_kib,
            chunk_bytes=args.chunk,
            stagger_us=args.stagger_us,
            verify=not args.no_verify,
            sanitize=args.sanitize,
            arrivals=args.arrivals,
            seed=args.seed,
            slo_out=args.slo_out,
        )
        return 0 if ok else 1
    if args.command == "bench":
        from .bench import run_bench

        return run_bench(json_path=args.json_path, quick=args.quick)
    if args.command == "corpus":
        ok = run_corpus(
            args.corpus_dir,
            verify=not args.no_verify,
            sanitize=args.sanitize,
        )
        return 0 if ok else 1
    if args.command == "fuzz":
        if args.draws < 1:
            parser.error(f"--draws must be >= 1, got {args.draws}")
        ok = run_fuzz_campaign(
            seed=args.seed,
            draws=args.draws,
            sanitize=not args.no_sanitize,
            save_dir=args.save_dir,
            json_path=args.json_path,
        )
        return 0 if ok else 1
    if args.command == "trace":
        return run_trace_bundle(args.name, out_dir=args.out, force=args.force)
    if args.command == "report":
        return run_report(args.target, html=args.html)
    if args.command == "metrics":
        return print_metrics(args.name)
    if args.command == "flow":
        from ..analysis.flow import run_flow

        return run_flow(
            root=args.root,
            strict=args.strict,
            select=args.select,
            fmt=args.fmt,
            baseline=args.baseline,
            write_baseline=args.write_baseline,
            fix_suppressions=args.fix_suppressions,
        )
    if args.command == "list":
        for experiment_id in experiment_ids():
            experiment = get_experiment(experiment_id)
            print(f"{experiment_id:6s} {experiment.title}  [{experiment.paper_ref}]")
        return 0
    scenario_paths = [i for i in args.ids if i.endswith(".json")]
    experiment_args = [i for i in args.ids if not i.endswith(".json")]
    scenarios_ok = True
    if scenario_paths:
        scenarios_ok = run_scenario_files(scenario_paths, sanitize=args.sanitize)
        if not experiment_args:
            return 0 if scenarios_ok else 1
    ids = experiment_ids() if "all" in experiment_args else experiment_args
    scale = 1.0 if args.full else args.scale
    from ..cache import ResultCache
    from ..parallel import default_jobs
    from .base import ExecutionContext

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    context = ExecutionContext(
        jobs=default_jobs() if args.jobs == 0 else args.jobs,
        cache=cache,
    )
    ok = run_experiments(
        ids, scale=scale, quick=args.quick, dump_dir=args.dump_dir,
        obs_dir=args.obs_dir, force=args.force, context=context,
    )
    return 0 if ok and scenarios_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
