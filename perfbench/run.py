"""The repo benchmark: host cost of three simulator workloads.

Usage::

    python3 perfbench/run.py --workload headline-30mb --seed 1 \\
        --seconds 40 --trace 0

Runs ``perfbench/worker.py`` in fresh processes, one at a time, for as
many rounds as fit in ``--seconds`` (at least one).  Every run's
simulated outputs are checked against ``pins.json`` and the paper's
claims.

* ``--trace 0`` reports the end-to-end metrics: the medians of
  ``wall_s`` (first simulated event to result), ``setup_s`` (import
  ``repro`` and build the topology) and ``peak_rss_mb``.  Both times
  are host seconds scaled to the reference speed (see
  :func:`at_reference_speed`).
* ``--trace 1`` alternates untraced and profiled runs and reports the
  per-layer metrics of the profiled ones, plus the untraced runs'
  unscaled ``raw_wall_s``, their ``ref_s`` and ``trace_overhead_x``.

The metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count runs, and a run fails if it raises or its outputs
differ from the pins.  ``--write-pins`` records the current outputs of
a workload as its pins instead of measuring.

Exits 1 without printing a result when the simulator source is
missing or does not compile, or when no run completed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import ENTRY_POINTS, LAYERS, OTHER
from workloads import ARRIVAL_SEEDS, SIZES, WORKLOADS, input_seed, paper_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

#: Every run of this script must end within this many seconds.
BUDGET_S = 170.0

#: Host seconds of one :class:`worker.SpeedSampler` sample at the
#: reference speed: about what it takes on a quiet Xeon (model 143).
REFERENCE_SAMPLE_S = 0.010

#: Set-up-only workers started after each untraced run; ``setup_s`` is
#: the median over them and the full runs, as it is far shorter and
#: noisier than a run.
SETUP_SAMPLES = 4


class RunFailed(Exception):
    """One worker run raised or printed no record."""


def build() -> None:
    """Byte-compile the simulator, so no run pays for it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator source at {SRC / 'repro'}")
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise SystemExit(f"error: {SRC} does not compile")


def run_worker(
    workload: str, seed: int, size: str, trace: int, timeout: float,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """One fresh-process run; returns the worker's record."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--input-seed", str(seed),
        "--size", size,
        "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunFailed(f"worker exited {proc.returncode}: {tail[0]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["repro_dir"]) != SRC / "repro":
        raise RunFailed(f"imported repro from {record['repro_dir']}, not {SRC}")
    return record


def load_pins() -> Dict[str, Any]:
    if not PINS.is_file():
        return {"schema": "perfbench/pins@1", "workloads": {}}
    with open(PINS, encoding="utf-8") as f:
        return json.load(f)


def check(
    workload: str, seed: int, outputs: Dict[str, Any], pins: Dict[str, Any]
) -> List[str]:
    """Why a full-size run's simulated outputs are wrong; empty when
    correct."""
    pinned = pins["workloads"].get(workload, {}).get("seeds", {}).get(str(seed))
    if pinned is None:
        return [f"no pin for {workload} input seed {seed}"]
    problems = [
        f"{key}: {outputs.get(key)!r} != pinned {pinned.get(key)!r}"
        for key in sorted(set(pinned) | set(outputs))
        if outputs.get(key) != pinned.get(key)
    ]
    return problems + paper_checks(workload, outputs)


def git_state() -> Tuple[Optional[str], Optional[bool]]:
    """``(commit, dirty)`` of the checkout, or ``(None, None)`` when it
    is not the top of a git work tree."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def declared_metrics(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def at_reference_speed(record: Dict[str, Any], key: str) -> float:
    """``record[key]`` host seconds, as they would read at the reference
    speed: scaled by how much longer than ``REFERENCE_SAMPLE_S`` the
    worker's speed samples took.  This cancels the shared host's swings
    in speed, which move the sampler's loop and the simulator alike."""
    return record[key] * REFERENCE_SAMPLE_S / record["ref_s"]


def count_view(record: Dict[str, Any]) -> Dict[str, int]:
    """Every deterministic count of a traced record."""
    counts = {f"{name}.calls": n for name, n in record["entries"].items()}
    counts.update(
        {f"{name}.calls": t["calls"] for name, t in record["layers"].items()}
    )
    counts["sim.events"] = record["outputs"]["sim.events"]
    return counts


def per_layer(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
) -> Dict[str, float]:
    counts = count_view(traced[0])
    events = counts["sim.events"]
    metrics: Dict[str, float] = {"sim.events": events}
    for name in LAYERS + (OTHER, "repro"):
        metrics[f"{name}.self_s"] = statistics.median(
            r["layers"][name]["self_s"] for r in traced
        )
    for name in LAYERS + (OTHER, "repro") + tuple(ENTRY_POINTS):
        calls = counts[f"{name}.calls"]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.calls_per_event"] = calls / events
    metrics["raw_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    metrics["ref_s"] = statistics.median(r["ref_s"] for r in untraced)
    metrics["trace_overhead_x"] = statistics.median(
        r["wall_s"] for r in traced
    ) / metrics["raw_wall_s"]
    return metrics


def summarize(metrics: Dict[str, float], samples: Dict[str, List[float]], out) -> None:
    """One line per metric, then per sampled figure that is not one."""
    for name in dict.fromkeys(list(metrics) + list(samples)):
        value = metrics.get(name)
        if value is None:
            value = statistics.median(samples[name])
        spread = ""
        if name in samples:
            got = samples[name]
            spread = f"  min {min(got):.4g}  max {max(got):.4g}  n={len(got)}"
        out.write(f"  {name:<40} {value:.6g}{spread}\n")


def write_pins(workload: str) -> int:
    """Record the full-size outputs of every input seed as pins."""
    build()
    seeds = ARRIVAL_SEEDS if WORKLOADS[workload][1] else (0,)
    entry = {"seeds": {}}
    for seed in seeds:
        record = run_worker(workload, seed, "full", 0, BUDGET_S)
        problems = paper_checks(workload, record["outputs"])
        if problems:
            sys.stderr.write(f"refusing to pin seed {seed}: {problems}\n")
            return 1
        entry["seeds"][str(seed)] = record["outputs"]
        entry["code_version"] = record["code_version"]
        print(f"{workload} seed {seed}: {record['outputs']}")
    entry["commit"], entry["dirty"] = git_state()
    pins = load_pins()
    pins["workloads"][workload] = entry
    with open(PINS, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.write_pins:
        return write_pins(args.workload)

    started = time.perf_counter()
    build()
    pins = load_pins()
    seed = input_seed(args.workload, args.seed)
    records: Dict[int, List[Dict[str, Any]]] = {0: [], 1: []}
    setups: List[Dict[str, Any]] = []
    attempted = failed = 0

    def attempt(trace: int, setup_only: bool = False) -> Optional[Dict[str, Any]]:
        """Start one worker, counting it; ``None`` if it failed to run."""
        nonlocal attempted, failed
        attempted += 1
        try:
            return run_worker(
                args.workload, seed, "full", trace,
                BUDGET_S - (time.perf_counter() - started), setup_only,
            )
        except RunFailed as exc:
            failed += 1
            sys.stderr.write(f"worker {attempted} failed: {exc}\n")
            return None

    while True:
        round_started = time.perf_counter()
        for trace in (0, 1) if args.trace else (0,):
            record = attempt(trace)
            if record is None:
                continue
            problems = check(args.workload, seed, record["outputs"], pins)
            if trace and records[1] and count_view(record) != count_view(records[1][0]):
                problems.append("counts differ from the first traced run")
            if problems:
                failed += 1
                sys.stderr.write(f"worker {attempted} wrong: {'; '.join(problems)}\n")
            records[trace].append(record)
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                record = attempt(0, setup_only=True)
                if record is not None:
                    setups.append(record)
        # Start another round only if one as long as the last still ends
        # within ``--seconds``, so that a run ends close to its time.
        now = time.perf_counter()
        if (now - started) + (now - round_started) > min(args.seconds, BUDGET_S):
            break
    if not records[0] or (args.trace and not records[1]):
        sys.stderr.write("error: no run completed\n")
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)
    samples: Dict[str, List[float]] = {}
    if args.trace:
        metrics = per_layer(records[1], records[0])
    else:
        setups += records[0]
        samples = {
            "wall_s": [at_reference_speed(r, "wall_s") for r in records[0]],
            "setup_s": [at_reference_speed(r, "setup_s") for r in setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in records[0]],
            "raw_wall_s": [r["wall_s"] for r in records[0]],
            "raw_setup_s": [r["setup_s"] for r in setups],
        }
        metrics = {
            name: statistics.median(samples[name])
            for name in ("wall_s", "setup_s", "peak_rss_mb")
        }
    if set(metrics) != set(units):
        sys.stderr.write(
            f"error: measured {sorted(set(metrics) ^ set(units))} "
            f"disagree with BENCHMARK.json {kind}\n"
        )
        return 1

    out = sys.stdout
    runs = records[1] if args.trace else records[0]
    out.write(
        f"{args.workload} seed {args.seed} (input seed {seed}), "
        f"trace {args.trace}: {attempted} workers, {failed} failed, "
        f"fail_rate {failed / attempted:.3f}\n"
    )
    summarize(metrics, samples, out)
    commit, dirty = git_state()
    provenance = {
        "commit": commit,
        "dirty": dirty,
        "code_version": runs[0]["code_version"],
        "python": runs[0]["python"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "params": SIZES["full"][args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": {
            "untraced": len(records[0]),
            "traced": len(records[1]),
            "setup_only": len(setups),
        },
    }
    out.write("provenance " + json.dumps(provenance, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
