"""Run the benchmark over many seeds; report its spread, record a point.

Usage (from the repository root)::

    python3 perfbench/trajectory.py --runs 10
    python3 perfbench/trajectory.py --runs 5 --workloads openloop-knfsd
    python3 perfbench/trajectory.py --runs 10 --record "after the change"

For each workload it runs ``run.py --trace 0`` once per seed
(``--first-seed`` onwards) for ``run_seconds`` of ``BENCHMARK.json``,
then prints each end-to-end metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread: the
quartile distance as a share of the median, against the metric's
bound.  ``--record LABEL`` adds one traced run per workload for the
per-layer metrics and appends the summary, with its provenance, as one
point of ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def bench(workload: str, seed: int, seconds: int, trace: int):
    """One ``run.py`` run; returns ``(result, provenance)``."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    provenance = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines if line.startswith("provenance ")
    )
    return json.loads(lines[-1]), provenance


def spread_row(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    point: Dict[str, Any] = {
        "label": args.record,
        "runs": args.runs,
        "seeds": list(seeds),
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        results, provenance = [], None
        for seed in seeds:
            result, provenance = bench(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        row: Dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = spread_row([r["metrics"][name]["value"] for r in results])
            row["end_to_end"][name] = stats
            ok = stats["spread"] <= bound / 3
            steady &= ok or name == "setup_s"
            print(
                f"  {name:<12} median {stats['median']:.4g}  q1 {stats['q1']:.4g}"
                f"  q3 {stats['q3']:.4g}  spread {stats['spread']:.3f}"
                f"  (bound {bound}, {'ok' if ok else 'WIDE'})"
            )
        if args.record:
            traced, _ = bench(workload, seeds[0], spec["run_seconds"], 1)
            row["per_layer"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
        print(
            f"  fail_rate {row['failed']}/{row['attempted']}", flush=True
        )
        provenance = {
            k: provenance[k]
            for k in ("commit", "dirty", "code_version", "python", "nproc", "machine", "params")
        }
        row["provenance"] = provenance
        point["workloads"][workload] = row
    if args.record:
        trajectory = {"schema": "perfbench/trajectory@1", "points": []}
        if TRAJECTORY.is_file():
            with open(TRAJECTORY, encoding="utf-8") as f:
                trajectory = json.load(f)
        trajectory["points"].append(point)
        with open(TRAJECTORY, "w", encoding="utf-8") as f:
            json.dump(trajectory, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded point {args.record!r} in {TRAJECTORY.name}")
    print("steady" if steady else "not steady: a spread exceeds a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
