#!/usr/bin/env python
"""Gate one benchmark result on the counts committed in the newest
``BENCH_<n>.json`` at the repository root.

With a workload name, reads the JSON result that ``perfbench/run.py
--trace 1`` prints on its last line from standard input.  Exits 1
unless the run was correct and none of its ``sim.spawn.calls``,
``sim.execute.calls``, ``obs.calls``, ``sim.calls`` and ``net.calls``
exceeds the ``counts`` recorded for the workload:

    python3 perfbench/run.py --workload fleet-32 --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 scripts/check_bench_counts.py fleet-32

The counts come from wrappers and the profiler counting calls, not
from timings, so they are the same on every host (Python 3.12's inlined
comprehensions can only lower ``obs.calls``; the layer totals are
committed at the larger of the 3.11 and 3.12 counts).  A change that
spawns a task per received frame again fails here, and so does one that
puts observer calls back on the unobserved workloads (committed at 0),
adds frames to the observed one's instrument path, or adds Python calls
to the simulator core or the network layer, such as a generator per CPU
slot or a re-armed event per link frame.

With ``imports``, reads the JSON row ``repro-nfs bench --json`` writes
and exits 1 if its ``imports`` lane loads more modules (``modules``,
``repro_modules``) than the committed row's: a fresh process would pay
for them before its first event.

    python3 scripts/check_bench_counts.py imports < bench-ci.json

Module counts depend on the Python version (and on what a host's
``site`` imports before the count starts), so the committed row holds
the larger of the Python 3.11 and 3.12 counts.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that may fall but must not rise above the committed counts.
GATED = (
    "sim.spawn.calls",
    "sim.execute.calls",
    "obs.calls",
    "sim.calls",
    "net.calls",
)

#: The argument that gates the ``imports`` lane instead of a workload.
IMPORTS = "imports"
#: Fields of the ``imports`` lane that may fall but must not rise.
IMPORTS_GATED = ("modules", "repro_modules")


def newest_bench(root: Path = ROOT) -> Path:
    """The ``BENCH_<n>.json`` with the largest ``n``."""
    numbered = {}
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered[int(match.group(1))] = path
    if not numbered:
        raise SystemExit(f"error: no BENCH_<n>.json in {root}")
    return numbered[max(numbered)]


def problems(result: Dict[str, Any], committed: Dict[str, int]) -> List[str]:
    """Why ``result`` fails the gate; empty when it passes."""
    found = []
    if not result.get("correct"):
        found.append("run is not correct (outputs differ from the pins)")
    for name in GATED:
        got = result["metrics"][name]["value"]
        if got > committed[name]:
            found.append(f"{name} {got} exceeds the committed {committed[name]}")
    return found


def import_problems(imports: Dict[str, Any], committed: Dict[str, int]) -> List[str]:
    """Why an ``imports`` lane fails the gate; empty when it passes."""
    return [
        f"imports.{name} {imports[name]} exceeds the committed {committed[name]}"
        for name in IMPORTS_GATED
        if imports[name] > committed[name]
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write(
            "usage: check_bench_counts.py WORKLOAD|imports < result.json\n"
        )
        return 2
    target = args[0]
    bench = newest_bench(ROOT)
    with open(bench, encoding="utf-8") as f:
        row = json.load(f)
    if target == IMPORTS:
        committed = row.get(IMPORTS)
    else:
        committed = row.get("counts", {}).get(target)
    if committed is None:
        sys.stderr.write(f"error: {bench.name} has no counts for {target}\n")
        return 1
    result = json.loads(sys.stdin.read())
    if target == IMPORTS:
        found = import_problems(result[IMPORTS], committed)
    else:
        found = problems(result, committed)
    for problem in found:
        sys.stderr.write(f"{target}: {problem} ({bench.name})\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
