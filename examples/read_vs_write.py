#!/usr/bin/env python3
"""Why the paper benchmarks writes, not reads (§2.3).

"Client O/S caching moderates the performance of application read
requests on the client; writes reflect network efficiencies and
latencies more directly."  This example quantifies that: cached reads
run at memory speed regardless of the server, cold reads ride the
read-ahead pipeline, while writes always face the wire sooner or later.

The four-phase measurement lives in the registry
(``repro.bench.workloads.ReadVsWriteWorkload``); this file is a thin
wrapper that runs the registered workload per target and tabulates the
throughputs it reports.

Run:  python examples/read_vs_write.py
"""

from repro import TestBed
from repro.config import NfsClientConfig
from repro.units import MB

FILE_MB = 8
LAZY = NfsClientConfig(eager_flush_limits=False, hashtable_index=True,
                       release_bkl_for_send=True)


def measure(target: str):
    bed = TestBed(target=target, client=LAZY)
    outcome = bed.topology.run_workload(
        "read-vs-write", {"file_bytes": FILE_MB * MB}
    )
    return outcome.extra


def main() -> None:
    print(f"{FILE_MB} MB file, 8 KB calls, enhanced client\n")
    print(f"{'':12s} {'write':>9s} {'w+flush':>9s} {'warm rd':>9s} {'cold rd':>9s}")
    for target in ("netapp", "linux", "linux-100"):
        out = measure(target)
        print(f"{target:12s} "
              f"{out['write_bps'] / 1e6:8.1f}M {out['flush_bps'] / 1e6:8.1f}M "
              f"{out['warm_read_bps'] / 1e6:8.1f}M "
              f"{out['cold_read_bps'] / 1e6:8.1f}M")
    print("\nWarm reads never touch the wire (identical on every server);"
          "\ncold reads ride read-ahead at near wire speed; writes and"
          "\nespecially flushes expose the server's real throughput —"
          "\nwhich is why the paper's benchmark writes (§2.3).")


if __name__ == "__main__":
    main()
