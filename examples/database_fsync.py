#!/usr/bin/env python3
"""Database-style workload: small transactions committed with fsync().

The paper's introduction motivates NFS client performance with
"complex corporate applications such as database and mail services" —
workloads that require data permanence *before* the write returns
(§3.6).  This example drives the registered ``database-fsync``
workload over NFS: each commit appends a few KB and fsync()s.  Against
the filer, NVRAM makes the COMMIT-free FILE_SYNC path fast; against
the Linux server each fsync turns into WRITE+COMMIT and a real disk
write.

The workload body itself lives in the registry
(``repro.bench.workloads.DatabaseFsyncWorkload``) so fleets, chaos
scenarios, and open-loop arrival mixes run the exact same generator;
this file is a thin wrapper that runs it on a single bed and prints
the paper's comparison.

Run:  python examples/database_fsync.py
"""

from repro import TestBed
from repro.units import to_us

TRANSACTIONS = 400
RECORD_BYTES = 4096


def run_transaction_log(target: str):
    bed = TestBed(target=target, client="enhanced")
    outcome = bed.topology.run_workload(
        "database-fsync",
        {"transactions": TRANSACTIONS, "record_bytes": RECORD_BYTES},
    )
    return bed, outcome


def main() -> None:
    print(f"{TRANSACTIONS} transactions, {RECORD_BYTES} B each, "
          f"fsync() after every commit\n")
    results = {}
    for target in ("netapp", "linux", "local"):
        bed, outcome = run_transaction_log(target)
        total_s = bed.sim.now / 1e9
        tps = outcome.ops / total_s
        results[target] = tps
        commits = outcome.trace
        commits_sent = outcome.extra.get("commits_sent", 0)
        print(f"{target:8s} {tps:8.0f} tx/s   "
              f"commit latency mean {to_us(commits.mean_ns()):7.1f} us  "
              f"p-max {to_us(commits.max_ns()):8.1f} us   "
              f"COMMIT RPCs: {commits_sent}")
    print("\nThe filer acknowledges WRITEs FILE_SYNC from NVRAM - no COMMIT,"
          "\nno disk wait - so synchronous transaction commits run at network"
          "\nlatency. The Linux server pays a COMMIT round trip plus a disk"
          "\nwrite per transaction ('where applications require data"
          "\npermanence before a write() returns, the filer performs better').")
    assert results["netapp"] > results["linux"]


if __name__ == "__main__":
    main()
