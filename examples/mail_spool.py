#!/usr/bin/env python3
"""Mail-spool workload: many small files, each fsynced before delivery.

The paper's introduction names "database and mail services" as the
applications whose success hinges on NFS client performance.  A mail
server (sendmail/postfix style) writes each message to its own spool
file and must fsync before acknowledging the SMTP transaction.  This
example delivers a batch of messages over NFS and reports deliveries
per second — another angle on the §3.6 data-permanence story.

The delivery agents live in the registry
(``repro.bench.workloads.MailSpoolWorkload``); this file is a thin
wrapper that runs the registered workload on a single bed per target.

Run:  python examples/mail_spool.py
"""

from repro import TestBed

MESSAGES = 150
CONCURRENCY = 4  # delivery agents


def deliver_batch(target: str):
    bed = TestBed(target=target, client="enhanced")
    outcome = bed.topology.run_workload(
        "mail-spool", {"messages": MESSAGES, "concurrency": CONCURRENCY}
    )
    # The delivery agents start at time 0; the run stops as they finish.
    elapsed_s = bed.sim.now / 1e9
    return outcome.ops / elapsed_s, outcome.bytes_written / elapsed_s / 1e6


def main() -> None:
    print(f"{MESSAGES} messages (2-64 KiB), {CONCURRENCY} delivery agents, "
          f"fsync per message\n")
    for target in ("netapp", "linux", "local"):
        rate, mbps = deliver_batch(target)
        print(f"{target:8s} {rate:8.0f} msgs/s   ({mbps:5.1f} MBps)")
    print("\nPer-message fsync makes delivery latency-bound: the filer's"
          "\nNVRAM answers stable WRITEs at network latency while knfsd"
          "\npays COMMIT plus a disk pass per message.")


if __name__ == "__main__":
    main()
