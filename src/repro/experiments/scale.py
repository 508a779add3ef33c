"""Scale: the fleet sweep pushed to 1,024 clients.

Two failure modes hide above the 32-client range the ``fleet``
experiment covers, and they live on opposite sides of the stack:

* **Server-side collapse.**  Every client that joins adds its share of
  WRITE backlog to the server's FIFO ingest queue.  Once the queue
  delay crosses the RPC retransmit timeout (``timeo``), clients start
  resending requests the server has merely not answered yet, and the
  duplicates consume ingest the originals already paid for — aggregate
  throughput *falls* below the server bound instead of pinning to it.
  The knfsd, which must push every COMMIT through its single disk,
  diverges further than the filer (whose NVRAM absorbs commits): its
  per-client ingest shares spread measurably wider at 1,024 clients.
  Client-side Jain stays ≈ 1 through all of it — writes absorb into
  each client's page cache at memory speed, so the client-side index
  is blind to a server melting down symmetrically.

* **Client-side fairness collapse.**  With skewed arrivals (a fixed
  stagger between client starts) and files big enough for cache
  pressure to couple write() to the shared server, early clients run
  at near memory speed while late arrivals find a fully backlogged
  server.  The FIFO is instantaneously fair — equal ingest shares —
  but lifetime throughput is not, and Jain's index collapses, deeper
  the larger the fleet.

Both sweeps reuse the cached parallel executor, so ``--jobs``/warm
caches apply: each point is one independent fleet run.
"""

from __future__ import annotations

from typing import List

from ..analysis import Comparison
from ..analysis.stats import knee_point
from ..topology import FleetJobSpec
from ..units import KIB, MIB, ms
from .base import Experiment, format_table
from .fleet import TARGET_BOUNDS

__all__ = ["Scale"]

#: Client counts for the ingest-at-scale sweep (fixed file size, so
#: server queue delay grows linearly with the count).
FULL_COUNTS = (1, 8, 64, 256, 1024)
QUICK_COUNTS = (1, 8, 64)

#: Per-client file size for the scale sweep: small enough that a
#: 1,024-client point stays tractable, large enough to keep the
#: server's queue saturated while the fleet drains.
SCALE_FILE_BYTES = 128 * KIB

#: Arrival-skew sweep: cache-pressure files, fixed start stagger.
SKEW_COUNTS = (2, 8, 32)
QUICK_SKEW_COUNTS = (2, 8)
SKEW_FILE_BYTES = 1 * MIB
SKEW_STAGGER_NS = ms(5)

#: Below this, client-side fairness has collapsed (equal clients would
#: each score 1/sqrt(n) of this at total starvation of one half).
JAIN_COLLAPSE = 0.5

#: Aggregate below this fraction of the server bound marks the
#: retransmit-waste regime; within [PIN_LO, PIN_HI] it is pinned.
COLLAPSE_FRACTION = 0.75
PIN_LO, PIN_HI = 0.8, 1.1


class Scale(Experiment):
    id = "scale"
    title = "Fleet scale: ingest collapse and fairness collapse at 1,024 clients"
    paper_ref = "§3.2/§3.5 extrapolated"

    def _run(self, comparison: Comparison, data, scale: float, quick: bool) -> str:
        counts = QUICK_COUNTS if quick else FULL_COUNTS
        skew_counts = QUICK_SKEW_COUNTS if quick else SKEW_COUNTS
        targets = sorted(TARGET_BOUNDS)

        specs = [
            FleetJobSpec.homogeneous(
                count, target=target, file_bytes=SCALE_FILE_BYTES
            )
            for target in targets
            for count in counts
        ] + [
            FleetJobSpec.homogeneous(
                count,
                target="netapp",
                file_bytes=SKEW_FILE_BYTES,
                stagger_ns=SKEW_STAGGER_NS,
            )
            for count in skew_counts
        ]
        results = self.context.executor().map(specs)

        data["counts"] = list(counts)
        rows: List[tuple] = []
        spreads = {}
        knees = {}
        for t, target in enumerate(targets):
            points = results[t * len(counts) : (t + 1) * len(counts)]
            aggregate = [p.aggregate_mbps for p in points]
            fairness = [p.fairness for p in points]
            spread = []
            for p in points:
                shares = sorted(p.servers[0]["ingest_shares"].values())
                spread.append(shares[-1] / shares[0] if shares[0] else 1.0)
            spreads[target] = spread
            # Latency-vs-clients: the fleet's completion latency bends
            # where the server's ingest queue starts charging each new
            # client the full serial drain time (and again, harder,
            # where retransmit waste sets in at the full-scale counts).
            completion_ms = [p.span_ns / 1e6 for p in points]
            knee = knee_point(list(counts), completion_ms)
            knees[target] = counts[knee] if knee is not None else None
            data[f"{target}_aggregate_mbps"] = aggregate
            data[f"{target}_jain"] = fairness
            data[f"{target}_share_spread"] = spread
            data[f"{target}_completion_ms"] = completion_ms
            for count, agg, jain, spr in zip(counts, aggregate, fairness, spread):
                rows.append((target, count, agg, jain, spr))

            bound = TARGET_BOUNDS[target]
            pinned = [
                count
                for count, agg in zip(counts, aggregate)
                if count <= 256 and not (PIN_LO * bound <= agg <= PIN_HI * bound)
            ]
            comparison.add(
                f"aggregate pinned to the server bound through 256 clients ({target})",
                not pinned,
                paper=f"~{bound:.0f} MBps bound independent of client count",
                measured=f"off-bound counts: {pinned or 'none'}",
            )
            comparison.add(
                f"client-side Jain is blind to server overload ({target})",
                min(fairness) >= 0.95,
                paper="writes absorb into each client's own page cache",
                measured=f"Jain min {min(fairness):.4f} across the sweep",
            )
            if not quick:
                collapsed = [
                    count
                    for count, agg in zip(counts, aggregate)
                    if agg < COLLAPSE_FRACTION * bound
                ]
                comparison.add(
                    f"retransmit waste collapses aggregate at scale ({target})",
                    bool(collapsed) and min(collapsed) > 256,
                    paper="queue delay crosses timeo; duplicates burn ingest",
                    measured=f"first collapsed count: "
                    f"{min(collapsed) if collapsed else 'none'} "
                    f"({aggregate[-1]:.1f} MBps at {counts[-1]})",
                )
        if not quick:
            comparison.add(
                "knfsd ingest fairness diverges further than the filer's",
                spreads["linux"][-1] > spreads["netapp"][-1] > 1.0,
                paper="NVRAM absorbs commits; the lone disk serialises them",
                measured=f"share spread at {counts[-1]} clients: knfsd "
                f"{spreads['linux'][-1]:.3f}x vs filer "
                f"{spreads['netapp'][-1]:.3f}x",
            )

        data["knee_clients"] = knees
        comparison.add(
            "latency-vs-clients knee detected on every completion curve",
            all(k is not None for k in knees.values()),
            paper="latency bends where the server's ingest saturates",
            measured=", ".join(
                f"{t} at {knees[t]}" for t in sorted(knees)
            ),
        )

        skew_points = results[len(targets) * len(counts) :]
        skew_jain = [p.fairness for p in skew_points]
        data["skew_counts"] = list(skew_counts)
        data["skew_jain"] = skew_jain
        data["skew_aggregate_mbps"] = [p.aggregate_mbps for p in skew_points]
        for count, p in zip(skew_counts, skew_points):
            rows.append(("netapp+skew", count, p.aggregate_mbps, p.fairness, 1.0))

        comparison.add(
            "arrival skew sends Jain's index into collapse, deeper with size",
            all(a > b for a, b in zip(skew_jain, skew_jain[1:])),
            paper="late arrivals inherit the whole fleet's backlog",
            measured=" -> ".join(f"{j:.3f}" for j in skew_jain),
        )
        collapsed_at = [c for c, j in zip(skew_counts, skew_jain) if j < JAIN_COLLAPSE]
        comparison.add(
            f"fairness collapse located (Jain < {JAIN_COLLAPSE})",
            bool(collapsed_at),
            paper="FIFO is instantaneously fair, not lifetime fair",
            measured=f"first collapsed fleet size: "
            f"{min(collapsed_at) if collapsed_at else 'none'}",
        )
        comparison.add(
            "the server bound is indifferent to the fairness collapse",
            all(
                0.8 * TARGET_BOUNDS["netapp"]
                <= p.aggregate_mbps
                <= 1.1 * TARGET_BOUNDS["netapp"]
                for p in skew_points
            ),
            paper="aggregate pins to ingest rate regardless of who gets it",
            measured=f"aggregate {min(p.aggregate_mbps for p in skew_points):.1f}"
            f"-{max(p.aggregate_mbps for p in skew_points):.1f} MBps",
        )

        table = format_table(
            ["sweep", "clients", "aggregate MBps", "Jain", "share spread"],
            rows,
            precision=4,
        )
        return (
            f"Scale sweep: {SCALE_FILE_BYTES // KIB} KiB per client, "
            "synchronized starts.  Skew sweep: "
            f"{SKEW_FILE_BYTES // KIB} KiB per client, "
            f"{SKEW_STAGGER_NS // 1_000_000} ms start stagger.\n" + table
        )
