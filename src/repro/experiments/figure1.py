"""Figure 1: Local vs NFS write throughput, stock 2.4.4 client.

Paper: test files 25-450 MB on a 256 MB client.  Local ext2 shows a
large memory-write peak that NFS files never reach — "NFS memory write
throughput remains constrained to network/server throughput".
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis import Comparison, mean, stddev
from ..topology import ClientSpec, FleetJobSpec, ServerSpec
from ..units import MB
from .base import ExecutionContext, Experiment, format_table, scaled_configs

__all__ = ["Figure1"]

#: Paper file sizes (MB), scaled down by the run's scale factor.
PAPER_SIZES_MB = list(range(25, 451, 25))

#: The three systems under test of Figs. 1 and 7.
SWEEP_TARGETS = ("local", "netapp", "linux")


def sweep_sizes(scale: float, quick: bool):
    sizes = PAPER_SIZES_MB[:: 3 if quick else 2]
    if quick:
        sizes = sizes[:5]
    return [max(2, round(s / scale)) for s in sizes]


def sweep_specs(client_variant: str, scale: float, quick: bool):
    """The (target x size) grid of one Fig. 1/7-style sweep: one-client
    fleet points."""
    hw, filer = scaled_configs(scale)
    sizes_mb = sweep_sizes(scale, quick)
    specs = [
        FleetJobSpec(
            clients=(ClientSpec(client=client_variant, hw=hw),),
            # The scaled filer config only applies to the netapp target.
            servers=(ServerSpec(target, filer if target == "netapp" else None),),
            file_bytes=size_mb * MB,
        )
        for target in SWEEP_TARGETS
        for size_mb in sizes_mb
    ]
    return sizes_mb, specs


def run_sweep(
    client_variant: str,
    scale: float,
    quick: bool,
    context: Optional[ExecutionContext] = None,
) -> Dict[str, list]:
    """One Fig. 1/7-style sweep.  Returns per-target MBps curves.

    Points run through the ``context``'s :class:`SweepExecutor` —
    serial, pooled, or cache-served, all numerically identical.
    """
    sizes_mb, specs = sweep_specs(client_variant, scale, quick)
    results = (context or ExecutionContext()).executor().map(specs)
    curves: Dict[str, list] = {"sizes_mb": sizes_mb}
    for t, target in enumerate(SWEEP_TARGETS):
        offset = t * len(sizes_mb)
        curves[target] = [
            r.client_mbps()[0] for r in results[offset : offset + len(sizes_mb)]
        ]
    return curves


class Figure1(Experiment):
    id = "fig1"
    title = "Local vs NFS write throughput (stock client)"
    paper_ref = "Figure 1, §3.2"

    def _run(self, comparison: Comparison, data, scale: float, quick: bool) -> str:
        curves = run_sweep("stock", scale, quick, context=self.context)
        data.update(curves)
        hw, _ = scaled_configs(scale)
        dirty_limit_mb = hw.dirty_limit_bytes / 1e6

        local, netapp, linux = curves["local"], curves["netapp"], curves["linux"]
        sizes = curves["sizes_mb"]
        local_peak = max(local)
        nfs_peak = max(max(netapp), max(linux))

        comparison.add(
            "local memory-write peak dwarfs NFS",
            local_peak >= 3 * nfs_peak,
            paper="~190 vs ~28 MBps (6.8x)",
            measured=f"{local_peak:.0f} vs {nfs_peak:.0f} MBps "
            f"({local_peak / nfs_peak:.1f}x)",
        )
        for name, curve, paper_rate in (("netapp", netapp, 38.0), ("linux", linux, 26.0)):
            # Skip the smallest file: it finishes before the flush/commit
            # pipeline reaches steady state (a warm-up transient).
            steady = curve[1:] if len(curve) > 2 else curve
            flatness = stddev(steady) / mean(steady) if mean(steady) else 1.0
            comparison.add(
                f"NFS curve flat across file sizes ({name})",
                flatness < 0.25,
                paper="no memory peak for NFS files",
                measured=f"cv={flatness:.2f} over {sizes[1]}-{sizes[-1]} MB",
            )
            comparison.add(
                f"NFS throughput pinned to server speed ({name})",
                0.4 * paper_rate <= mean(curve) <= 1.4 * paper_rate,
                paper=f"~{paper_rate:.0f} MBps network throughput",
                measured=f"{mean(curve):.1f} MBps mean",
            )
        big = [t for s, t in zip(sizes, local) if s * 1.0 > dirty_limit_mb * 1.3]
        if big:
            comparison.add(
                "local throughput collapses past client memory",
                min(big) < 0.4 * local_peak,
                paper="local curve falls off beyond RAM",
                measured=f"{min(big):.0f} vs peak {local_peak:.0f} MBps",
            )

        rows = list(zip(sizes, local, netapp, linux))
        table = format_table(["size MB", "local ext2", "netapp", "linux nfsd"], rows)
        return (
            f"Client memory scaled 1/{scale:g} (dirty limit "
            f"{dirty_limit_mb:.0f} MB); sizes scaled to match.\n" + table
        )
