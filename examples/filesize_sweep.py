#!/usr/bin/env python3
"""File-size sweep: the Figure 1 / Figure 7 curves as ASCII plots.

Sweeps file sizes across the client's memory boundary for local ext2,
the filer and the Linux NFS server, with the stock and the enhanced
client, and plots write-phase throughput.  Shows the paper's headline
picture: the enhanced client writes NFS files at memory speed until RAM
runs out, and the filer's NVRAM stretches that plateau further.

Run:  python examples/filesize_sweep.py [scale]   (default memory scale 8)
"""

import sys

from repro import TestBed
from repro.experiments import scaled_configs
from repro.topology import ServerSpec
from repro.units import MB


def sweep(client, sizes_mb, hw, filer_cfg):
    curves = {}
    for target in ("local", "netapp", "linux"):
        row = []
        for size in sizes_mb:
            # The scaled filer config only applies to the netapp target.
            server = ServerSpec(target, filer_cfg if target == "netapp" else None)
            bed = TestBed(client=client, hw=hw, server=server)
            row.append(bed.run_sequential_write(size * MB).write_mbps)
        curves[target] = row
    return curves


def plot(curves, sizes_mb, height=10):
    peak = max(max(row) for row in curves.values())
    symbols = {"local": "L", "netapp": "F", "linux": "N"}
    lines = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        cells = []
        for i in range(len(sizes_mb)):
            cell = " "
            for target, symbol in symbols.items():
                if curves[target][i] >= threshold:
                    cell = symbol if cell == " " else "*"
            cells.append(cell)
        lines.append(f"{peak * level / height:7.0f} |" + " ".join(cells))
    lines.append(" " * 8 + "+" + "-" * (2 * len(sizes_mb)))
    lines.append(" " * 9 + " ".join(f"{s:<2d}"[0] for s in sizes_mb))
    lines.append("MBps vs file size (MB); L=local ext2, F=filer, N=linux nfsd, *=overlap")
    return "\n".join(lines)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 8.0
    hw, filer_cfg = scaled_configs(scale)
    limit_mb = hw.dirty_limit_bytes / 1e6
    sizes_mb = sorted(
        {max(2, round(limit_mb * f)) for f in (0.2, 0.5, 0.8, 1.1, 1.4, 1.8, 2.4)}
    )
    print(f"client RAM scaled 1/{scale:g}: dirty limit {limit_mb:.0f} MB, "
          f"filer NVRAM {filer_cfg.nvram_bytes / 1e6:.0f} MB")
    for client, figure in (("stock", "Figure 1"), ("enhanced", "Figure 7")):
        print(f"\n=== {figure}: {client} client")
        curves = sweep(client, sizes_mb, hw, filer_cfg)
        print(plot(curves, sizes_mb))
        for target in ("local", "netapp", "linux"):
            row = " ".join(f"{v:6.1f}" for v in curves[target])
            print(f"  {target:7s} {row}")


if __name__ == "__main__":
    main()
