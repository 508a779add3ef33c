"""Ablation: two mounts, two servers — the paper's future-work claim.

§3.5: "Removing the global kernel lock from the RPC layer will allow a
system with multiple network interfaces to process more than one RPC
request at a time and allow concurrent writes to separate files and to
separate servers from separate client CPUs."  Two writers stream to two
filers through two mounts that share the client's one kernel lock; the
lock-released client must get more aggregate memory-write throughput
out of its two CPUs than the stock one.
"""

from repro.bench import TestBed
from repro.bench.workloads import run_workload
from repro.config import FilerConfig, NfsClientConfig
from repro.nfsclient import NfsClient
from repro.server import NetappFiler
from repro.units import MB

BYTES_EACH = 4 * MB
HASH = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)
NOLOCK = HASH.replace(release_bkl_for_send=True)


def run_two_servers(cfg):
    bed = TestBed(target="netapp", client=cfg)
    second_server = NetappFiler(
        bed.sim, bed.switch, bed.net, FilerConfig(name="netapp-f85-b")
    )
    second_mount = NfsClient(
        bed.client_host,
        bed.pagecache,
        server=second_server.name,
        behavior=cfg,
        client_port=701,
        bkl=bed.nfs.bkl,
    )
    start = bed.sim.now

    def writer(client, name):
        file = yield from client.open_new(name)
        remaining = BYTES_EACH
        while remaining > 0:
            chunk = min(8192, remaining)
            yield from bed.syscalls.write(file, chunk)
            remaining -= chunk

    run_workload(
        bed,
        [
            ("w1", writer(bed.nfs, "a")),
            ("w2", writer(second_mount, "b")),
        ],
    )
    elapsed = bed.sim.now - start
    return 2 * BYTES_EACH / (elapsed / 1e9) / 1e6


def test_ablation_two_servers(benchmark, capsys):
    def body():
        return {"bkl": run_two_servers(HASH), "nolock": run_two_servers(NOLOCK)}

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    with capsys.disabled():
        print("\ntwo mounts / two filers, aggregate memory-write MBps:")
        for label, mbps in result.items():
            print(f"  {label:7s} {mbps:7.1f}")
    assert result["nolock"] > result["bkl"] * 1.05
