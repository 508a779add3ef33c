"""Ablation: RPC slot-table size and the slow-server paradox.

The transport's bounded window is what turns a fast server into writer
overhead (inline sends + rpciod lock traffic).  Sweeping the slot count
shows the mechanism: more slots = more concurrent wire work per unit
time = more contention with the writer under the stock lock.
"""

from repro.bench import TestBed
from repro.config import NfsClientConfig
from repro.units import MB

FILE_MB = 10
BASE = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)


def run_sweep():
    out = {}
    for slots in (2, 8, 16, 32):
        bed = TestBed(target="netapp", client=BASE.replace(rpc_slots=slots))
        result = bed.run_sequential_write(FILE_MB * MB)
        out[slots] = {
            "write_mbps": result.write_mbps,
            "flush_mbps": result.flush_mbps,
            "bkl_wait_ms": bed.nfs.bkl.stats.total_wait_ns / 1e6,
        }
    return out


def test_ablation_transport_window(benchmark, capsys):
    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nslot-table sweep (10 MB vs filer, stock lock):")
        for slots, row in sorted(sweep.items()):
            print(
                f"  slots={slots:2d} write {row['write_mbps']:6.1f} MBps  "
                f"flush {row['flush_mbps']:5.1f} MBps  "
                f"bkl wait {row['bkl_wait_ms']:6.1f} ms"
            )
    # A tiny window strangles the wire (flush throughput suffers)...
    assert sweep[2]["flush_mbps"] < sweep[16]["flush_mbps"]
    # ...while end-to-end (flush) throughput saturates by 16 slots.
    assert sweep[32]["flush_mbps"] <= sweep[16]["flush_mbps"] * 1.1
