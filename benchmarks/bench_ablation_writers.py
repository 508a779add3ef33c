"""Ablation: concurrent writer scaling on the SMP client.

§3.5: "During a test with a single application writer thread contending
with a single flusher thread, we find less than ideal scaling. ... We
suspect that faster servers will exhibit even worse performance on SMP
Linux clients until this issue is properly addressed."  Multiple writer
processes sharing one client quantify that: aggregate memory-write
throughput must rise sub-linearly, and the stock lock must hurt more as
writers are added.
"""

from repro.bench import TestBed
from repro.bench.workloads import sequential_writers
from repro.config import NfsClientConfig
from repro.units import MB

BYTES_EACH = 4 * MB
HASH = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)
NOLOCK = HASH.replace(release_bkl_for_send=True)


def run_scaling():
    out = {}
    for label, cfg in (("bkl", HASH), ("nolock", NOLOCK)):
        for nwriters in (1, 2, 4):
            bed = TestBed(target="netapp", client=cfg)
            # close=False: measure the memory-write phase, not the drain.
            result = sequential_writers(bed, nwriters, BYTES_EACH, close=False)
            out[(label, nwriters)] = result.total_mbps
    return out


def test_ablation_writer_scaling(benchmark, capsys):
    scaling = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nwriter scaling, aggregate memory-write MBps (filer):")
        for (label, n), mbps in sorted(scaling.items()):
            print(f"  {label:7s} x{n}  {mbps:7.1f}")
    for label in ("bkl", "nolock"):
        # More writers, more aggregate work absorbed...
        assert scaling[(label, 2)] > scaling[(label, 1)] * 0.9
        # ...but far from linear scaling.
        assert scaling[(label, 4)] < scaling[(label, 1)] * 3
    # The lock fix wins at every writer count.
    for n in (1, 2, 4):
        assert scaling[("nolock", n)] > scaling[("bkl", n)]
