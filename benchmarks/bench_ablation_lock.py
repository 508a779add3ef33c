"""Ablation: send-path locking x CPU count.

§3.5 expects the BKL cost to be an SMP phenomenon: on one CPU the writer
and the daemons time-share anyway, so releasing the lock around
sock_sendmsg buys much less than on two CPUs.
"""

from repro.bench import TestBed
from repro.config import ClientHwConfig, NfsClientConfig
from repro.units import MB

FILE_MB = 10

HASH = NfsClientConfig(eager_flush_limits=False, hashtable_index=True)
NOLOCK = HASH.replace(release_bkl_for_send=True)


def run_matrix():
    out = {}
    for ncpus in (1, 2):
        hw = ClientHwConfig(ncpus=ncpus)
        for label, cfg in (("bkl", HASH), ("nolock", NOLOCK)):
            bed = TestBed(target="netapp", client=cfg, hw=hw)
            result = bed.run_sequential_write(FILE_MB * MB)
            out[(ncpus, label)] = result.write_mbps
    return out


def test_ablation_lock_smp(benchmark, capsys):
    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nlock ablation, memory write MBps (10 MB file vs filer):")
        for (ncpus, label), mbps in sorted(matrix.items()):
            print(f"  {ncpus} cpu {label:7s} {mbps:6.1f}")
    # The fix helps on SMP...
    smp_gain = matrix[(2, "nolock")] / matrix[(2, "bkl")]
    assert smp_gain > 1.1
    # ...more than it helps on a uniprocessor.
    up_gain = matrix[(1, "nolock")] / matrix[(1, "bkl")]
    assert smp_gain > up_gain
    # And 2 CPUs beat 1 once the lock is out of the way.
    assert matrix[(2, "nolock")] > matrix[(1, "nolock")]
