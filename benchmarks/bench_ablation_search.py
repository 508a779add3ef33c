"""Ablation: §3.4's suggested further improvement — one index search.

"A slight additional improvement here might occur if the search for
incompatible requests was combined with the second search for a
matching request (in nfs_updatepage)."  The `single_search` knob does
exactly that; the gain should be small but real for the list index.
"""

from repro.bench import TestBed
from repro.config import NfsClientConfig
from repro.units import MB, to_us

FILE_MB = 30
LIST_CLIENT = NfsClientConfig(eager_flush_limits=False, hashtable_index=False)


def run_pair():
    out = {}
    for label, single in (("double", False), ("single", True)):
        bed = TestBed(
            target="netapp", client=LIST_CLIENT.replace(single_search=single)
        )
        result = bed.run_sequential_write(FILE_MB * MB)
        out[label] = {
            "mean_us": to_us(result.trace.mean_ns(skip_first=1)),
            "write_mbps": result.write_mbps,
            "searches": bed.nfs.index.searches,
        }
    return out


def test_ablation_single_search(benchmark, capsys):
    pair = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nsingle-search ablation (30 MB vs filer, list index):")
        for label, row in pair.items():
            print(
                f"  {label:6s} mean {row['mean_us']:7.1f} us  "
                f"write {row['write_mbps']:6.1f} MBps  "
                f"index searches {row['searches']}"
            )
    assert pair["single"]["searches"] < pair["double"]["searches"]
    # "A slight additional improvement": faster, but not transformative.
    assert pair["single"]["mean_us"] < pair["double"]["mean_us"]
    assert pair["single"]["mean_us"] > 0.5 * pair["double"]["mean_us"]
