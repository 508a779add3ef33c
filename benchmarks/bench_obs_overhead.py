"""Observability overhead: disabled must be free, enabled must be pure.

The disabled path costs one attribute load plus an ``if obs.enabled``
boolean per instrumentation point — this bench measures both modes on
the same workload and records the ratio in ``extra_info`` so future PRs
can see instrumentation creep as a number.

Correctness is asserted the way the simulator can prove it exactly:
the observed run's event count and full write()-latency series are
bit-identical to the unobserved run's (the pure-observer contract);
wall-clock overhead is reported, not gated, because CI machines jitter.
"""

import hashlib
import time

from repro.units import MIB

FILE_BYTES = 4 * MIB


def _run(observe: bool):
    from repro.bench.runner import TestBed

    bed = TestBed(target="linux", client="stock", observe=observe)
    result = bed.run_sequential_write(FILE_BYTES)
    series = ",".join(str(v) for v in result.trace.latencies_ns).encode()
    return bed, (
        bed.sim.events_processed,
        hashlib.sha256(series).hexdigest(),
        result.flush_elapsed_ns,
    )


def test_scoped_key_cache_reuses_interned_keys():
    """Fleet-scoped views must hit their cell cache, not rebuild keys."""
    import sys

    from repro.obs.core import Observability
    from repro.sim import Simulator

    obs = Observability(Simulator(), enabled=True)
    scoped = obs.scoped("client3")
    for _ in range(3):
        scoped.count("rpc/retransmits")
    ((key, metric),) = list(obs.metrics.items())
    assert key == "client3/rpc/retransmits"
    assert metric.value == 3
    # The registered key is the interned (single-copy) string, and the
    # view's cached cell IS the registry's own object.
    assert key is sys.intern("client3/rpc/retransmits")
    assert scoped._counters["rpc/retransmits"] is metric
    # A cache hit never goes back to the registry.
    obs.metrics.counter = None
    scoped.count("rpc/retransmits")
    assert metric.value == 4


def test_obs_overhead(benchmark, capsys):
    bed, fp_off = benchmark.pedantic(
        lambda: _run(observe=False), rounds=3, iterations=1
    )
    off_elapsed = benchmark.stats.stats.min

    on_elapsed = None
    for _ in range(3):
        started = time.perf_counter()
        bed_on, fp_on = _run(observe=True)
        elapsed = time.perf_counter() - started
        on_elapsed = elapsed if on_elapsed is None else min(on_elapsed, elapsed)

    # The pure-observer contract: identical event count, identical
    # latency series, identical simulated timings.
    assert fp_on == fp_off
    assert bed_on.obs.enabled and not bed.obs.enabled
    assert len(bed_on.obs.metrics) > 20

    # Key interning: every registered metric key must be the interned
    # (single-copy) string; observers cache their registered cells, so
    # per-call key building is gone from the instrument hot path.
    import sys

    for key, _metric in bed_on.obs.metrics.items():
        assert key is sys.intern(key), f"metric key {key!r} not interned"

    overhead = on_elapsed / off_elapsed
    benchmark.extra_info["events"] = fp_off[0]
    benchmark.extra_info["events_per_second"] = round(fp_off[0] / off_elapsed)
    benchmark.extra_info["observed_overhead_x"] = round(overhead, 3)
    with capsys.disabled():
        print(
            f"\nobs overhead: off {off_elapsed * 1e3:.0f} ms, "
            f"on {on_elapsed * 1e3:.0f} ms ({overhead:.2f}x), "
            f"fingerprints identical, {len(bed_on.obs.metrics)} interned keys"
        )
