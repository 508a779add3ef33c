"""One measured run of one workload, in a fresh process.

Usage (``src/`` must be on ``PYTHONPATH``; ``run.py`` arranges this)::

    python3 perfbench/worker.py --workload fleet-32 --input-seed 0 \\
        --size full --trace 0

Times set-up (importing ``repro`` and building the topology) and the
run (first simulated event to the workload's result) on the host
clock, samples the host's speed during the run with
:class:`SpeedSampler`, reads the process's peak resident memory, and
prints one JSON record with the simulated outputs.  With ``--trace 1``
the run is profiled instead of sampled, and the record adds per-layer
totals and entry-point counts.  ``--setup-only`` stops after set-up
and prints ``setup_s`` with three samples' ``ref_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from typing import List

from workloads import SIZES, WORKLOADS

#: Objects in the sampler's table, about 10 MB: past the per-core
#: caches, as the simulator's own 35-100 MB working set is.
SAMPLE_TABLE = 100_000
#: Random read-modify-writes per sample, 8-16 ms on the Xeon this was
#: written on.
SAMPLE_ACCESSES = 20_000
#: Seconds between samples, so sampling costs 2-3% of a run.
SAMPLE_PERIOD_S = 0.5

MIB = 1 << 20


class _Slot:
    __slots__ = ("seq",)

    def __init__(self, seq: int):
        self.seq = seq


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class SpeedSampler:
    """Times a fixed memory-bound loop from a ``SIGALRM`` handler.

    The loop makes pseudo-random reads and writes of slotted objects in
    a table larger than the per-core caches.  It uses nothing from
    ``repro``, so no change to the simulator moves it; only the host's
    speed does.  The samples see the host at the same moments as the
    run they interrupt, so dividing the run's host time by their median
    cancels the swings in speed of a shared host.  Those swings last
    seconds to minutes and come from other tenants' memory traffic: a
    loop that stays in cache tracks them poorly.  The handler's own
    time is kept in ``spent`` and taken off the run's time, and the
    table's memory in ``footprint_mb`` off its peak.
    """

    def __init__(self):
        before = _rss_bytes()
        self._table = [_Slot(i) for i in range(SAMPLE_TABLE)]
        self.footprint_mb = (_rss_bytes() - before) / MIB
        self._state = 1
        self.samples: List[float] = []
        self.spent = 0.0

    def reference_s(self) -> float:
        """Host seconds for ``SAMPLE_ACCESSES`` accesses to the table."""
        table, size, state = self._table, SAMPLE_TABLE, self._state
        started = time.perf_counter()
        for _ in range(SAMPLE_ACCESSES):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            table[state % size].seq += 1
        self._state = state
        return time.perf_counter() - started

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        self.samples.append(self.reference_s())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(self.reference_s())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input-seed", type=int, default=0)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time the set-up, print it and stop before the run",
    )
    args = parser.parse_args(argv)

    build, _seeded = WORKLOADS[args.workload]
    params = SIZES[args.size][args.workload]
    counter = profile = None
    started = time.perf_counter()
    if args.trace:
        import cProfile

        from layers import EntryCounter

        counter = EntryCounter()
        counter.install()
        profile = cProfile.Profile()
    run, outputs = build(params, args.input_seed)
    built = time.perf_counter()
    if args.setup_only:
        import repro

        sampler = SpeedSampler()
        print(json.dumps({
            "setup_s": built - started,
            "ref_s": statistics.median(sampler.reference_s() for _ in range(3)),
            "repro_dir": os.path.dirname(os.path.abspath(repro.__file__)),
        }))
        return 0
    sampler = None
    if profile is not None:
        # Profiled runs are not sampled: the samples' calls would land
        # in the profile and their number varies from run to run.
        begun = time.perf_counter()
        profile.enable()
        result = run()
        profile.disable()
        wall_s = time.perf_counter() - begun
    else:
        with SpeedSampler() as sampler:
            begun = time.perf_counter()
            result = run()
            wall_s = time.perf_counter() - begun - sampler.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import repro
    from repro.cache import code_version_token

    record = {
        "setup_s": built - started,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs(result),
        "repro_dir": os.path.dirname(os.path.abspath(repro.__file__)),
        "code_version": code_version_token(),
        "python": sys.version.split()[0],
    }
    if sampler is not None:
        record["ref_s"] = statistics.median(sampler.samples)
        record["peak_rss_mb"] -= sampler.footprint_mb
    else:
        from layers import layer_totals

        record["layers"] = layer_totals(profile, record["repro_dir"] + os.sep)
        record["entries"] = counter.counts
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
