"""Parallel sweep execution.

Every sweep point (client variant x target x file size x configs) is a
fully independent simulated world, which makes the paper's 25-450 MB
sweeps embarrassingly parallel.  A point is a
:class:`~repro.topology.fleet.FleetJobSpec` (a Fig. 1/7 point is a
one-client fleet); :func:`~repro.topology.fleet.run_fleet_job`
materialises it, runs it, and reduces the outcome to a
:class:`~repro.topology.fleet.FleetPointResult` that survives both
pickling (process pools) and JSON (the result cache).

:class:`SweepExecutor` fans specs out over a
:class:`concurrent.futures.ProcessPoolExecutor`; with ``jobs=1`` it runs
them in-process, in order, with no pool at all — the two modes are
bit-identical because each job owns a pristine simulator.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

from ..cache import ResultCache
from ..errors import ConfigError
from ..topology.fleet import FleetJobSpec, FleetPointResult, run_fleet_job

__all__ = ["SweepExecutor", "default_jobs"]


def default_jobs() -> int:
    """A sensible worker count: all cores, at least one."""
    return max(1, os.cpu_count() or 1)


class SweepExecutor:
    """Runs a batch of :class:`~repro.topology.fleet.FleetJobSpec`
    points, optionally cached.

    Results come back in spec order regardless of completion order, so
    ``jobs=1``, ``jobs=N`` and a warm cache all produce identical
    sweeps.  Cache lookups happen before any job is dispatched; only the
    misses reach the pool, and their results are stored on the way out.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache

    def map(self, specs: Iterable[FleetJobSpec]) -> List[FleetPointResult]:
        """Execute every spec; returns results in the given order."""
        spec_list: List[FleetJobSpec] = list(specs)
        results: List[Optional[FleetPointResult]] = [None] * len(spec_list)
        misses: List[int] = []
        keys: Dict[int, str] = {}

        if self.cache is not None:
            for i, spec in enumerate(spec_list):
                keys[i] = spec.fingerprint()
                payload = self.cache.get(keys[i])
                if payload is not None:
                    results[i] = FleetPointResult.from_payload(payload)
                else:
                    misses.append(i)
        else:
            misses = list(range(len(spec_list)))

        for i, outcome in zip(misses, self._execute([spec_list[i] for i in misses])):
            results[i] = outcome
            if self.cache is not None:
                self.cache.put(keys[i], outcome.to_payload())

        return results  # type: ignore[return-value]  # every slot is filled

    def _execute(self, specs: Sequence[FleetJobSpec]) -> List[FleetPointResult]:
        if self.jobs == 1 or len(specs) <= 1:
            return [run_fleet_job(spec) for spec in specs]
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_fleet_job, specs))
