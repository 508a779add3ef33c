"""Deterministic metrics registry: counters, gauges, histograms.

Metrics are keyed ``component/name`` (optionally with a trailing label
segment, e.g. ``rpc/retransmits/WRITE``).  All state is plain integer
arithmetic updated inline by the instrumented code — no events, no
clocks, no randomness — so an instrumented run stays bit-for-bit
identical to an uninstrumented one.

Histograms use fixed bucket bounds chosen at creation: recording is a
short linear scan, and exports are reproducible because the bounds
never adapt to the data.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Generic power-of-two bounds; good for counts (pages, queue depths).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("key", "value")
    kind = "counter"

    def __init__(self, key: str):
        self.key = key
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value; remembers its maximum for reports."""

    __slots__ = ("key", "value", "max_value")
    kind = "gauge"

    def __init__(self, key: str):
        self.key = key
        self.value = 0
        self.max_value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value


class Histogram:
    """Fixed-bucket histogram (cumulative export, prometheus-style)."""

    __slots__ = ("key", "bounds", "counts", "count", "total")
    kind = "histogram"

    def __init__(self, key: str, bounds: Tuple[Union[int, float], ...]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"{key}: histogram bounds must be sorted and non-empty")
        self.key = key
        self.bounds = tuple(bounds)
        #: One count per bound plus the overflow (+Inf) bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[Union[int, float, str], int]]:
        """``(le, cumulative_count)`` rows, ending with ``+Inf``."""
        rows: List[Tuple[Union[int, float, str], int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            rows.append((bound, running))
        rows.append(("+Inf", self.count))
        return rows


class MetricsRegistry:
    """Get-or-create store of metrics, keyed ``component/name``."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, key: str, cls, *args):
        metric = self._metrics.get(key)
        if metric is None:
            # Intern on first registration: instrument keys are a small
            # fixed vocabulary hit millions of times, so interned keys
            # dedupe storage and make later dict probes pointer-fast.
            key = sys.intern(key)
            metric = cls(key, *args)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, key: str) -> Counter:
        return self._get(key, Counter)

    def gauge(self, key: str) -> Gauge:
        return self._get(key, Gauge)

    def histogram(
        self, key: str, bounds: Optional[Tuple[Union[int, float], ...]] = None
    ) -> Histogram:
        return self._get(key, Histogram, bounds or DEFAULT_BUCKETS)

    def get(self, key: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        return self._metrics.get(key)

    def items(self) -> Iterable[Tuple[str, Union[Counter, Gauge, Histogram]]]:
        """Metrics in deterministic (sorted-key) order."""
        return sorted(self._metrics.items())

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """Flat ``{key: scalar}`` view for tests and quick summaries."""
        out: Dict[str, Union[int, float]] = {}
        for key, metric in self.items():
            if metric.kind == "histogram":
                out[f"{key}_count"] = metric.count
                out[f"{key}_sum"] = metric.total
            else:
                out[key] = metric.value
        return out

    def __len__(self) -> int:
        return len(self._metrics)
