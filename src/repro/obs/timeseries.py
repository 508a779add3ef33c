"""Windowed time-series telemetry: log-linear histograms + timelines.

Whole-run aggregates (:mod:`repro.obs.metrics`) answer *how much*; the
paper's §3 diagnosis needs *when*.  This module adds the time axis with
bounded memory and without perturbing the simulation:

* :class:`LogLinearHistogram` — an HDR-style fixed-bucket histogram.
  Values map to buckets by a pure function of the value (a linear range
  of ``2**subbucket_bits`` buckets, then ``2**subbucket_bits``
  sub-buckets per power of two), so the relative error is bounded by
  ``2**-subbucket_bits`` (~3% at the default of 5 bits) and two
  histograms with the same scheme merge by plain bucket addition —
  across windows and across fleet clients.
* :class:`WindowedCounter` / :class:`WindowedGauge` /
  :class:`WindowedHistogram` — per-layer timelines keyed by the window
  index ``sim_now // window_ns`` (simulated time only: no wall clocks,
  no RNG), retaining at most ``retention`` windows by evicting the
  oldest.
* :class:`TimelineRegistry` — a get-or-create store with a versioned,
  JSON-serialisable :meth:`~TimelineRegistry.snapshot` (schema
  ``repro-nfs/timeline@1``) and a deterministic
  :meth:`~TimelineRegistry.merge_snapshot`, through which
  :meth:`~TimelineRegistry.from_snapshot` rebuilds a saved
  ``timeline.json`` bit-identically.

Everything here is integer/dict arithmetic updated inline by the
instrumented code — recording never schedules events, draws randomness,
or touches component state, preserving the pure-observer contract.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.stats import percentile_of_sorted
from ..errors import ConfigError

__all__ = [
    "LogLinearHistogram",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "TimelineRegistry",
    "TIMELINE_SCHEMA",
    "DEFAULT_WINDOW_NS",
    "DEFAULT_RETENTION",
    "DEFAULT_SUBBUCKET_BITS",
    "DEFAULT_MAX_VALUE",
]

#: Version tag carried by timeline snapshots; bump when the format changes.
TIMELINE_SCHEMA = "repro-nfs/timeline@1"

#: Default timeline window width: 10 simulated milliseconds.
DEFAULT_WINDOW_NS = 10_000_000

#: Default per-series window retention (ring semantics: oldest evicted).
DEFAULT_RETENTION = 4096

#: 32 sub-buckets per power of two => <= ~3.1% relative bucket error.
DEFAULT_SUBBUCKET_BITS = 5

#: Default value ceiling (2**40 ~ 18 simulated minutes in ns).
DEFAULT_MAX_VALUE = 1 << 40


class _BucketView:
    """A sorted-sequence facade over a histogram's samples.

    Exposes ``len``/``__getitem__`` so the *same* percentile
    implementation (:func:`repro.analysis.stats.percentile_of_sorted`)
    serves raw latency traces and bucketed histograms: index ``i``
    resolves (via bisect over the cumulative counts) to the
    representative value of the bucket holding the ``i``-th smallest
    sample.
    """

    __slots__ = ("_reps", "_cumulative", "_total")

    def __init__(self, reps: List[int], cumulative: List[int]):
        self._reps = reps
        self._cumulative = cumulative
        self._total = cumulative[-1] if cumulative else 0

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._total
        if not 0 <= i < self._total:
            raise IndexError(i)
        return self._reps[bisect_left(self._cumulative, i + 1)]


class LogLinearHistogram:
    """HDR-style histogram: fixed scheme, sparse counts, mergeable."""

    __slots__ = ("subbucket_bits", "max_value", "buckets", "count", "total")

    def __init__(
        self,
        subbucket_bits: int = DEFAULT_SUBBUCKET_BITS,
        max_value: int = DEFAULT_MAX_VALUE,
    ):
        if subbucket_bits < 1:
            raise ConfigError("log-linear histogram needs >= 1 subbucket bit")
        if max_value < (1 << subbucket_bits):
            raise ConfigError("log-linear max_value below the linear range")
        self.subbucket_bits = subbucket_bits
        self.max_value = max_value
        #: Sparse ``{bucket index: count}``; indices are a pure function
        #: of the recorded value, so equal-scheme histograms add.
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    # -- the bucket scheme --------------------------------------------------

    def bucket_index(self, value: int) -> int:
        """Bucket index for ``value`` (clamped to [0, max_value])."""
        value = int(value)
        if value < 0:
            value = 0
        elif value > self.max_value:
            value = self.max_value
        bits = self.subbucket_bits
        if value < (1 << bits):
            return value
        exp = value.bit_length() - 1 - bits
        return ((exp + 1) << bits) + ((value >> exp) - (1 << bits))

    def bucket_lower(self, index: int) -> int:
        """Inclusive lower bound of bucket ``index``."""
        bits = self.subbucket_bits
        sub = 1 << bits
        if index < sub:
            return index
        octave, pos = divmod(index, sub)
        return (sub + pos) << (octave - 1)

    def bucket_representative(self, index: int) -> int:
        """Deterministic representative: the bucket's integer midpoint."""
        lo = self.bucket_lower(index)
        hi = self.bucket_lower(index + 1)
        return (lo + hi - 1) // 2

    # -- recording / merging ------------------------------------------------

    def record_log_linear(self, value: int, n: int = 1) -> None:
        """Add ``n`` samples of ``value``."""
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += n
        self.total += int(value) * n

    def merge_log_linear(self, other: "LogLinearHistogram") -> None:
        """Fold ``other`` in; schemes must match exactly."""
        if (
            other.subbucket_bits != self.subbucket_bits
            or other.max_value != self.max_value
        ):
            raise ConfigError("cannot merge histograms with different schemes")
        for index, n in sorted(other.buckets.items()):
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total

    # -- statistics ---------------------------------------------------------

    def _view(self) -> _BucketView:
        reps: List[int] = []
        cumulative: List[int] = []
        running = 0
        for index in sorted(self.buckets):
            running += self.buckets[index]
            reps.append(self.bucket_representative(index))
            cumulative.append(running)
        return _BucketView(reps, cumulative)

    def percentile(self, p: float, method: str = "nearest-rank") -> int:
        """Percentile over bucket representatives — same interpolation
        core as the raw latency traces."""
        return percentile_of_sorted(self._view(), p, method=method)

    def percentiles(
        self, pcts: Tuple[float, ...] = (50, 99, 99.9)
    ) -> Dict[float, int]:
        view = self._view()
        return {
            p: percentile_of_sorted(view, p, method="nearest-rank")
            for p in pcts
        }

    def count_le(self, threshold: Union[int, float]) -> int:
        """Samples in buckets whose representative is <= ``threshold``."""
        good = 0
        for index, n in self.buckets.items():
            if self.bucket_representative(index) <= threshold:
                good += n
        return good

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- snapshots ----------------------------------------------------------

    def snapshot_log_linear(self) -> Dict[str, Any]:
        return {
            "subbucket_bits": self.subbucket_bits,
            "max_value": self.max_value,
            "count": self.count,
            "total": self.total,
            "buckets": [[i, self.buckets[i]] for i in sorted(self.buckets)],
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "LogLinearHistogram":
        hist = LogLinearHistogram(
            subbucket_bits=snap["subbucket_bits"], max_value=snap["max_value"]
        )
        hist.count = snap["count"]
        hist.total = snap["total"]
        hist.buckets = {int(i): int(n) for i, n in snap["buckets"]}
        return hist


class _WindowedSeries:
    """Shared window bookkeeping: index mapping + ring retention."""

    __slots__ = ("key", "window_ns", "retention", "windows")

    def __init__(self, key: str, window_ns: int, retention: int):
        if window_ns <= 0:
            raise ConfigError("window_ns must be positive")
        if retention <= 0:
            raise ConfigError("retention must be positive")
        self.key = key
        self.window_ns = window_ns
        self.retention = retention
        self.windows: Dict[int, Any] = {}

    def window_index(self, now: int) -> int:
        return now // self.window_ns

    def evict_stale_windows(self) -> None:
        # Ring retention: evicting the *smallest* index is deterministic
        # regardless of insertion order (merges may arrive out of order).
        while len(self.windows) > self.retention:
            del self.windows[min(self.windows)]

    def items(self) -> List[Tuple[int, Any]]:
        """``(window index, cell)`` pairs in window order."""
        return sorted(self.windows.items())

    def __len__(self) -> int:
        return len(self.windows)


class WindowedCounter(_WindowedSeries):
    """Per-window event/byte counts (e.g. retransmits, ingest bytes)."""

    __slots__ = ()
    kind = "windowed_counter"

    def record_windowed_count(self, now: int, n: int = 1) -> None:
        wi = now // self.window_ns
        windows = self.windows
        if wi in windows:
            windows[wi] += n
        else:
            windows[wi] = n
            self.evict_stale_windows()

    def absorb_windowed_counter(self, rows: Iterable[Tuple[int, int]]) -> None:
        windows = self.windows
        for wi, n in rows:
            wi = int(wi)
            windows[wi] = windows.get(wi, 0) + n
        self.evict_stale_windows()

    def snapshot_windowed(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "windows": [[wi, n] for wi, n in self.items()],
        }


class WindowedGauge(_WindowedSeries):
    """Per-window level samples: last value + max (e.g. queue depth)."""

    __slots__ = ()
    kind = "windowed_gauge"

    def record_windowed_gauge(self, now: int, value: Union[int, float]) -> None:
        wi = now // self.window_ns
        windows = self.windows
        cell = windows.get(wi)
        if cell is None:
            windows[wi] = (value, value)
            self.evict_stale_windows()
        else:
            windows[wi] = (value, cell[1] if cell[1] > value else value)

    def absorb_windowed_gauge(
        self, rows: Iterable[Tuple[int, Union[int, float], Union[int, float]]]
    ) -> None:
        # Gauge keys are single-writer by construction (client- or
        # link-scoped), so overlap only happens if that contract is broken;
        # resolve it deterministically: incoming last wins, maxima join.
        windows = self.windows
        for wi, last, mx in rows:
            wi = int(wi)
            cell = windows.get(wi)
            if cell is None:
                windows[wi] = (last, mx)
            else:
                windows[wi] = (last, cell[1] if cell[1] > mx else mx)
        self.evict_stale_windows()

    def snapshot_windowed(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "windows": [[wi, cell[0], cell[1]] for wi, cell in self.items()],
        }


class WindowedHistogram(_WindowedSeries):
    """Per-window log-linear latency distributions."""

    __slots__ = ("subbucket_bits", "max_value")
    kind = "windowed_histogram"

    def __init__(
        self,
        key: str,
        window_ns: int,
        retention: int,
        subbucket_bits: int = DEFAULT_SUBBUCKET_BITS,
        max_value: int = DEFAULT_MAX_VALUE,
    ):
        super().__init__(key, window_ns, retention)
        self.subbucket_bits = subbucket_bits
        self.max_value = max_value

    def record_windowed_value(self, now: int, value: int) -> None:
        wi = now // self.window_ns
        hist = self.windows.get(wi)
        if hist is None:
            hist = LogLinearHistogram(self.subbucket_bits, self.max_value)
            self.windows[wi] = hist
            self.evict_stale_windows()
        hist.record_log_linear(value)

    def absorb_windowed_histogram(
        self, rows: Iterable[Tuple[int, Dict[str, Any]]]
    ) -> None:
        for wi, snap in rows:
            wi = int(wi)
            hist = self.windows.get(wi)
            if hist is None:
                self.windows[wi] = LogLinearHistogram.from_snapshot(snap)
            else:
                hist.merge_log_linear(LogLinearHistogram.from_snapshot(snap))
        self.evict_stale_windows()

    def merged(self) -> LogLinearHistogram:
        """All windows folded into one run-wide distribution."""
        out = LogLinearHistogram(self.subbucket_bits, self.max_value)
        for _, hist in self.items():
            out.merge_log_linear(hist)
        return out

    def snapshot_windowed(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subbucket_bits": self.subbucket_bits,
            "max_value": self.max_value,
            "windows": [
                [wi, hist.snapshot_log_linear()] for wi, hist in self.items()
            ],
        }


class TimelineRegistry:
    """Get-or-create store of windowed series, keyed ``component/name``."""

    __slots__ = ("window_ns", "retention", "_series")

    def __init__(
        self,
        window_ns: int = DEFAULT_WINDOW_NS,
        retention: int = DEFAULT_RETENTION,
    ):
        if window_ns <= 0:
            raise ConfigError("timeline window_ns must be positive")
        self.window_ns = window_ns
        self.retention = retention
        self._series: Dict[
            str, Union[WindowedCounter, WindowedGauge, WindowedHistogram]
        ] = {}

    # Explicit per-kind get-or-create (rather than a cls-factory) keeps
    # construction statically resolvable for the flow analyzer.

    def windowed_counter(self, key: str) -> WindowedCounter:
        series = self._series.get(key)
        if series is None:
            key = sys.intern(key)
            series = WindowedCounter(key, self.window_ns, self.retention)
            self._series[key] = series
        elif series.kind != "windowed_counter":
            raise TypeError(
                f"timeline {key!r} already registered as {series.kind}"
            )
        return series

    def windowed_gauge(self, key: str) -> WindowedGauge:
        series = self._series.get(key)
        if series is None:
            key = sys.intern(key)
            series = WindowedGauge(key, self.window_ns, self.retention)
            self._series[key] = series
        elif series.kind != "windowed_gauge":
            raise TypeError(
                f"timeline {key!r} already registered as {series.kind}"
            )
        return series

    def windowed_histogram(self, key: str) -> WindowedHistogram:
        series = self._series.get(key)
        if series is None:
            key = sys.intern(key)
            series = WindowedHistogram(key, self.window_ns, self.retention)
            self._series[key] = series
        elif series.kind != "windowed_histogram":
            raise TypeError(
                f"timeline {key!r} already registered as {series.kind}"
            )
        return series

    def get(
        self, key: str
    ) -> Optional[Union[WindowedCounter, WindowedGauge, WindowedHistogram]]:
        return self._series.get(key)

    def items(
        self,
    ) -> List[Tuple[str, Union[WindowedCounter, WindowedGauge, WindowedHistogram]]]:
        """Series in deterministic (sorted-key) order."""
        return sorted(self._series.items())

    def __len__(self) -> int:
        return len(self._series)

    # -- snapshots / merging -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a versioned JSON-serialisable dict."""
        return {
            "schema": TIMELINE_SCHEMA,
            "window_ns": self.window_ns,
            "retention": self.retention,
            "series": {
                key: series.snapshot_windowed() for key, series in self.items()
            },
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a snapshot in.

        Counters add, gauges join (single-writer keys by convention),
        histogram windows merge bucket-wise — so merging snapshots of
        registries that recorded disjoint series reproduces recording
        everything in one registry, bit-for-bit.
        """
        if snap.get("schema") != TIMELINE_SCHEMA:
            raise ConfigError(
                f"timeline snapshot schema {snap.get('schema')!r} "
                f"!= {TIMELINE_SCHEMA!r}"
            )
        if snap["window_ns"] != self.window_ns:
            raise ConfigError(
                f"timeline window mismatch: {snap['window_ns']} != "
                f"{self.window_ns}"
            )
        for key in sorted(snap["series"]):
            row = snap["series"][key]
            kind = row["kind"]
            if kind == "windowed_counter":
                self.windowed_counter(key).absorb_windowed_counter(
                    row["windows"]
                )
            elif kind == "windowed_gauge":
                self.windowed_gauge(key).absorb_windowed_gauge(row["windows"])
            elif kind == "windowed_histogram":
                series = self.windowed_histogram(key)
                series.subbucket_bits = row["subbucket_bits"]
                series.max_value = row["max_value"]
                series.absorb_windowed_histogram(row["windows"])
            else:
                raise ConfigError(f"unknown timeline kind {kind!r}")

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "TimelineRegistry":
        """Rebuild a registry from :meth:`snapshot` output (e.g. a
        ``timeline.json`` written by a previous run)."""
        registry = TimelineRegistry(
            window_ns=snap["window_ns"],
            retention=snap.get("retention", DEFAULT_RETENTION),
        )
        registry.merge_snapshot(snap)
        return registry
