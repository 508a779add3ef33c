"""Declarative SLOs evaluated post-run from the timelines.

An :class:`SloSpec` names an objective — a windowed-histogram timeline
(e.g. ``syscall/write_latency_us``), a threshold that separates good
events from bad, and a target good fraction — plus the SRE-style
multi-window burn-rate alerting policy (a short and a long window must
*both* burn error budget faster than ``burn_factor`` before an alert
fires, the classic 1h/6h pairing scaled to simulated time).

:func:`evaluate_slos` turns a :class:`~repro.obs.timeseries.
TimelineRegistry` (live, or rebuilt from a ``timeline.json``) into a
versioned ``slo-report@1`` dict containing:

* per-window p50/p99/p99.9 of every objective,
* attainment, verdict, burn-rate series and alert spans per SLO,
* goodput-vs-offered-load timelines (client write bytes vs server
  ingest bytes),
* knee detection — max discrete curvature on the latency-vs-offered-
  load curve (:func:`repro.analysis.stats.knee_point`),
* violation spans, each attributed to the dominant per-layer signal
  (the timeline with the largest z-score against its own run-wide
  distribution during the span).

Everything is integer/float arithmetic over the snapshot — evaluation
runs after the simulation, never inside it, and two registries with
identical contents produce byte-identical reports (dict keys are
sorted, floats come from identical operations).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import knee_point, mean, stddev
from ..errors import ConfigError
from ..value import Value
from .timeseries import TimelineRegistry, WindowedHistogram

__all__ = [
    "SloSpec",
    "SLO_REPORT_SCHEMA",
    "DEFAULT_SLOS",
    "evaluate_slos",
    "matching_series",
]

#: Version tag carried by SLO reports; bump when the format changes.
SLO_REPORT_SCHEMA = "repro-nfs/slo-report@1"

#: Percentiles every objective reports per window.
REPORT_PERCENTILES = (50.0, 99.0, 99.9)


class SloSpec(Value):
    """One service-level objective over a windowed-histogram timeline."""

    #: Report label, e.g. ``"write-p99"``.
    name: str
    #: Objective timeline key.  A series matches when its key equals
    #: ``metric`` or ends with ``"/" + metric`` — so client-scoped fleet
    #: keys (``client3/syscall/write_latency_us``) merge into one
    #: fleet-wide objective.
    metric: str
    #: Good-event threshold in the metric's own unit (µs for the write
    #: latency timelines): a sample is *good* when ``value <= threshold``.
    threshold: float
    #: Target good fraction, e.g. 0.99 for a three-nines-ish objective.
    target: float = 0.99
    #: Multi-window burn-rate windows in simulated ns (short, long, ...).
    #: Scaled stand-ins for SRE's 1h/6h pair.
    burn_windows_ns: Tuple[int, ...] = (50_000_000, 250_000_000)
    #: Alert when every burn window exceeds this budget-burn multiple.
    burn_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.target < 1:
            raise ConfigError(f"slo {self.name!r}: target must be in (0, 1)")
        if self.threshold < 0:
            raise ConfigError(f"slo {self.name!r}: negative threshold")
        if not self.burn_windows_ns or any(
            w <= 0 for w in self.burn_windows_ns
        ):
            raise ConfigError(
                f"slo {self.name!r}: burn windows must be positive"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "threshold": self.threshold,
            "target": self.target,
            "burn_windows_ns": list(self.burn_windows_ns),
            "burn_factor": self.burn_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloSpec":
        known = {
            "name",
            "metric",
            "threshold",
            "target",
            "burn_windows_ns",
            "burn_factor",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"slo: unknown key(s) {', '.join(unknown)}")
        kwargs = dict(data)
        if "burn_windows_ns" in kwargs:
            kwargs["burn_windows_ns"] = tuple(kwargs["burn_windows_ns"])
        return SloSpec(**kwargs)


#: The out-of-the-box objective `repro-nfs report` evaluates when a run
#: carries no explicit specs: writes should complete within 50 simulated
#: milliseconds (spikes past that are the paper's §3.3 pathology).
DEFAULT_SLOS = (
    SloSpec(
        name="write-latency",
        metric="syscall/write_latency_us",
        threshold=50_000.0,
        target=0.95,
    ),
)


def matching_series(
    registry: TimelineRegistry, metric: str
) -> List[Tuple[str, Any]]:
    """Timelines whose key is ``metric`` or ends with ``"/" + metric``."""
    suffix = "/" + metric
    return [
        (key, series)
        for key, series in registry.items()
        if key == metric or key.endswith(suffix)
    ]


def _merged_objective(
    registry: TimelineRegistry, metric: str
) -> Optional[WindowedHistogram]:
    """All matching histogram timelines folded into one (fleet-wide)."""
    matches = [
        (key, series)
        for key, series in matching_series(registry, metric)
        if series.kind == "windowed_histogram"
    ]
    if not matches:
        return None
    first = matches[0][1]
    merged = WindowedHistogram(
        metric,
        first.window_ns,
        first.retention,
        subbucket_bits=first.subbucket_bits,
        max_value=first.max_value,
    )
    for _key, series in matches:
        merged.absorb_windowed_histogram(
            (wi, hist.snapshot_log_linear()) for wi, hist in series.items()
        )
    return merged


def _sum_windows(
    registry: TimelineRegistry, metric: str
) -> Dict[int, int]:
    """Per-window sums of every matching windowed counter."""
    out: Dict[int, int] = {}
    for _key, series in matching_series(registry, metric):
        if series.kind != "windowed_counter":
            continue
        for wi, n in series.items():
            out[wi] = out.get(wi, 0) + n
    return out


def _gauge_window_value(cell: Any) -> float:
    """A gauge window's scalar for attribution: its maximum."""
    return cell[1]


def _signal_windows(series: Any) -> Dict[int, float]:
    """Per-window scalar view of a counter or gauge timeline."""
    if series.kind == "windowed_counter":
        return {wi: float(n) for wi, n in series.items()}
    if series.kind == "windowed_gauge":
        return {wi: float(_gauge_window_value(c)) for wi, c in series.items()}
    return {}


def _attribute(
    registry: TimelineRegistry,
    span_windows: Sequence[int],
    objective_metric: str,
) -> Optional[Dict[str, Any]]:
    """Dominant per-layer signal during a violation span.

    For every counter/gauge timeline (the objective itself excluded),
    compare its mean level across the span's windows against its
    run-wide mean in units of its run-wide standard deviation; the
    largest z-score wins, ties broken by key order.
    """
    best: Optional[Tuple[float, str]] = None
    suffix = "/" + objective_metric
    for key, series in registry.items():
        if key == objective_metric or key.endswith(suffix):
            continue
        values = _signal_windows(series)
        if len(values) < 2:
            continue
        all_values = [values[wi] for wi in sorted(values)]
        sigma = stddev(all_values)
        if sigma == 0:
            continue
        in_span = [values.get(wi, 0.0) for wi in span_windows]
        z = (mean(in_span) - mean(all_values)) / sigma
        # Strictly-greater keeps the first (lexicographically smallest)
        # key on ties, because registry.items() is sorted.
        if best is None or z > best[0]:
            best = (z, key)
    if best is None:
        return None
    return {"signal": best[1], "z": round(best[0], 6)}


def _contiguous_spans(windows: Sequence[int]) -> List[List[int]]:
    spans: List[List[int]] = []
    for wi in windows:
        if spans and wi == spans[-1][-1] + 1:
            spans[-1].append(wi)
        else:
            spans.append([wi])
    return spans


def _burn_series(
    window_stats: Dict[int, Tuple[int, int]],
    window_ns: int,
    burn_window_ns: int,
    target: float,
) -> List[Tuple[int, float]]:
    """``(coarse window start index, burn rate)`` for one burn window.

    Burn rate is the span's bad fraction divided by the error budget
    ``1 - target`` — a rate of 1.0 spends budget exactly at the
    sustainable pace, >1 burns it faster.
    """
    group = max(1, -(-burn_window_ns // window_ns))  # ceil division
    buckets: Dict[int, List[int]] = {}
    for wi in window_stats:
        buckets.setdefault(wi // group, []).append(wi)
    out: List[Tuple[int, float]] = []
    budget = 1.0 - target
    for bucket in sorted(buckets):
        count = sum(window_stats[wi][0] for wi in buckets[bucket])
        good = sum(window_stats[wi][1] for wi in buckets[bucket])
        bad_fraction = (count - good) / count if count else 0.0
        out.append((bucket * group, bad_fraction / budget))
    return out


def _evaluate_one(
    registry: TimelineRegistry, spec: SloSpec
) -> Dict[str, Any]:
    window_ns = registry.window_ns
    objective = _merged_objective(registry, spec.metric)
    row: Dict[str, Any] = {
        "spec": spec.to_dict(),
        "samples": 0,
        "good": 0,
        "attained": None,
        "verdict": "no-data",
        "windows": [],
        "burn": [],
        "alerts": [],
        "violations": [],
    }
    if objective is None or not len(objective):
        return row

    window_stats: Dict[int, Tuple[int, int]] = {}
    for wi, hist in objective.items():
        good = hist.count_le(spec.threshold)
        window_stats[wi] = (hist.count, good)
        pcts = hist.percentiles(REPORT_PERCENTILES)
        row["windows"].append(
            {
                "start_ns": wi * window_ns,
                "count": hist.count,
                "good": good,
                "p50": pcts[50.0],
                "p99": pcts[99.0],
                "p99.9": pcts[99.9],
            }
        )
    samples = sum(c for c, _ in window_stats.values())
    good = sum(g for _, g in window_stats.values())
    row["samples"] = samples
    row["good"] = good
    row["attained"] = good / samples if samples else None
    row["verdict"] = (
        "ok" if samples and good / samples >= spec.target else "violated"
    )

    # Multi-window burn rates + the all-windows-burning alert spans.
    burn_rows = []
    alerting: Optional[set] = None
    for burn_window_ns in spec.burn_windows_ns:
        series = _burn_series(
            window_stats, window_ns, burn_window_ns, spec.target
        )
        group = max(1, -(-burn_window_ns // window_ns))
        burn_rows.append(
            {
                "window_ns": burn_window_ns,
                "rates": [
                    [start_wi * window_ns, round(rate, 6)]
                    for start_wi, rate in series
                ],
            }
        )
        # Base windows covered by a coarse window burning too fast.
        hot = set()
        for start_wi, rate in series:
            if rate > spec.burn_factor:
                hot.update(range(start_wi, start_wi + group))
        alerting = hot if alerting is None else (alerting & hot)
    row["burn"] = burn_rows
    observed = sorted(set(window_stats) & (alerting or set()))
    row["alerts"] = [
        [span[0] * window_ns, (span[-1] + 1) * window_ns]
        for span in _contiguous_spans(observed)
    ]

    # Violation spans: contiguous windows whose good fraction misses the
    # target, attributed to the dominant concurrent per-layer signal.
    violating = [
        wi
        for wi in sorted(window_stats)
        if window_stats[wi][0]
        and window_stats[wi][1] / window_stats[wi][0] < spec.target
    ]
    for span in _contiguous_spans(violating):
        count = sum(window_stats[wi][0] for wi in span)
        good_in_span = sum(window_stats[wi][1] for wi in span)
        violation = {
            "start_ns": span[0] * window_ns,
            "end_ns": (span[-1] + 1) * window_ns,
            "windows": len(span),
            "bad_fraction": round((count - good_in_span) / count, 6),
        }
        attribution = _attribute(registry, span, spec.metric)
        if attribution is not None:
            violation["attribution"] = attribution
        row["violations"].append(violation)
    return row


def _offered_windows(registry: TimelineRegistry) -> Dict[int, int]:
    """Per-window offered bytes.

    Open-loop runs record the arrival process's intent as
    ``traffic/offered_bytes`` — the true offered load, independent of
    how fast the system absorbs it.  Closed-loop runs have no arrival
    process, so the syscall layer's accepted writes stand in for it.
    """
    offered = _sum_windows(registry, "traffic/offered_bytes")
    if offered:
        return offered
    return _sum_windows(registry, "syscall/write_bytes")


def _load_curves(
    registry: TimelineRegistry,
) -> Tuple[List[List[int]], List[List[int]]]:
    """Offered-load and goodput timelines (bytes per window)."""
    window_ns = registry.window_ns
    offered = _offered_windows(registry)
    goodput = _sum_windows(registry, "ingest_bytes")
    return (
        [[wi * window_ns, n] for wi, n in sorted(offered.items())],
        [[wi * window_ns, n] for wi, n in sorted(goodput.items())],
    )


def _knee(
    registry: TimelineRegistry, objective_metric: str
) -> Optional[Dict[str, Any]]:
    """Knee of the latency-vs-offered-load curve, if one exists."""
    objective = _merged_objective(registry, objective_metric)
    if objective is None:
        return None
    offered = _offered_windows(registry)
    points = []
    for wi, hist in objective.items():
        if hist.count and wi in offered:
            points.append((offered[wi], hist.percentile(99), wi))
    points.sort()
    if len(points) < 3:
        return None
    index = knee_point(
        [p[0] for p in points], [p[1] for p in points]
    )
    if index is None:
        return None
    load, p99, wi = points[index]
    return {
        "offered_bytes_per_window": load,
        "p99": p99,
        "window_start_ns": wi * registry.window_ns,
    }


def evaluate_slos(
    registry: TimelineRegistry,
    specs: Sequence[SloSpec] = DEFAULT_SLOS,
) -> Dict[str, Any]:
    """Evaluate every spec against the timelines; the ``slo-report@1``."""
    slos = [_evaluate_one(registry, spec) for spec in specs]
    offered, goodput = _load_curves(registry)
    report: Dict[str, Any] = {
        "schema": SLO_REPORT_SCHEMA,
        "window_ns": registry.window_ns,
        "slos": slos,
        "load": {"offered_bytes": offered, "goodput_bytes": goodput},
        "timelines": {
            key: {"kind": series.kind, "windows": len(series)}
            for key, series in registry.items()
        },
    }
    knee = _knee(registry, specs[0].metric) if specs else None
    report["knee"] = knee
    return report
