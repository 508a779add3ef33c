"""Observability exporters.

Three formats:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — loads directly
  in Perfetto / ``chrome://tracing``.  Spans become complete (``"X"``)
  events with the causal ``span``/``parent`` ids in ``args``; samples
  (srtt, backlog depth, dirty bytes) become counter (``"C"``) events.
  Timestamps are simulated microseconds.
* **prometheus-style text** (:func:`prometheus_text`) — one line per
  metric, histograms expanded to cumulative ``_bucket``/``_sum``/
  ``_count`` rows, sorted for bit-stable output.
* **readprofile-style flat profile** (:func:`flat_profile`) — the
  :class:`~repro.sim.profiler.SamplingProfiler` histogram plus the BKL
  ledger and syscall percentiles, in the shape the paper's authors read.

:func:`build_spans` and :func:`validate_chrome_trace` are the schema
checks the CLI and tests share.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "build_spans",
    "chrome_trace",
    "validate_chrome_trace",
    "prometheus_text",
    "flat_profile",
    "span_children",
    "span_descendants",
]


class Span:
    """One reconstructed span from the trace."""

    __slots__ = ("sid", "parent", "component", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: int, component: str, name: str,
                 start: int, attrs: Dict[str, Any]):
        self.sid = sid
        self.parent = parent
        self.component = component
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.attrs = attrs

    @property
    def duration(self) -> int:
        return (self.end if self.end is not None else self.start) - self.start


def _spans_and_samples(tracer) -> Tuple[Dict[int, Span], List[Any]]:
    """One decode of the trace: span_begin/span_end records paired into
    :class:`Span` objects, and the sample records in trace order."""
    spans: Dict[int, Span] = {}
    samples: List[Any] = []
    for rec in tracer.records():
        if rec.kind == "span_begin":
            fields = dict(rec.fields)
            sid = fields.pop("span")
            parent = fields.pop("parent", 0)
            name = fields.pop("name", "")
            spans[sid] = Span(sid, parent, rec.component, name, rec.time, fields)
        elif rec.kind == "span_end":
            span = spans.get(rec.fields["span"])
            if span is not None:
                span.end = rec.time
                for key, value in rec.fields.items():
                    if key != "span":
                        span.attrs[key] = value
        elif rec.kind == "sample":
            samples.append(rec)
    return spans, samples


def build_spans(tracer) -> Dict[int, Span]:
    """Pair span_begin/span_end records into :class:`Span` objects."""
    return _spans_and_samples(tracer)[0]


def span_children(spans: Dict[int, Span]) -> Dict[int, List[int]]:
    """``parent sid -> [child sids]`` (0 keys the roots)."""
    children: Dict[int, List[int]] = {}
    for sid in sorted(spans):
        children.setdefault(spans[sid].parent, []).append(sid)
    return children


def span_descendants(spans: Dict[int, Span], root: int) -> List[Span]:
    """Every span causally under ``root`` (excluding the root itself)."""
    children = span_children(spans)
    out: List[Span] = []
    stack = list(children.get(root, []))
    while stack:
        sid = stack.pop()
        span = spans[sid]
        out.append(span)
        stack.extend(children.get(sid, []))
    return out


# -- Chrome trace-event JSON --------------------------------------------------


def _canonical_ids(spans: Dict[int, Span]) -> Dict[int, int]:
    """Renumber spans 1..N by *content*, not by mint order.

    Raw span ids depend on mint order, so byte-identical exports need
    ids derived from what each span *is*: its times, component, name,
    attributes, and — recursively — its parent's key.
    Two runs that simulate the same history therefore export the same
    ids regardless of how the spans were numbered at record time.
    """
    keys: Dict[int, Tuple] = {}
    # Iterative post-order: a span's key embeds its parent's key, so
    # push unresolved ancestors first and fold back down.
    for start_sid in spans:
        stack = [start_sid]
        while stack:
            sid = stack[-1]
            if sid in keys:
                stack.pop()
                continue
            span = spans[sid]
            if span.parent in spans and span.parent not in keys:
                stack.append(span.parent)
                continue
            keys[sid] = (
                span.start,
                span.end if span.end is not None else span.start,
                span.component,
                span.name,
                json.dumps(span.attrs, sort_keys=True, default=str),
                keys.get(span.parent, ()),
            )
            stack.pop()
    order = sorted(spans, key=lambda sid: keys[sid])
    return {sid: i + 1 for i, sid in enumerate(order)}


def chrome_trace(obs, process_name: str = "repro-nfs") -> Dict[str, Any]:
    """The whole observer as a Chrome trace-event JSON object.

    One pid, one tid per component (assigned in first-seen order over
    the canonical span ordering).  Span ids are canonically renumbered
    (:func:`_canonical_ids`) and counter samples sorted, so two runs
    that simulate the same history export the same bytes.
    """
    spans, samples = _spans_and_samples(obs.tracer)
    canonical = _canonical_ids(spans)
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]

    def tid_for(component: str) -> int:
        tid = tids.get(component)
        if tid is None:
            tid = len(tids) + 1
            tids[component] = tid
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": component},
                }
            )
        return tid

    for sid in sorted(spans, key=lambda s: canonical[s]):
        span = spans[sid]
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {
            "span": canonical[sid],
            "parent": canonical.get(span.parent, 0),
        }
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tid_for(span.component),
                "name": span.name,
                "cat": span.component,
                "ts": span.start / 1000.0,
                "dur": (end - span.start) / 1000.0,
                "args": args,
            }
        )
    samples.sort(
        key=lambda rec: (
            rec.time,
            rec.component,
            rec.fields["name"],
            repr(rec.fields["value"]),
        ),
    )
    for rec in samples:
        events.append(
            {
                "ph": "C",
                "pid": 1,
                "tid": tid_for(rec.component),
                "name": f"{rec.component}/{rec.fields['name']}",
                "ts": rec.time / 1000.0,
                "args": {"value": rec.fields["value"]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: Any) -> Dict[int, Span]:
    """Structural checks on an exported trace; returns its spans.

    Raises :class:`ValueError` on malformed JSON structure, duplicate
    span ids, dangling parents, negative durations, or a parent that
    begins after its child — the "spans nest properly" contract.
    Asynchronous completion spans may *end* after their parent (an RPC
    outlives the syscall that queued it), so only begin-ordering is
    enforced.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("not a trace-event JSON object")
    spans: Dict[int, Span] = {}
    for event in obj["traceEvents"]:
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"malformed event {event!r}")
        if event["ph"] != "X":
            continue
        for field in ("name", "ts", "dur", "args"):
            if field not in event:
                raise ValueError(f"span event missing {field!r}: {event!r}")
        if event["dur"] < 0:
            raise ValueError(f"negative duration: {event!r}")
        sid = event["args"].get("span")
        parent = event["args"].get("parent", 0)
        if not isinstance(sid, int) or sid <= 0:
            raise ValueError(f"span event without a positive span id: {event!r}")
        if sid in spans:
            raise ValueError(f"duplicate span id {sid}")
        span = Span(
            sid, parent, event.get("cat", ""), event["name"],
            event["ts"], dict(event["args"]),
        )
        span.end = event["ts"] + event["dur"]
        spans[sid] = span
    for sid in sorted(spans):
        span = spans[sid]
        if span.parent:
            parent = spans.get(span.parent)
            if parent is None:
                raise ValueError(f"span {sid} has dangling parent {span.parent}")
            if parent.start > span.start:
                raise ValueError(
                    f"span {sid} begins before its parent {span.parent}"
                )
    # A self-check that the object round-trips as JSON.
    json.dumps(obj)
    return spans


# -- prometheus-style text ----------------------------------------------------


def _prom_name(key: str) -> Tuple[str, Optional[str]]:
    """``component/name[/label]`` -> (metric name, optional label)."""
    parts = key.split("/")
    if len(parts) > 2:
        name, label = "_".join(parts[:2]), "/".join(parts[2:])
    else:
        name, label = "_".join(parts), None
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}", label


def prometheus_text(registry) -> str:
    """The registry as prometheus exposition-format text."""
    lines: List[str] = []
    for key, metric in registry.items():
        name, label = _prom_name(key)
        suffix = f'{{label="{label}"}}' if label is not None else ""
        if metric.kind == "histogram":
            for le, cumulative in metric.cumulative():
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{name}_sum {metric.total}")
            lines.append(f"{name}_count {metric.count}")
        elif metric.kind == "gauge":
            lines.append(f"{name}{suffix} {metric.value}")
            lines.append(f"{name}_max{suffix} {metric.max_value}")
        else:
            lines.append(f"{name}{suffix} {metric.value}")
    return "\n".join(lines) + "\n"


# -- readprofile-style flat profile ------------------------------------------


def flat_profile(
    profiler,
    registry=None,
    trace=None,
    top: int = 30,
) -> str:
    """A readprofile-style report unifying the sampling profiler with the
    metrics ledger and (optionally) syscall latency percentiles."""
    lines: List[str] = []
    if profiler is not None and profiler.total_samples:
        lines.append("samples  fraction  label")
        for label, count in profiler.top(top, include_idle=True):
            frac = count / profiler.total_samples
            lines.append(f"{count:7d}  {frac:7.2%}  {label}")
    else:
        lines.append("(no profiler samples)")
    if trace is not None and len(trace):
        pcts = trace.percentiles_ns()
        lines.append("")
        lines.append("write() latency (us)")
        lines.append(
            f"  mean {trace.mean_ns() / 1000:.1f}"
            f"  p50 {pcts[50] / 1000:.1f}"
            f"  p90 {pcts[90] / 1000:.1f}"
            f"  p99 {pcts[99] / 1000:.1f}"
            f"  max {trace.max_ns() / 1000:.1f}"
        )
    if registry is not None and len(registry):
        lines.append("")
        lines.append("value      metric")
        for key, metric in registry.items():
            if metric.kind == "histogram":
                lines.append(f"{metric.count:>10} {key} (events)")
            else:
                lines.append(f"{metric.value:>10} {key}")
    return "\n".join(lines) + "\n"
