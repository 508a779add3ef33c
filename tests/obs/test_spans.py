"""Span model, Chrome-trace export, and causal nesting.

The ISSUE's acceptance criterion: running ``repro-nfs trace`` on the
Figure 1 configuration must emit valid Chrome trace JSON in which a
single ``write()`` span's children cover page dirtying, coalescing, RPC
send (and retransmits when faulted), server execution, and the reply.
"""

import pytest

from repro.bench.runner import TestBed
from repro.obs import (
    build_spans,
    chrome_trace,
    span_children,
    span_descendants,
    validate_chrome_trace,
)
from repro.units import MIB


@pytest.fixture(scope="module")
def fig1_obs():
    """One observed Figure 1-configuration run (linux target, stock)."""
    bed = TestBed(target="linux", client="stock", observe=True)
    bed.run_sequential_write(2 * MIB)
    return bed.obs


def test_chrome_trace_validates(fig1_obs):
    trace = chrome_trace(fig1_obs)
    spans = validate_chrome_trace(trace)
    assert spans  # non-empty
    # Counter events for the sampled series exist too.
    kinds = {e["ph"] for e in trace["traceEvents"]}
    assert {"M", "X", "C"} <= kinds


def test_chrome_trace_decodes_the_trace_once(fig1_obs, monkeypatch):
    tracer = fig1_obs.tracer
    records = tracer.records
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return records(*args, **kwargs)

    monkeypatch.setattr(tracer, "records", counted)
    trace = chrome_trace(fig1_obs)
    # Spans and counter samples come from one walk over the trace.
    assert calls == [((), {})]
    assert {"X", "C"} <= {e["ph"] for e in trace["traceEvents"]}


def test_write_span_children_cover_the_write_path(fig1_obs):
    spans = build_spans(fig1_obs.tracer)
    write_roots = [
        s for s in spans.values() if s.parent == 0 and s.name == "write"
    ]
    assert len(write_roots) >= 100
    covered = set()
    for root in write_roots:
        covered |= {d.name for d in span_descendants(spans, root.sid)}
    # The causal chain the tentpole promises: page dirty -> coalesce ->
    # RPC WRITE -> wire send -> frames -> server op -> reply processing.
    assert {
        "page_dirty",
        "coalesce",
        "WRITE",
        "frame",
        "server_WRITE",
        "rpc_reply",
    } <= covered
    assert any(name.startswith("rpc_send") for name in covered)


def test_span_nesting_follows_begin_order(fig1_obs):
    spans = build_spans(fig1_obs.tracer)
    for span in spans.values():
        assert span.end is not None, f"span {span.sid} never ended"
        assert span.end >= span.start
        if span.parent:
            parent = spans[span.parent]
            assert parent.start <= span.start


def test_fsync_and_commit_spans_present(fig1_obs):
    spans = build_spans(fig1_obs.tracer)
    names = {s.name for s in spans.values()}
    # The linux target acknowledges UNSTABLE, so the flush path COMMITs.
    assert "fsync" in names
    assert "COMMIT" in names


def test_frame_counters_match_the_frame_spans(fig1_obs):
    """Every frame the links send is both counted and traced."""
    snap = fig1_obs.metrics.snapshot()
    frames = [
        s
        for s in build_spans(fig1_obs.tracer).values()
        if s.component == "net" and s.name == "frame"
    ]
    assert frames
    assert snap["net/frames_sent"] == len(frames)
    assert snap["net/bytes_sent"] == sum(s.attrs["bytes"] for s in frames)


def test_metrics_cover_every_layer(fig1_obs):
    snap = fig1_obs.metrics.snapshot()
    assert snap["syscall/write_calls"] == 2 * MIB // 8192
    assert snap["syscall/write_bytes"] == 2 * MIB
    assert snap["nfs/requests_created"] == 2 * MIB // 4096
    assert snap["server/bytes_received"] == 2 * MIB
    assert snap["rpc/submitted/WRITE"] >= 1
    assert snap["rpc/submitted/COMMIT"] >= 1
    assert snap["net/frames_sent"] > 0
    assert snap["pagecache/bytes_charged"] == 2 * MIB
    assert snap["coalesce/bytes"] == 2 * MIB


def test_flush_reasons_partition_flushed_pages(fig1_obs):
    snap = fig1_obs.metrics.snapshot()
    flushed = sum(
        v for k, v in snap.items() if k.startswith("flush/pages/")
    )
    # Every page is flushed exactly once, whatever the trigger.
    assert flushed == 2 * MIB // 4096


def test_validate_rejects_dangling_parent():
    with pytest.raises(ValueError, match="dangling"):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": 1,
                        "name": "x",
                        "ts": 0,
                        "dur": 1,
                        "args": {"span": 1, "parent": 99},
                    }
                ]
            }
        )


def test_validate_rejects_duplicate_span_ids():
    event = {
        "ph": "X",
        "pid": 1,
        "tid": 1,
        "name": "x",
        "ts": 0,
        "dur": 1,
        "args": {"span": 1, "parent": 0},
    }
    with pytest.raises(ValueError, match="duplicate"):
        validate_chrome_trace({"traceEvents": [event, dict(event)]})
