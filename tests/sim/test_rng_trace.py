"""Tests for RNG streams and the tracer."""

from repro.sim import RngStreams, Simulator, Tracer


def test_named_streams_are_independent():
    streams = RngStreams(seed=42)
    a1 = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    # Fresh factory, draw from b first: a's sequence must not change.
    streams2 = RngStreams(seed=42)
    [streams2.stream("b").random() for _ in range(5)]
    a2 = [streams2.stream("a").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b


def test_streams_depend_on_seed():
    a = RngStreams(seed=1).stream("x").random()
    b = RngStreams(seed=2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RngStreams()
    assert streams.stream("x") is streams.stream("x")


def test_tracer_disabled_by_default():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.record("comp", "event", value=1)
    assert len(tracer) == 0


def test_tracer_records_and_filters():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    sim.schedule(10, lambda: tracer.record("rpc", "send", xid=1))
    sim.schedule(20, lambda: tracer.record("rpc", "reply", xid=1))
    sim.schedule(30, lambda: tracer.record("vm", "charge", bytes=4096))
    sim.run()
    assert len(tracer) == 3
    assert [r.kind for r in tracer.records(component="rpc")] == ["send", "reply"]
    reply = tracer.records(kind="reply")[0]
    assert reply.time == 20
    assert reply.fields == {"xid": 1}
    tracer.clear()
    assert len(tracer) == 0


def test_tracer_ring_is_bounded():
    sim = Simulator()
    tracer = Tracer(sim, capacity=10, enabled=True)
    for i in range(25):
        tracer.record("c", "k", i=i)
    assert len(tracer) == 10
    assert tracer.records()[0].fields["i"] == 15


def test_tracer_ring_mixes_spans_samples_and_records():
    """Span edges, samples and generic records share one bounded ring:
    the oldest entries go first, and reads rebuild every record with its
    fields in recording order."""
    from repro.obs.core import Observability
    from repro.sim import TraceRecord

    sim = Simulator()
    obs = Observability(sim, enabled=True, capacity=10)
    view = obs.scoped("client1")
    tracer = obs.tracer

    def first():
        root = obs.span_begin("syscall", "write", nbytes=4096)
        obs.sample("rpc", "backlog", 1)
        rpc = obs.span_begin("rpc", "WRITE", parent=root, ts=50, xid=7)
        tracer.record("vm", "charge", bytes=4096, pages=[3, 4])
        obs.span_end(rpc, ts=90, error="ETIMEDOUT")
        obs.span_end(root)

    def second():
        page = view.span_begin("nfs", "page_dirty", parent=1, page=2)
        view.sample("pagecache", "dirty_bytes", 8192)
        tracer.record("rpc", "send", xid=8)
        view.span_end(page)
        view.span_point("rpc", "retransmit", parent=page, xid=8)
        obs.sample("rpc", "cwnd", 2)

    sim.schedule(10, first)
    sim.schedule(20, second)
    sim.run()

    # Thirteen entries into a ring of ten: the first three are gone.
    assert len(tracer) == 10
    expected = [
        TraceRecord(10, "vm", "charge", {"bytes": 4096, "pages": [3, 4]}),
        TraceRecord(90, "", "span_end", {"span": 2, "error": "ETIMEDOUT"}),
        TraceRecord(10, "", "span_end", {"span": 1}),
        TraceRecord(
            20,
            "nfs",
            "span_begin",
            {
                "span": 3,
                "parent": 1,
                "name": "page_dirty",
                "client": "client1",
                "page": 2,
            },
        ),
        TraceRecord(
            20, "pagecache", "sample", {"name": "client1/dirty_bytes", "value": 8192}
        ),
        TraceRecord(20, "rpc", "send", {"xid": 8}),
        TraceRecord(20, "", "span_end", {"span": 3}),
        TraceRecord(
            20,
            "rpc",
            "span_begin",
            {
                "span": 4,
                "parent": 3,
                "name": "retransmit",
                "client": "client1",
                "xid": 8,
            },
        ),
        TraceRecord(20, "", "span_end", {"span": 4}),
        TraceRecord(20, "rpc", "sample", {"name": "cwnd", "value": 2}),
    ]
    records = tracer.records()
    assert records == expected
    assert all(type(rec) is TraceRecord for rec in records)
    # Dict equality ignores order; exporters iterate fields, so pin it.
    assert [list(rec.fields) for rec in records] == [
        list(rec.fields) for rec in expected
    ]
    assert tracer.records(component="rpc") == [expected[i] for i in (5, 7, 9)]
    assert tracer.records(kind="span_end") == [expected[i] for i in (1, 2, 6, 8)]
    assert tracer.records(component="rpc", kind="sample") == [expected[9]]
    assert tracer.records(component="vm", kind="sample") == []


def test_tracer_reads_a_complete_span_as_both_edges():
    """A link frame is one ring entry that reads back as its span_begin
    record, then its span_end record; filters see each record on its own
    and eviction drops both edges together."""
    from repro.obs.core import Observability
    from repro.obs.export import build_spans
    from repro.sim import TraceRecord

    sim = Simulator()
    obs = Observability(sim, enabled=True, capacity=3)
    view = obs.scoped("client1")
    tracer = obs.tracer

    def send():
        obs.frame("c0-up", "net/c0-up/queue_ns", 1514, 0, 10, 42, 0)
        obs.sample("rpc", "cwnd", 2)
        view.frame(
            "c1-up", "net/c1-up/queue_ns", 182, 8, 18, 30, 1, name="frame_dropped"
        )

    sim.schedule(10, send)
    sim.run()

    begin1 = TraceRecord(
        10,
        "net",
        "span_begin",
        {"span": 1, "parent": 0, "name": "frame", "bytes": 1514, "link": "c0-up"},
    )
    end1 = TraceRecord(42, "", "span_end", {"span": 1})
    sample = TraceRecord(10, "rpc", "sample", {"name": "cwnd", "value": 2})
    begin2 = TraceRecord(
        18,
        "net",
        "span_begin",
        {
            "span": 2,
            "parent": 1,
            "name": "frame_dropped",
            "client": "client1",
            "bytes": 182,
            "link": "c1-up",
        },
    )
    end2 = TraceRecord(30, "", "span_end", {"span": 2})

    # Three entries fill the ring; the two frames read as four records.
    assert len(tracer) == 3
    records = tracer.records()
    assert records == [begin1, end1, sample, begin2, end2]
    assert [list(rec.fields) for rec in records] == [
        list(rec.fields) for rec in (begin1, end1, sample, begin2, end2)
    ]
    assert tracer.records(component="net") == [begin1, begin2]
    assert tracer.records(component="") == [end1, end2]
    assert tracer.records(kind="span_end") == [end1, end2]
    assert tracer.records(component="net", kind="span_end") == []
    assert tracer.records(kind="span") == []
    spans = build_spans(tracer)
    assert [(s.name, s.start, s.end) for s in spans.values()] == [
        ("frame", 10, 42),
        ("frame_dropped", 18, 30),
    ]
    # Each call also counts the frame and samples its link's queue delay.
    assert obs.metrics.snapshot() == {
        "client1/net/bytes_sent": 182,
        "client1/net/frames_sent": 1,
        "net/bytes_sent": 1514,
        "net/frames_sent": 1,
    }
    gauge = "windowed_gauge"
    assert obs.timelines.snapshot()["series"] == {
        "client1/net/c1-up/queue_ns": {"kind": gauge, "windows": [[0, 8, 8]]},
        "net/c0-up/queue_ns": {"kind": gauge, "windows": [[0, 0, 0]]},
    }

    # A fourth entry evicts the first frame, both of its edges at once.
    tracer.record("vm", "charge", bytes=4096)
    assert len(tracer) == 3
    assert tracer.records() == [
        sample,
        begin2,
        end2,
        TraceRecord(10, "vm", "charge", {"bytes": 4096}),
    ]
