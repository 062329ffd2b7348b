"""Unit tests for the tracing pillar: spans, nesting, export, null path."""

import json
import os
import threading

from repro.telemetry import Tracer
from repro.telemetry.tracing import NULL_SPAN


def test_disabled_tracer_returns_shared_null_span():
    tracer = Tracer(enabled=False)
    s = tracer.span("update", {"ignored": 1})
    assert s is NULL_SPAN
    assert tracer.span("other") is s  # one shared instance, no allocation
    with s as inner:
        inner.set("k", "v")  # every operation is a no-op
    assert tracer.spans() == []


def test_span_nesting_records_parent_ids():
    tracer = Tracer(enabled=True)
    with tracer.span("update") as outer:
        with tracer.span("plan.build") as mid:
            with tracer.span("run.chunk"):
                pass
        assert tracer.current_span_id() == outer.span_id
    assert tracer.current_span_id() is None

    by_name = {r.name: r for r in tracer.spans()}
    assert by_name["update"].parent_id is None
    assert by_name["plan.build"].parent_id == by_name["update"].span_id
    assert by_name["run.chunk"].parent_id == by_name["plan.build"].span_id
    # children finish (and are recorded) before their parent
    names = [r.name for r in tracer.spans()]
    assert names == ["run.chunk", "plan.build", "update"]


def test_span_attrs_and_error_marking():
    tracer = Tracer(enabled=True)
    try:
        with tracer.span("update", {"stage": 3}) as span:
            span.set("runs", 17)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (record,) = tracer.spans()
    assert record.attrs == {"stage": 3, "runs": 17, "error": "RuntimeError"}
    assert record.duration >= 0.0


def test_attach_detach_propagates_parent_across_threads():
    tracer = Tracer(enabled=True)
    recorded = {}

    with tracer.span("update") as outer:
        parent_id = tracer.current_span_id()

        def worker():
            # a fresh thread has no current span until attach
            assert tracer.current_span_id() is None
            prev = tracer.attach(parent_id)
            try:
                with tracer.span("run.chunk") as child:
                    recorded["child"] = child.span_id
            finally:
                tracer.detach(prev)
            assert tracer.current_span_id() is None

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert parent_id == outer.span_id

    by_name = {r.name: r for r in tracer.spans()}
    assert by_name["run.chunk"].parent_id == by_name["update"].span_id
    assert by_name["run.chunk"].thread_id != by_name["update"].thread_id


def test_ring_buffer_bounds_and_drop_count():
    tracer = Tracer(enabled=True, capacity=4)
    for i in range(7):
        with tracer.span(f"s{i}"):
            pass
    spans = tracer.spans()
    assert len(spans) == 4
    assert [r.name for r in spans] == ["s3", "s4", "s5", "s6"]  # oldest evicted
    assert tracer.dropped == 3
    tracer.clear()
    assert tracer.spans() == [] and tracer.dropped == 0


def test_adopt_rehomes_foreign_records():
    tracer = Tracer(enabled=True)
    with tracer.span("update") as update:
        sid = tracer.adopt(
            "checkpoint.restore", 123.0, 0.004,
            parent_id=update.span_id, pid=99999,
            thread_id=99999, thread_name="elsewhere-99999",
            attrs={"rows": 8},
        )
    adopted = next(r for r in tracer.spans() if r.name == "checkpoint.restore")
    assert adopted.span_id == sid
    assert adopted.parent_id == update.span_id
    assert adopted.pid == 99999
    assert adopted.attrs == {"rows": 8}


def test_chrome_trace_export_round_trips(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("update", {"update": 1}):
        with tracer.span("run.chunk"):
            pass
    path = str(tmp_path / "trace.json")
    trace = tracer.export_chrome_trace(path)

    with open(path, "r", encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == json.loads(json.dumps(trace))

    events = on_disk["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    assert {m["name"] for m in meta} >= {"process_name", "thread_name"}
    assert len(slices) == 2
    # timestamps rebased: earliest span starts at ts=0, all in microseconds
    assert min(e["ts"] for e in slices) == 0.0
    for e in slices:
        assert e["pid"] == os.getpid()
        assert e["dur"] >= 0.0
        assert "span_id" in e["args"]
    child = next(e for e in slices if e["name"] == "run.chunk")
    parent = next(e for e in slices if e["name"] == "update")
    assert child["args"]["parent_id"] == parent["args"]["span_id"]
    assert parent["args"]["update"] == 1
