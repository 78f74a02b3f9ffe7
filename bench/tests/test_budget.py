"""Unit tests for the span recorder and ``latency_budget``."""

import pytest

import spans
from spans import Layer, Recorder, Span, adopt_by_trace, install, latency_budget


def span(id, name, start, end, parent=None, thread=1, trace_id=None):
    return Span(id, trace_id, name, start, end, parent, thread)


def test_nested_spans_self_time_adds_up_to_the_root():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "recommend", 1.0, 9.0, parent=1),
        span(3, "acg.sample", 2.0, 6.0, parent=2),
        span(4, "acg.region", 2.5, 3.5, parent=3),
        span(5, "rank", 6.0, 8.0, parent=2),
    ]
    b = latency_budget(spans)
    assert b["op"].self_s == pytest.approx(2.0)
    assert b["recommend"].self_s == pytest.approx(2.0)
    assert b["acg.sample"].self_s == pytest.approx(3.0)
    assert b["acg.region"].self_s == pytest.approx(1.0)
    assert b["rank"].self_s == pytest.approx(2.0)
    assert sum(lt.self_s for lt in b.values()) == pytest.approx(b["op"].total_s)


def test_overlapping_children_from_two_threads_are_not_subtracted_twice():
    spans = [
        span(1, "op", 0.0, 10.0, thread=1),
        span(2, "serve.batch.wait", 1.0, 6.0, parent=1, thread=2),
        span(3, "serve.batch.wait", 4.0, 8.0, parent=1, thread=3),
    ]
    b = latency_budget(spans)
    assert b["op"].self_s == pytest.approx(3.0)   # 10 - |[1, 8]|
    assert b["serve.batch.wait"].count == 2
    assert b["serve.batch.wait"].self_s == pytest.approx(9.0)


def test_root_without_children_keeps_its_whole_duration_as_remainder():
    b = latency_budget([span(1, "op", 2.0, 5.5), span(2, "op", 6.0, 7.0)])
    assert b["op"].count == 2
    assert b["op"].self_s == pytest.approx(4.5)
    assert b["op"].total_s == pytest.approx(4.5)


def test_children_are_clipped_to_their_parent():
    spans = [span(1, "op", 0.0, 4.0), span(2, "recommend", -1.0, 3.0, parent=1)]
    assert latency_budget(spans)["op"].self_s == pytest.approx(1.0)


def test_adopt_by_trace_reparents_and_clips_server_roots():
    client = [span(1, "op", 10.0, 20.0, trace_id="b7")]
    server = [span(100, "serve.http", 5.0, 19.0, trace_id="b7"),
              span(101, "serve.service", 12.0, 18.0, parent=100),
              span(102, "serve.http", 30.0, 31.0, trace_id="other")]
    adopted = adopt_by_trace(client, server)
    assert adopted[0].parent == 1 and adopted[0].start == 10.0
    assert adopted[1] == server[1]
    assert adopted[2].parent is None


def test_recorder_nests_spans_per_thread_and_counts_raises():
    rec = Recorder()

    def inner():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            rec.timed("inner", inner)
        return 3

    assert rec.timed("outer", outer) == 3
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert rec.counts["inner.raised"] == 1


def test_install_reports_a_layer_callable_that_no_longer_exists(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS",
                        (Layer("gone", "repro.core.lite:LITE", "no_such_method"),))
    assert install(Recorder()) == ["repro.core.lite:LITE.no_such_method"]
