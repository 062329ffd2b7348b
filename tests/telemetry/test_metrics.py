"""Unit tests for the metrics pillar: counters, gauges, histograms, registry."""

import sys
import threading

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS, Histogram


# ---------------------------------------------------------------------------
# counters and gauges
# ---------------------------------------------------------------------------


def test_counter_get_or_create_identity_and_inc():
    reg = MetricsRegistry()
    c = reg.counter("recovery.run_retries")
    assert c.value == 0
    c.inc()
    c.inc(3)
    assert c.value == 4
    # get-or-create: same name -> the very same object
    assert reg.counter("recovery.run_retries") is c
    assert reg.get("recovery.run_retries") is c


def test_gauge_set_overwrites():
    reg = MetricsRegistry()
    g = reg.gauge("graph.num_stages")
    g.set(7)
    g.set(3)
    assert g.value == 3


def test_gauge_inc_loses_no_update_across_threads():
    """Eight threads moving one gauge up and down end exactly where it began
    (``Backend`` counts its active jobs so, one dispatcher per thread)."""
    g = MetricsRegistry().gauge("service.active_jobs")
    errors = []

    def churn():
        try:
            for _ in range(10_000):
                g.inc(1)
                g.inc(-1)
        except BaseException as exc:  # a thread's error would pass silently
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors and g.value == 0


def test_metric_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("x")
    with pytest.raises(TypeError, match="already registered"):
        reg.histogram("x")


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_histogram_basic_stats():
    h = Histogram("t", bounds=[1.0, 2.0, 4.0])
    for v in (0.5, 1.5, 1.5, 3.0, 8.0):
        h.observe(v)
    assert h.count == 5
    assert h.total == pytest.approx(14.5)
    assert h.min == 0.5
    assert h.max == 8.0
    assert h.mean == pytest.approx(2.9)
    # 0.5 -> bucket le=1.0; 1.5 x2 -> le=2.0; 3.0 -> le=4.0; 8.0 -> overflow
    assert h.bucket_counts == [1, 2, 1, 1]


def test_histogram_percentiles_are_ordered_and_bounded():
    h = Histogram("t")  # default time buckets
    for i in range(1, 101):
        h.observe(i * 1e-4)  # 0.1ms .. 10ms
    p50, p95 = h.percentile(0.50), h.percentile(0.95)
    assert 0 < p50 <= p95 <= h.max
    # bucket interpolation should land in the right decade
    assert 1e-3 < p50 < 1e-2
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_histogram_empty_summary_is_zeroed():
    h = Histogram("t")
    assert h.summary() == {
        "count": 0, "sum": 0.0, "min": 0.0, "mean": 0.0,
        "max": 0.0, "p50": 0.0, "p95": 0.0,
    }
    assert h.percentile(0.5) == 0.0


def test_histogram_keep_samples_and_timer():
    # the name is older than the body: histograms keep no raw samples
    reg = MetricsRegistry()
    h = reg.histogram("update.seconds")
    with h.time():
        pass
    assert h.count == 1
    assert 0.0 <= h.min == h.max == h.total < 1.0
    h.observe(0.25)
    assert h.count == 2 and h.max == 0.25
    assert reg.histogram("update.seconds") is h


def test_histogram_merge_accumulates_and_rejects_bound_mismatch():
    a = Histogram("t", bounds=[1.0, 2.0])
    b = Histogram("t", bounds=[1.0, 2.0])
    a.observe(0.5)
    b.observe(1.5)
    b.observe(5.0)
    a.merge(b)
    assert a.count == 3
    assert a.min == 0.5 and a.max == 5.0
    assert a.bucket_counts == [1, 1, 1]
    with pytest.raises(ValueError, match="bucket bounds differ"):
        a.merge(Histogram("t", bounds=[1.0, 3.0]))


def test_default_time_buckets_are_sorted_and_span_useful_range():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
    assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-6)
    assert DEFAULT_TIME_BUCKETS[-1] == pytest.approx(30.0)


# ---------------------------------------------------------------------------
# registry reporting and merging
# ---------------------------------------------------------------------------


def test_as_dict_groups_by_kind():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(0.1)
    snap = reg.as_dict()
    assert snap["counters"] == {"c": 2}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["session_id"] == reg.session_id


def test_prometheus_text_exposition():
    reg = MetricsRegistry(session_id=42)
    reg.counter("plan.plans_built", help="plans compiled").inc(3)
    h = reg.histogram("update.seconds", unit="s", bounds=[1.0, 2.0])
    h.observe(0.5)
    h.observe(1.5)
    text = reg.prometheus_text()
    assert '# TYPE qtask_plan_plans_built counter' in text
    assert '# HELP qtask_plan_plans_built plans compiled' in text
    assert 'qtask_plan_plans_built{session="42"} 3' in text
    assert '# TYPE qtask_update_seconds_s histogram' in text
    # buckets are cumulative and close with +Inf == count
    assert 'qtask_update_seconds_s_bucket{session="42",le="1"} 1' in text
    assert 'qtask_update_seconds_s_bucket{session="42",le="2"} 2' in text
    assert 'qtask_update_seconds_s_bucket{session="42",le="+Inf"} 2' in text
    assert 'qtask_update_seconds_s_count{session="42"} 2' in text


def test_registry_merge_semantics():
    parent = MetricsRegistry()
    child = MetricsRegistry(parent_session_id=parent.session_id)
    parent.counter("c").inc(1)
    child.counter("c").inc(5)
    parent.gauge("g").set(10)
    child.gauge("g").set(99)
    child.gauge("child_only").set(7)
    parent.histogram("h").observe(0.1)
    child.histogram("h").observe(0.2)

    parent.merge(child)
    assert parent.counter("c").value == 6            # counters accumulate
    assert parent.gauge("g").value == 10             # existing gauge kept
    assert parent.gauge("child_only").value == 7     # absent gauge adopted
    assert parent.histogram("h").count == 2          # histograms accumulate
    # merge never mutates the source registry
    assert child.counter("c").value == 5
