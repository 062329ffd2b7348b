"""Golden-keys contract for the service layer's metric names.

Mirrors ``test_statistics_keys.py``: dashboards and the operations guide
(``docs/operations.md``) grab these names verbatim, so renaming or dropping
one must be a loud, deliberate act here -- not a silent drift.
"""

import pytest

from repro.service import Backend

BELL = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"

#: every metric a fresh Backend registers, before any job runs
GOLDEN_SERVICE_METRICS = {
    # counters
    "service.jobs_submitted",
    "service.jobs_completed",
    "service.jobs_failed",
    "service.jobs_rejected",
    "service.jobs_cancelled",
    "service.pool_hits",
    "service.pool_misses",
    "service.pool_evictions",
    # gauges
    "service.queue_depth",
    "service.active_jobs",
    "service.degraded",
    "service.update_p95_seconds",
    "service.pool_sessions",
    "service.pool_owned_bytes",
    # histograms
    "service.job_seconds",
    "service.queue_wait_seconds",
    # engine-latency rollup merged from base builds (same name as the
    # per-session histogram so fleet dashboards aggregate both)
    "update.seconds",
}


@pytest.fixture(scope="module")
def backend():
    be = Backend({"max_concurrent_jobs": 1}, num_workers=1)
    yield be
    be.close()


def test_backend_registers_exactly_the_golden_metrics(backend):
    assert set(backend.telemetry.metrics.names()) == GOLDEN_SERVICE_METRICS


def test_metrics_survive_a_job_and_appear_in_prometheus(backend):
    backend.run(BELL, shots=8, seed=0).result(timeout=60)
    assert set(backend.telemetry.metrics.names()) == GOLDEN_SERVICE_METRICS
    text = backend.prometheus_text()
    for name in GOLDEN_SERVICE_METRICS:
        ident = "qtask_" + name.replace(".", "_")
        assert ident in text, f"{name} missing from prometheus_text()"


def test_pool_and_job_counters_moved(backend):
    m = backend.telemetry.metrics
    assert m.get("service.jobs_submitted").value >= 1
    assert m.get("service.jobs_completed").value >= 1
    assert m.get("service.pool_misses").value >= 1
    assert m.get("update.seconds").count >= 1
