"""Backend facade: validation, admission control, parity, telemetry wiring."""

import threading

import numpy as np
import pytest

from repro import QTask
from repro.core import faults
from repro.service import (
    Backend,
    BackendClosedError,
    BackendConfiguration,
    BackpressureError,
    CircuitValidationError,
    QueueFullError,
    memory_qubit_cap,
)

BELL = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
GHZ = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
DYNAMIC = (
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
    "measure q[0] -> c[0];\nif (c==1) x q[1];\nmeasure q[1] -> c[1];\n"
)


def _wait_until(predicate, timeout=15.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not met in time")


# -- configuration ----------------------------------------------------------

def test_default_configuration_is_memory_derived():
    cfg = BackendConfiguration()
    assert cfg.n_qubits == memory_qubit_cap()
    assert cfg.n_qubits >= 1
    assert "h" in cfg.basis_gates and "cx" in cfg.basis_gates
    assert cfg.simulator and cfg.local


def test_memory_qubit_cap_scales_with_memory():
    # 16 GiB at 0.5 headroom -> 8 GiB for amplitudes -> 2^29 amplitudes
    assert memory_qubit_cap(16 << 30) == 29
    assert memory_qubit_cap(32 << 30) == 30
    assert memory_qubit_cap(1) == 1  # never below one qubit


def test_unknown_configuration_key_rejected():
    with pytest.raises(ValueError, match="unknown configuration key"):
        Backend({"max_qubits": 5})


@pytest.mark.parametrize(
    "knobs", [{"bogus_knob": 1}, {"copy_on_write": False}, {"num_workers": 2}]
)
def test_unknown_session_knob_rejected_at_construction(knobs):
    """A knob no pooled session takes fails the constructor, naming it,
    instead of every job's ``result()``; no executor is started for it."""
    before = {t for t in threading.enumerate() if t.name.startswith("qtask-worker")}
    with pytest.raises(ValueError, match=f"unknown session knob.*{next(iter(knobs))}"):
        Backend(num_workers=2, session_knobs=knobs)
    after = {t for t in threading.enumerate() if t.name.startswith("qtask-worker")}
    assert after <= before
    with Backend({"n_qubits": 4}, num_workers=1,
                 session_knobs={"block_size": 4, "seed": 3}) as be:
        assert sum(be.run(BELL, shots=8).result().counts.values()) == 8


def test_configuration_dict_roundtrip():
    cfg = BackendConfiguration.coerce({"max_shots": 128, "n_qubits": 10})
    assert cfg.max_shots == 128
    assert BackendConfiguration.coerce(cfg) is cfg
    assert BackendConfiguration.from_dict(cfg.as_dict()) == cfg


# -- validation -------------------------------------------------------------

@pytest.fixture(scope="module")
def backend():
    be = Backend(
        {"max_concurrent_jobs": 2, "n_qubits": 10, "max_shots": 4096},
        num_workers=2,
    )
    yield be
    be.close()


def test_too_many_qubits_rejected(backend):
    big = "OPENQASM 2.0;\nqreg q[11];\nh q[0];\n"
    with pytest.raises(CircuitValidationError, match="n_qubits"):
        backend.run(big, shots=1)


def test_shots_beyond_max_rejected(backend):
    with pytest.raises(CircuitValidationError, match="max_shots"):
        backend.run(BELL, shots=5000)


def test_gate_outside_basis_rejected():
    with Backend({"basis_gates": ("h",), "max_concurrent_jobs": 1}) as be:
        with pytest.raises(CircuitValidationError, match="basis"):
            be.run(BELL, shots=1)


def test_unparsable_qasm_rejected(backend):
    with pytest.raises(CircuitValidationError, match="unparsable"):
        backend.run("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n", shots=1)


def test_builder_without_num_qubits_rejected(backend):
    with pytest.raises(CircuitValidationError, match="num_qubits"):
        backend.run(lambda s: None, shots=1)


def test_closed_backend_rejects():
    be = Backend({"max_concurrent_jobs": 1})
    be.close()
    with pytest.raises(BackendClosedError):
        be.run(BELL, shots=1)


# -- results ----------------------------------------------------------------

def test_observable_and_state(backend):
    job = backend.run(BELL, observable="ZZ", return_state=True)
    result = job.result(timeout=60)
    assert result.expectation == pytest.approx(1.0)
    expect = np.zeros(4, dtype=complex)
    expect[0] = expect[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(result.statevector, expect, atol=1e-12)
    assert result.counts is None  # shots=0


def test_unused_creg_does_not_change_the_histogram(backend):
    """A declared creg without measure/reset/if samples the state, not clbits."""
    with_creg = BELL.replace("qreg q[2];\n", "qreg q[2];\ncreg c[2];\n")
    assert "creg" in with_creg
    plain = backend.run(BELL, shots=200, seed=11).result(timeout=60)
    declared = backend.run(with_creg, shots=200, seed=11).result(timeout=60)
    assert declared.counts == plain.counts
    assert set(plain.counts) == {"00", "11"}
    with QTask.from_qasm(BELL, num_workers=1) as session:
        session.update_state()
        assert declared.counts == session.counts(200, seed=11)


def test_warm_pool_hit_visible_in_result_and_prometheus(backend):
    first = backend.run(GHZ, shots=16, seed=0).result(timeout=60)
    second = backend.run(GHZ, shots=16, seed=0).result(timeout=60)
    assert second.key == first.key
    assert second.pool_hit is True
    text = backend.prometheus_text()
    assert "qtask_service_pool_hits" in text
    assert "qtask_service_jobs_completed" in text


# -- concurrency parity (the acceptance criterion) --------------------------

def test_concurrent_jobs_match_sequential_bit_identical():
    """>= 8 concurrent jobs across >= 2 circuit families == sequential runs."""
    requests = []
    for i in range(10):
        src = [BELL, GHZ, DYNAMIC][i % 3]
        requests.append((src, 64 + i, 1000 + i))

    # sequential ground truth, fresh session per request
    expected = []
    for src, shots, seed in requests:
        session = QTask.from_qasm(src)
        session.update_state()
        if session.circuit.num_clbits > 0:
            expected.append(session.run_shots(shots, seed=seed))
        else:
            expected.append(session.counts(shots, seed=seed))
        session.close()

    with Backend({"max_concurrent_jobs": 4}, num_workers=4) as be:
        jobs = [None] * len(requests)
        errors = []

        def submit(i, src, shots, seed):
            try:
                jobs[i] = be.run(src, shots=shots, seed=seed, tenant=f"t{i % 2}")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i, *req))
            for i, req in enumerate(requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        for job, want in zip(jobs, expected):
            assert job.result(timeout=120).counts == want
        # warm-pool hits happened (3 families, 10 jobs)
        text = be.prometheus_text()
        hits = [l for l in text.splitlines()
                if l.startswith("qtask_service_pool_hits{")]
        assert hits and float(hits[0].rsplit(" ", 1)[1]) >= 7


def test_close_under_load_resolves_every_queued_job():
    """close() with two busy dispatchers and six queued jobs: every job
    resolves, and no dispatcher or executor thread outlives the backend."""
    release = threading.Event()

    def blocker(session):
        net = session.insert_net()
        for q in range(session.circuit.num_qubits):
            session.insert_gate("h", net, q)
        release.wait(15)

    before = set(threading.enumerate())
    be = Backend({"max_concurrent_jobs": 2, "max_queued_jobs": 8}, num_workers=2)
    jobs = [be.run(blocker, num_qubits=10, shots=4, seed=i, key=f"load{i}")
            for i in range(2)]
    _wait_until(lambda: all(job.running() for job in jobs))
    jobs += [be.run(GHZ if i % 2 else BELL, shots=8, seed=i) for i in range(6)]
    assert be.status()["queue_depth"] == 6
    closer = threading.Thread(target=be.close, kwargs={"timeout": 60.0})
    closer.start()
    release.set()
    closer.join(90)
    assert not closer.is_alive()
    for job in jobs:
        assert sum(job.result(timeout=1).counts.values()) in (4, 8)
    assert not [t.name for t in set(threading.enumerate()) - before
                if t.name.startswith(("qtask-worker", "qtask-backend"))]


def test_close_racing_run_strands_no_job():
    """close() landing while run() is admitting: the job raises
    BackendClosedError or resolves -- it never waits behind the sentinels.
    The put is held until close() posts a sentinel (or half a second has
    passed, when close() waits for the admission instead); the job is
    stamped before the put, so a dispatcher never sees it unstamped."""
    be = Backend({"max_concurrent_jobs": 1}, num_workers=1)
    admitting, sentinel_posted, stamped = threading.Event(), threading.Event(), []
    put_nowait, put = be._queue.put_nowait, be._queue.put

    def held_put_nowait(request):
        stamped.append(request.job.submitted_at)
        admitting.set()
        sentinel_posted.wait(0.5)
        put_nowait(request)

    def recorded_put(item, *args, **kwargs):
        put(item, *args, **kwargs)
        if item is None:
            sentinel_posted.set()

    be._queue.put_nowait, be._queue.put = held_put_nowait, recorded_put
    outcome = []

    def submit():
        try:
            outcome.append(be.run(BELL, shots=4, seed=1))
        except BackendClosedError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=submit)
    runner.start()
    assert admitting.wait(15)
    closer = threading.Thread(target=be.close)
    closer.start()
    runner.join(15)
    closer.join(30)
    assert not runner.is_alive() and not closer.is_alive()
    (job,) = outcome
    if not isinstance(job, BackendClosedError):
        assert sum(job.result(timeout=5).counts.values()) == 4
    assert stamped[0] is not None


# -- admission control ------------------------------------------------------

def test_queue_full_rejection_typed_and_counted():
    release = threading.Event()

    def blocker(session):
        net = session.insert_net()
        session.insert_gate("h", net, 0)
        release.wait(15)

    be = Backend({"max_concurrent_jobs": 1, "max_queued_jobs": 2}, num_workers=1)
    accepted = []
    try:
        head = be.run(blocker, num_qubits=1, shots=2, key="b-head")
        accepted.append(head)
        _wait_until(lambda: head.running())
        with pytest.raises(QueueFullError) as info:
            for i in range(6):
                accepted.append(
                    be.run(blocker, num_qubits=1, shots=2, key=f"b{i}")
                )
        assert info.value.limit == 2
        assert info.value.queue_depth == 2
        release.set()
        for job in accepted:
            job.result(timeout=60)
        assert be.status()["jobs"]["rejected"] >= 1
    finally:
        release.set()
        be.close()


def test_p95_backpressure_shedding():
    release = threading.Event()

    def blocker(session):
        net = session.insert_net()
        session.insert_gate("h", net, 0)
        release.wait(15)

    be = Backend(
        {
            "max_concurrent_jobs": 1,
            "max_queued_jobs": 8,
            # any observed update latency exceeds this threshold
            "p95_reject_seconds": 1e-12,
        },
        num_workers=1,
    )
    try:
        # one completed job seeds the update.seconds rollup (build latency)
        be.run(BELL, shots=2, seed=0).result(timeout=60)
        # fill to the soft threshold (max_queued_jobs // 2 = 4)
        head = be.run(blocker, num_qubits=1, shots=2, key="head")
        _wait_until(lambda: head.running())
        queued = [be.run(BELL, shots=2) for _ in range(4)]
        with pytest.raises(BackpressureError) as info:
            be.run(BELL, shots=2)
        assert info.value.reason == "p95"
        assert info.value.p95_seconds > 0
        release.set()
        head.result(timeout=60)
        for job in queued:
            job.result(timeout=60)
    finally:
        release.set()
        be.close()


def test_degraded_backpressure_and_recovery():
    be = Backend(
        {"max_concurrent_jobs": 1, "max_queued_jobs": 4, "degraded_grace_jobs": 2},
        num_workers=1,
    )
    try:
        # a job whose session records a recovery event marks the backend degraded
        def troubled(session):
            net = session.insert_net()
            session.insert_gate("h", net, 0)
            session.telemetry.events.emit("chunk.fallback", reason="x")

        be.run(troubled, num_qubits=1, shots=2, key="troubled").result(timeout=60)
        assert be.status()["degraded"] is True
        # two clean jobs (degraded_grace_jobs) clear the flag; any chaos
        # plan is parked so that they are clean
        previous = faults.install(None)
        try:
            be.run(BELL, shots=2).result(timeout=60)
            be.run(BELL, shots=2).result(timeout=60)
        finally:
            faults.install(previous)
        assert be.status()["degraded"] is False
    finally:
        be.close()


# -- telemetry wiring -------------------------------------------------------

def test_tenant_rollups_accumulate_per_tenant():
    with Backend({"max_concurrent_jobs": 2}, num_workers=2) as be:
        for _ in range(2):
            be.run(BELL, shots=8, seed=1, tenant="alice").result(timeout=60)
        be.run(GHZ, shots=8, seed=1, tenant="bob").result(timeout=60)
        assert be.tenants() == ["alice", "bob"]
        alice = be.tenant_metrics("alice").as_dict()
        bob = be.tenant_metrics("bob").as_dict()
        # alice's first job built the BELL base: its warming update's
        # latency landed in her rollup; bob's GHZ build likewise in his
        assert alice["histograms"]["update.seconds"]["count"] >= 1
        assert bob["histograms"]["update.seconds"]["count"] >= 1
        assert "plan.updates_planned" in alice["counters"]


def test_job_run_span_recorded_when_tracing():
    with Backend({"max_concurrent_jobs": 1}, num_workers=1, tracing=True) as be:
        be.run(BELL, shots=4, seed=0, tenant="traced").result(timeout=60)
        spans = [s for s in be.telemetry.tracer.spans() if s.name == "job.run"]
        assert len(spans) == 1
        assert spans[0].attrs["tenant"] == "traced"


def test_status_snapshot_shape(backend):
    status = backend.status()
    assert status["backend_name"] == "qtask_statevector"
    assert set(status["jobs"]) == {
        "submitted", "completed", "failed", "rejected", "cancelled",
    }
    assert "pool" in status and "queue_depth" in status
