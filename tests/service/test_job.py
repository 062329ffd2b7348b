"""Job lifecycle: state machine, result/timeout/cancel semantics."""

import threading

import pytest

from repro.service import (
    Backend,
    InvalidJobTransition,
    JobCancelledError,
    JobStatus,
    JobTimeoutError,
)

BELL = 'OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'


@pytest.fixture()
def backend():
    be = Backend({"max_concurrent_jobs": 1, "max_queued_jobs": 8}, num_workers=1)
    yield be
    be.close()


def test_job_reaches_done_and_result_is_complete(backend):
    job = backend.run(BELL, shots=64, seed=1)
    result = job.result(timeout=60)
    assert job.status() is JobStatus.DONE
    assert job.done() and not job.running() and not job.cancelled()
    assert result.job_id == job.job_id
    assert result.tenant == "default"
    assert result.shots == 64
    assert sum(result.counts.values()) == 64
    assert result.seconds >= 0.0
    assert result.queue_seconds >= 0.0


def test_result_timeout_raises_typed_error(backend):
    gate = threading.Event()

    def stalled(session):
        net = session.insert_net()
        session.insert_gate("h", net, 0)
        gate.wait(10)

    job = backend.run(stalled, num_qubits=1, shots=4, key="stalled")
    with pytest.raises(JobTimeoutError):
        job.result(timeout=0.05)
    gate.set()
    job.result(timeout=60)  # finishes fine afterwards


def test_double_submit_is_invalid(backend):
    job = backend.run(BELL, shots=4)
    job.result(timeout=60)
    with pytest.raises(InvalidJobTransition):
        job.submit()


def test_cancel_queued_job(backend):
    release = threading.Event()

    def blocker(session):
        net = session.insert_net()
        session.insert_gate("h", net, 0)
        release.wait(10)

    try:
        head = backend.run(blocker, num_qubits=1, shots=4, key="blocker")
        tail = backend.run(BELL, shots=4)
        assert tail.cancel() is True
        assert tail.status() is JobStatus.CANCELLED
        assert tail.cancelled()
        with pytest.raises(JobCancelledError):
            tail.result(timeout=10)
        # cancelling again is a no-op returning False
        assert tail.cancel() is False
    finally:
        release.set()
    head.result(timeout=60)
    assert backend.status()["jobs"]["cancelled"] == 1


def test_cancel_finished_job_returns_false(backend):
    job = backend.run(BELL, shots=4, seed=3)
    job.result(timeout=60)
    assert job.cancel() is False
    assert job.status() is JobStatus.DONE


def test_job_error_propagates_through_result(backend):
    def broken(session):
        raise RuntimeError("builder exploded")

    job = backend.run(broken, num_qubits=1, shots=4, key="broken")
    with pytest.raises(RuntimeError, match="builder exploded"):
        job.result(timeout=60)
    assert job.status() is JobStatus.ERROR
    assert backend.status()["jobs"]["failed"] == 1


def test_observable_beyond_the_register_fails_the_job(backend):
    """A Pauli on a qubit the circuit lacks is an ERROR, not a wrong DONE."""
    from repro.core.exceptions import QubitIndexError

    for observable in ("ZII", "XII"):  # 3-qubit labels on the 2-qubit BELL
        job = backend.run(BELL, observable=observable)
        with pytest.raises(QubitIndexError, match="qubit 2"):
            job.result(timeout=60)
        assert job.status() is JobStatus.ERROR
    assert backend.status()["jobs"]["failed"] == 2
    # the warm family session is unharmed
    assert backend.run(BELL, observable="ZZ").result(timeout=60).expectation == (
        pytest.approx(1.0)
    )


def test_failed_build_is_not_cached(backend):
    calls = []

    def flaky(session):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first build fails")
        net = session.insert_net()
        session.insert_gate("x", net, 0)

    bad = backend.run(flaky, num_qubits=1, shots=4, key="flaky")
    with pytest.raises(RuntimeError):
        bad.result(timeout=60)
    good = backend.run(flaky, num_qubits=1, shots=4, seed=0, key="flaky")
    result = good.result(timeout=60)
    assert result.counts == {"1": 4}
    assert result.pool_hit is False  # rebuilt, not served from a cached error
