"""A warm job is a lookup: cached parses, reads of the pinned base, health.

The backend parses each distinct QASM text once and serves every job by
reading the warm base session of its family -- no fork per job.  These
tests pin what that must not change: one parse per text, rejection of bad
text every time, one base per program, exact answers under concurrent
readers, an untouched base afterwards, and recovery events of a
``run_shots`` walk still reaching the degraded flag.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import QTask
from repro.core import faults
from repro.core.faults import FaultPlan
from repro.service import Backend, CircuitValidationError
from repro.service import backend as backend_module

GHZ = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
#: GHZ with other whitespace and a comment: the same program
GHZ_RESTYLED = (
    "OPENQASM 2.0;\n// the same GHZ state\nqreg q[3];\n\n"
    "h  q[0];\ncx q[0], q[1];\n  cx q[1],q[2];\n"
)
STATIC = (
    "OPENQASM 2.0;\nqreg q[4];\nh q[0];\nh q[1];\nh q[2];\n"
    "cx q[0],q[3];\nrz(0.4) q[1];\ncx q[1],q[2];\nry(0.3) q[3];\n"
)
DYNAMIC = (
    "OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nh q[0];\nh q[1];\n"
    "measure q[0] -> c[0];\nif (c==1) x q[2];\ncx q[1],q[2];\n"
    "ry(0.7) q[2];\nmeasure q[2] -> c[1];\n"
)


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts the backend's calls of ``parse_qasm``."""
    calls = []
    real = backend_module.parse_qasm

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(backend_module, "parse_qasm", counting)
    return calls


def test_resubmitting_the_same_text_parses_it_once(parse_calls):
    with Backend({"max_concurrent_jobs": 1}, num_workers=1) as be:
        results = [be.run(GHZ, shots=16, seed=s).result(timeout=60)
                   for s in range(3)]
        assert len(parse_calls) == 1
        assert [r.pool_hit for r in results] == [False, True, True]
        assert len({r.key for r in results}) == 1


def test_invalid_text_is_rejected_on_every_submission(parse_calls):
    unparsable = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n"
    too_wide = "OPENQASM 2.0;\nqreg q[5];\nh q[0];\n"
    with Backend({"max_concurrent_jobs": 1, "n_qubits": 4}, num_workers=1) as be:
        for _ in range(3):
            with pytest.raises(CircuitValidationError, match="unparsable"):
                be.run(unparsable, shots=1)
            with pytest.raises(CircuitValidationError, match="n_qubits"):
                be.run(too_wide, shots=1)
        # neither was cached: each submission went through the parser
        assert len(parse_calls) == 6
        assert be.status()["jobs"]["submitted"] == 0


def test_texts_of_one_program_share_a_key_and_a_base(parse_calls):
    with Backend({"max_concurrent_jobs": 1}, num_workers=1) as be:
        first = be.run(GHZ, shots=32, seed=4).result(timeout=60)
        second = be.run(GHZ_RESTYLED, shots=32, seed=4).result(timeout=60)
        assert len(parse_calls) == 2  # two texts, two parses ...
        assert second.key == first.key  # ... one program, one key
        assert second.pool_hit is True
        assert second.counts == first.counts
        assert be.pool.keys() == [first.key]


def test_explicit_key_overrides_the_cached_key(parse_calls):
    with Backend({"max_concurrent_jobs": 1}, num_workers=1) as be:
        derived = be.run(GHZ, shots=8, seed=0).result(timeout=60)
        named = be.run(GHZ, shots=8, seed=0, key="ghz").result(timeout=60)
        again = be.run(GHZ, shots=8, seed=0).result(timeout=60)
        assert len(parse_calls) == 1
        assert derived.key.startswith("program:")
        assert named.key == "ghz" and named.pool_hit is False
        assert again.key == derived.key and again.pool_hit is True
        assert sorted(be.pool.keys()) == sorted([derived.key, "ghz"])


@pytest.mark.parametrize("source", [STATIC, DYNAMIC], ids=["static", "dynamic"])
def test_concurrent_reads_of_one_base_match_fresh_sessions(source):
    """4 dispatchers, 12 jobs on one warm family mixing counts (trajectory
    sampling on the dynamic family), expectations and state reads: every
    answer is a fresh session's, and the base is left as it was."""
    observable = "ZZIX" if "qreg q[4]" in source else "ZIX"
    kinds = [
        {"shots": 64},
        {"observable": observable},
        {"return_state": True},
        {"shots": 32, "observable": observable, "return_state": True},
    ]
    requests = [dict(kinds[i % 4], seed=100 + i) for i in range(12)]

    def fresh(request):
        with QTask.from_qasm(source, num_workers=1, seed=7) as session:
            session.update_state()
            shots = request.get("shots", 0)
            counts = None
            if shots:
                counts = (session.run_shots(shots, seed=request["seed"])
                          if session.circuit.has_dynamic_ops
                          else session.counts(shots, seed=request["seed"]))
            obs = request.get("observable")
            return (
                counts,
                None if obs is None else session.expectation(obs),
                np.array(session.state()) if request.get("return_state") else None,
            )

    expected = [fresh(r) for r in requests]
    be = Backend({"max_concurrent_jobs": 4}, num_workers=2,
                 session_knobs={"seed": 7})
    interval = sys.getswitchinterval()
    try:
        warm = be.run(source).result(timeout=60)  # build the base
        (entry,) = be.pool._entries.values()
        base = entry.session
        epoch = base.simulator.state_epoch
        owned = base.memory_report().owned_bytes
        jobs = [None] * len(requests)
        start = threading.Barrier(len(requests))

        def submit(i):
            start.wait(10)
            jobs[i] = be.run(source, **requests[i])

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(len(requests))]
        sys.setswitchinterval(1e-5)  # interleave the readers finely
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        for job, (counts, expectation, state) in zip(jobs, expected):
            result = job.result(timeout=120)
            assert result.key == warm.key and result.pool_hit is True
            assert result.counts == counts
            if expectation is None:
                assert result.expectation is None
            else:
                assert result.expectation == pytest.approx(expectation, abs=1e-12)
            if state is None:
                assert result.statevector is None
            else:
                np.testing.assert_array_equal(result.statevector, state)
        assert base.simulator.state_epoch == epoch
        assert base.memory_report().owned_bytes == owned
        stats = be.pool.stats()
        assert [e["leases"] for e in stats["entries"]] == [0]
        assert be.status()["jobs"]["failed"] == 0
    finally:
        sys.setswitchinterval(interval)
        be.close()


def test_a_walk_absorbing_faults_marks_the_backend_degraded(no_plan):
    """Recovery events of a ``run_shots`` walk -- recorded on its fork,
    which closes inside the job -- set the degraded flag and reach the
    tenant's ``recovery.*`` counters; clean warm jobs clear the flag."""
    config = {"max_concurrent_jobs": 1, "degraded_grace_jobs": 2}
    with Backend(config, num_workers=1) as be:
        clean = be.run(DYNAMIC, shots=16, seed=3).result(timeout=60)
        assert be.status()["degraded"] is False
        plan = FaultPlan(script=[("kernel.run", k) for k in (1, 2, 3)])
        faults.install(plan)
        try:
            faulted = be.run(DYNAMIC, shots=16, seed=3, tenant="t").result(
                timeout=60)
        finally:
            faults.install(None)
        assert plan.stats()["kernel.run"]["injected"] == 3
        assert faulted.pool_hit is True
        assert faulted.counts == clean.counts  # recovery changed no count
        assert be.status()["degraded"] is True
        counters = be.tenant_metrics("t").as_dict()["counters"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("recovery.")) >= 1
        for _ in range(config["degraded_grace_jobs"]):
            be.run(DYNAMIC, shots=16, seed=3).result(timeout=60)
        assert be.status()["degraded"] is False


def test_a_result_is_published_after_its_job_settles(monkeypatch):
    """``result()`` returns, or raises, only once the job has unpinned its
    base, folded its health and counted itself: a slow unpin leaves no
    stale lease or counter behind for the caller to read."""
    config = {"max_concurrent_jobs": 1, "degraded_grace_jobs": 1}
    with Backend(config, num_workers=1) as be:
        real_unpin = be.pool.unpin

        def slow_unpin(key):
            time.sleep(0.05)
            real_unpin(key)

        monkeypatch.setattr(be.pool, "unpin", slow_unpin)

        def leases():
            return [e["leases"] for e in be.pool.stats()["entries"]]

        for source in (STATIC, DYNAMIC):
            be.run(source, shots=8, seed=1).result(timeout=60)
            assert leases() == [0] * len(leases())
            assert be.status()["active_jobs"] == 0
        assert be.status()["jobs"]["completed"] == 2

        def walk_fails(self, shots, *, seed=None):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(QTask, "run_shots", walk_fails)
        with pytest.raises(RuntimeError, match="walk failed"):
            be.run(DYNAMIC, shots=8, seed=1).result(timeout=60)
        assert leases() == [0, 0]
        assert be.status()["jobs"]["failed"] == 1
        assert be.status()["active_jobs"] == 0
