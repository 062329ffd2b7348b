"""SessionPool: warm-hit accounting, budgets, eviction, pins and leases."""

import threading
import time

import numpy as np
import pytest

from repro.core import faults
from repro.core.faults import FaultInjected, FaultPlan
from repro.qtask import QTask
from repro.service import SessionPool
from repro.telemetry import MetricsRegistry

from ..conftest import worker_threads


def make_factory(num_qubits=2, calls=None):
    def factory():
        if calls is not None:
            calls.append(1)
        session = QTask(num_qubits)
        net = session.insert_net()
        for q in range(num_qubits):
            session.insert_gate("h", net, q)
        return session
    return factory


def test_first_lease_is_miss_then_hits():
    registry = MetricsRegistry()
    pool = SessionPool(registry=registry)
    calls = []
    try:
        fork, hit = pool.lease("a", make_factory(calls=calls))
        assert hit is False
        fork.close()
        pool.release("a")
        fork2, hit2 = pool.lease("a", make_factory(calls=calls))
        assert hit2 is True
        fork2.close()
        pool.release("a")
        assert len(calls) == 1  # base built exactly once
        assert registry.get("service.pool_hits").value == 1
        assert registry.get("service.pool_misses").value == 1
    finally:
        pool.close()


def test_forks_are_isolated_from_base():
    pool = SessionPool()
    try:
        fork, _ = pool.lease("a", make_factory(num_qubits=1))
        # editing the fork must not perturb the warm base
        net = fork.insert_net()
        fork.insert_gate("x", net, 0)
        fork.update_state()
        fork.close()
        pool.release("a")
        fork2, hit = pool.lease("a", make_factory(num_qubits=1))
        assert hit is True
        assert fork2.num_gates == 1  # just the base's h, not the x
        fork2.close()
        pool.release("a")
    finally:
        pool.close()


def test_lease_returns_a_fork_whose_edits_leave_the_base_bit_identical():
    pool = SessionPool()
    try:
        base, _ = pool.pin("a", make_factory(num_qubits=3))
        before = np.array(base.state(), copy=True)
        epoch = base.simulator.state_epoch
        fork, hit = pool.lease("a", None)
        assert hit is True and fork is not base and fork.is_fork
        net = fork.insert_net()
        fork.insert_gate("rx", net, 1, params=[0.3])
        fork.insert_gate("x", net, 2)
        fork.update_state()
        assert not np.array_equal(fork.state(), before)
        np.testing.assert_array_equal(base.state(), before)
        assert base.simulator.state_epoch == epoch
        fork.close()
        pool.release("a")
        pool.unpin("a")
        assert pool.stats()["entries"][0]["leases"] == 0
    finally:
        pool.close()


def test_pin_hands_out_the_warm_base_itself_and_blocks_eviction():
    pool = SessionPool(max_sessions=1)
    calls = []
    try:
        base, hit = pool.pin("a", make_factory(calls=calls))
        again, hit2 = pool.pin("a", make_factory(calls=calls))
        assert (hit, hit2) == (False, True) and again is base
        assert len(calls) == 1
        other, _ = pool.pin("b", make_factory())
        assert set(pool.keys()) == {"a", "b"}  # over budget, both pinned
        pool.unpin("a")
        assert set(pool.keys()) == {"a", "b"}  # "a" still has one pin
        pool.unpin("a")
        assert pool.keys() == ["b"]  # idle now: the budget applies
        pool.unpin("b")
    finally:
        pool.close()


def test_failed_warm_update_closes_the_base_and_the_next_lease_rebuilds(no_plan):
    pool = SessionPool()
    calls = []
    before = worker_threads()
    try:
        # every publish fails: the base's warm update_state() raises
        faults.install(FaultPlan(probabilities={"cow.publish": 1.0}))
        try:
            with pytest.raises(FaultInjected):
                pool.lease("a", make_factory(calls=calls))
        finally:
            faults.install(None)
        assert worker_threads() == before
        assert "a" not in pool.keys()
        fork, hit = pool.lease("a", make_factory(calls=calls))
        assert hit is False and len(calls) == 2
        fork.close()
        pool.release("a")
    finally:
        pool.close()


def test_max_sessions_evicts_lru():
    pool = SessionPool(max_sessions=2)
    try:
        for key in ("a", "b", "c"):
            if key == "c":
                # Eviction takes the most unstable idle base first, then the
                # oldest: under an ambient fault plan a recovery on "b"'s
                # build outranks "a"'s age.
                instability = {
                    e["key"]: e["instability"] for e in pool.stats()["entries"]
                }
            fork, _ = pool.lease(key, make_factory())
            fork.close()
            pool.release(key)
        assert len(pool) == 2
        if not any(instability.values()):
            assert "a" not in pool.keys()  # oldest evicted
        victim = "b" if instability["b"] > instability["a"] else "a"
        assert victim not in pool.keys()
        assert set(pool.keys()) == {"a", "b", "c"} - {victim}
    finally:
        pool.close()


def test_memory_budget_evicts_idle_sessions():
    registry = MetricsRegistry()
    pool = SessionPool(memory_budget_bytes=1, registry=registry)
    try:
        forka, _ = pool.lease("a", make_factory())
        forka.close()
        pool.release("a")
        forkb, _ = pool.lease("b", make_factory())
        forkb.close()
        pool.release("b")
        # every base owns > 1 byte, so only the most recent may survive
        assert pool.keys() == ["b"] or pool.keys() == []
        assert registry.get("service.pool_evictions").value >= 1
    finally:
        pool.close()


def test_leased_sessions_are_never_evicted():
    pool = SessionPool(max_sessions=1)
    try:
        forka, _ = pool.lease("a", make_factory())
        forkb, _ = pool.lease("b", make_factory())  # over budget, but a is leased
        assert set(pool.keys()) == {"a", "b"}
        forka.close()
        pool.release("a")  # now a is idle and the budget applies
        assert pool.keys() == ["b"]
        forkb.close()
        pool.release("b")
    finally:
        pool.close()


def test_unstable_sessions_evicted_first():
    pool = SessionPool(max_sessions=2)
    try:
        forka, _ = pool.lease("a", make_factory())
        forka.close()
        pool.release("a")
        forkb, _ = pool.lease("b", make_factory())
        forkb.close()
        pool.release("b")
        # mark "b" (the *most recent*) unstable: recovery events on its base
        entry_b = pool._entries["b"]
        entry_b.session.telemetry.events.emit("chunk.fallback", reason="x")
        forkc, _ = pool.lease("c", make_factory())
        forkc.close()
        pool.release("c")
        # instability outranks recency: b evicted even though a is older
        assert "b" not in pool.keys()
        assert "a" in pool.keys()
    finally:
        pool.close()


def test_concurrent_leases_build_base_once():
    calls = []
    lock = threading.Lock()

    def factory():
        with lock:
            calls.append(1)
        session = QTask(2)
        net = session.insert_net()
        session.insert_gate("h", net, 0)
        return session

    pool = SessionPool()
    results = []
    errors = []

    def worker():
        try:
            fork, hit = pool.lease("shared", factory)
            results.append(hit)
            fork.close()
            pool.release("shared")
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(calls) == 1  # exactly one thread built the base
        assert results.count(False) == 1 and results.count(True) == 7
    finally:
        pool.close()


def test_a_raising_factory_fails_every_waiter_and_leaves_no_entry():
    """Eight leases of one cold key share the one build; when it raises,
    each gets that error (no waiter is wedged), the key is gone, and the
    next lease builds afresh."""
    release = threading.Event()
    calls = []

    def factory():
        calls.append(1)
        assert release.wait(10)
        raise RuntimeError("build failed")

    pool = SessionPool()
    errors = []

    def lease():
        try:
            pool.lease("k", factory)
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=lease) for _ in range(8)]
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        # every lease has joined the one entry before the build fails
        while pool._entries.get("k") is None or pool._entries["k"].leases < 8:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(errors) == 8
        assert all(exc is errors[0] for exc in errors)
        assert "k" not in pool.keys()
        fork, hit = pool.lease("k", make_factory())
        assert hit is False and fork.num_gates == 2
        fork.close()
        pool.release("k")
    finally:
        release.set()
        pool.close()


def test_stats_snapshot_shape():
    pool = SessionPool(max_sessions=4, memory_budget_bytes=None)
    try:
        fork, _ = pool.lease("a", make_factory())
        stats = pool.stats()
        assert stats["sessions"] == 1
        assert stats["max_sessions"] == 4
        (entry,) = stats["entries"]
        assert entry["key"] == "a"
        assert entry["leases"] == 1
        assert entry["owned_bytes"] > 0
        fork.close()
        pool.release("a")
    finally:
        pool.close()


def test_lease_after_close_raises():
    pool = SessionPool()
    pool.close()
    with pytest.raises(RuntimeError):
        pool.lease("a", make_factory())
