"""Chaos integration tests: injected faults never corrupt computed states.

The one recovery loop is exercised end to end against the seeded fault
plans from ``repro.core.faults``: a chunk that faults re-executes run by run
(``backend_fallbacks``), each run retried in place up to
``_RUN_FAULT_RETRIES`` times (``run_retries``); past that the fault surfaces
from ``update_state``, which keeps its dirt for the caller's next call.

The invariant throughout: with faults firing at every site, the final
state still equals the dense reference to 1e-10 and every recovery action
is visible in ``statistics()``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time

import numpy as np
import pytest

from repro.core import faults
from repro.core.circuit import Circuit
from repro.core.faults import FaultInjected, FaultPlan
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.core.update import _RUN_FAULT_RETRIES, BACKEND

from ..conftest import (
    ReferenceLoop,
    circuit_levels,
    random_levels,
    reference_state,
    running_on,
    shm_entries,
)

ATOL = 1e-10


#: each test installs its own plan; whatever surrounded it is restored after
pytestmark = pytest.mark.usefixtures("no_plan")


def _build_sim(num_qubits, levels, *, num_workers=2, **knobs):
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    return QTaskSimulator(circuit, num_workers=num_workers, **knobs)


# Session knobs per leg; the ids are the ones the test floor pins.  "legacy"
# runs on the run-granular reference loop (``conftest.ReferenceLoop``), under
# the id of the deleted per-run path it replaces.  "process" named the
# deleted fork-pool backend; the leg keeps the wide fan-out it stood for:
# four workers over 32 two-amplitude blocks, so every table splits into
# chunk subflows that draw from the sites at once.
CHAOS_BACKENDS = [
    pytest.param(dict(reference=True, block_size=4), id="legacy"),
    pytest.param(dict(block_size=4), id="numpy"),
    pytest.param(dict(num_workers=4, block_size=2), id="process"),
]


# ---------------------------------------------------------------------------
# chaos parity: every site firing, every backend, state still exact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", CHAOS_BACKENDS)
def test_chaos_parity_against_dense(backend, monkeypatch):
    """p=0.05 at every recoverable site; final states match dense to 1e-10."""
    num_qubits = 6
    rng = random.Random(20260807)
    levels = random_levels(rng, num_qubits, 6)
    backend = dict(backend)
    if backend.pop("reference", False):
        monkeypatch.setattr("repro.core.update.BACKEND", ReferenceLoop())
    plan = FaultPlan(seed=1, probability=0.05)
    faults.install(plan)
    with _build_sim(num_qubits, levels, **backend) as sim:
        sim.update_state()
        # incremental updates under fire: grow the circuit, then retune
        net = sim.circuit.insert_net()
        sim.circuit.insert_gate("cx", net, 0, num_qubits - 1)
        sim.update_state()
        net2 = sim.circuit.insert_net()
        handle = sim.circuit.insert_gate("rz", net2, 2, params=[0.917])
        sim.update_state()
        sim.circuit.update_gate(handle, 1.234)
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(sim.circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        # the plan was really consulted inside the armed update scopes
        assert plan.stats(), "no fault site was ever evaluated"


def test_chaos_parity_high_rate_numpy():
    """Even at p=0.2 the per-run retries converge to the exact state."""
    num_qubits = 5
    rng = random.Random(99)
    levels = random_levels(rng, num_qubits, 5)
    plan = FaultPlan(seed=3, probability=0.2)
    faults.install(plan)
    with _build_sim(num_qubits, levels, block_size=4) as sim:
        sim.update_state()
        expected = reference_state(num_qubits, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        assert plan.total_injected() > 0


def test_chaos_replay_is_deterministic():
    """Same seed, same circuit: identical injection schedule both runs.

    Single worker: full-schedule replay equality requires a deterministic
    site-evaluation *order*, which concurrent executor threads do not
    provide (they guarantee a deterministic multiset per evaluation order,
    not a fixed interleaving)."""

    def run_once():
        rng = random.Random(4)
        levels = random_levels(rng, 5, 4)
        plan = FaultPlan(seed=17, probability=0.15)
        faults.install(plan)
        with _build_sim(5, levels, block_size=4, num_workers=1) as sim:
            sim.update_state()
            return plan.stats(), sim.state().copy()

    stats_a, state_a = run_once()
    stats_b, state_b = run_once()
    assert stats_a == stats_b
    np.testing.assert_array_equal(state_a, state_b)


# ---------------------------------------------------------------------------
# recovery visibility: every layer surfaces its counters in statistics()
# ---------------------------------------------------------------------------


def test_run_retries_visible_in_statistics():
    """A scripted publish fault falls back to run-granular and retries."""
    rng = random.Random(12)
    levels = random_levels(rng, 5, 4)
    # One worker: with two, a second chunk's publish can take the scripted
    # occurrence 2 before the first chunk's fallback reaches it, and then
    # nothing is retried run-granular (~1% of runs).
    faults.install(FaultPlan(script=[("cow.publish", 1), ("cow.publish", 2)]))
    with _build_sim(5, levels, block_size=4, num_workers=1) as sim:
        sim.update_state()
        stats = sim.statistics()
        assert stats["backend_fallbacks"] >= 1
        assert stats["run_retries"] >= 1
        expected = reference_state(5, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


def test_task_retries_visible_in_statistics():
    """Historical id: there is no task retry.  A chunk falling back on the
    caller counts its run retries: ``run_retries`` equals the ``run.retry``
    events."""
    rng = random.Random(13)
    levels = random_levels(rng, 5, 4)
    # the slab attempt, then the first run's first two attempts
    faults.install(FaultPlan(script=[("kernel.run", k) for k in (1, 2, 3)]))
    with _build_sim(5, levels, block_size=4, num_workers=1) as sim:
        sim.update_state()
        stats = sim.statistics()
        assert stats["backend_fallbacks"] == 1
        assert stats["run_retries"] == 2
        assert stats["run_retries"] == sim.telemetry.events.counts_by_kind()["run.retry"]
        expected = reference_state(5, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


def test_task_retries_count_every_retry_across_threads():
    """Historical id: chunks fall back on the caller and the pool thread at
    once, and ``run_retries`` (a locked counter) equals the ``run.retry``
    events emitted."""
    levels = [[Gate("h", (q,))] for q in range(7)] + random_levels(
        random.Random(15), 7, 6)
    plan = faults.plan_from_env({
        "QTASK_FAULT_P": "0.25", "QTASK_FAULT_SEED": "15",
        "QTASK_FAULT_SITES": "kernel.run",
    })
    with _build_sim(7, levels, block_size=2) as sim:
        faults.install(plan)
        sim.update_state()
        faults.uninstall()
        stats = sim.statistics()
        kinds = sim.telemetry.events.counts_by_kind()
        assert stats["plan_chunks"] > stats["plans_built"]  # chunks split
        assert sim.telemetry.events.dropped == 0
        assert stats["run_retries"] > 0
        assert stats["run_retries"] == kinds["run.retry"]
        assert stats["backend_fallbacks"] == kinds["chunk.fallback"]
        np.testing.assert_allclose(
            sim.state(), reference_state(7, levels), atol=ATOL, rtol=0)


def test_unrecoverable_fault_storm_raises_fault_injected():
    """With p=1 at the kernel site the per-run retries exhaust and the
    original fault surfaces (it is never silently swallowed)."""
    rng = random.Random(14)
    levels = random_levels(rng, 4, 3)
    faults.install(FaultPlan(probabilities={"kernel.run": 1.0}))
    with _build_sim(4, levels, block_size=4) as sim:
        with pytest.raises(FaultInjected):
            sim.update_state()


class _SlowSibling:
    """Faults every table on the calling thread once a pool thread holds its
    chunk, which runs on the slab backend a beat later."""

    def __init__(self):
        self.started, self.stopped = threading.Event(), threading.Event()

    def execute_plan(self, reader, store, table):
        if not threading.current_thread().name.startswith("qtask-worker"):
            assert self.started.wait(10)
            raise FaultInjected("kernel.run", 0)
        self.started.set()
        time.sleep(0.1)
        BACKEND.execute_plan(reader, store, table)
        self.stopped.set()


def test_fault_past_the_bound_leaves_the_update_to_the_caller():
    """A fault storm one past the bound surfaces from ``update_state`` with
    its plan's label and the dirt kept; the caller's next call redoes the
    work and lands on the exact state.  Two wide, the caller's chunk fails
    while its sibling runs on the pool thread: the error raises only after
    the sibling has stopped."""
    rng = random.Random(16)
    levels = random_levels(rng, 5, 4)
    # the slab attempt, then every attempt the bound gives the first run
    storm = [("kernel.run", k) for k in range(1, _RUN_FAULT_RETRIES + 3)]
    assert len(storm) == 17
    faults.install(FaultPlan(script=storm))
    with _build_sim(5, levels, block_size=4, num_workers=1) as sim:
        with pytest.raises(FaultInjected) as err:
            sim.update_state()
        faults.uninstall()
        assert err.value.task_label
        assert sim.graph.has_pending
        assert sim.statistics()["run_retries"] == _RUN_FAULT_RETRIES
        sim.update_state()
        assert not sim.graph.has_pending
        np.testing.assert_allclose(
            sim.state(), reference_state(5, levels), atol=ATOL, rtol=0)

    # h on qubit 0 first: sixteen two-amplitude blocks, a two-chunk plan
    levels = [[Gate("h", (0,))]] + levels
    with _build_sim(5, levels, block_size=2, num_workers=2) as sim:
        with running_on(_SlowSibling()) as backend, pytest.raises(FaultInjected) as err:
            sim.update_state()
        assert backend.stopped.is_set()
        assert err.value.task_label
        assert sim.graph.has_pending
        stats = sim.statistics()
        assert stats["backend_fallbacks"] == 1
        assert stats["run_retries"] == _RUN_FAULT_RETRIES
        sim.update_state()
        assert not sim.graph.has_pending
        np.testing.assert_allclose(
            sim.state(), reference_state(5, levels), atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# trajectory stability: retries must not fork dynamic-circuit randomness
# ---------------------------------------------------------------------------


def _dynamic_session(seed):
    from repro import QTask

    session = QTask(3, block_size=4, num_workers=1, seed=seed)
    c = session.add_classical_register("c", 2)
    net1 = session.insert_net()
    for q in range(3):
        session.insert_gate("h", net1, q)
    net2 = session.insert_net()
    session.measure(net2, 0, c[0])
    net3 = session.insert_net()
    session.c_if("x", net3, 2, condition=(c, 1))
    net4 = session.insert_net()
    session.measure(net4, 2, c[1])
    return session, c


def test_retries_do_not_fork_trajectories():
    """A chaos run of a dynamic circuit must observe the *same* trajectory
    as a fault-free run with the same seed: a faulted chunk re-executes its
    runs after the plan's draws, so no draw is repeated and injected faults
    are invisible in the outcomes."""
    clean, c_clean = _dynamic_session(seed=5)
    with clean:
        clean.update_state()
        clean_state = clean.state().copy()
        clean_value = clean.classical_value(c_clean)

    chaotic, c_chaos = _dynamic_session(seed=5)
    faults.install(FaultPlan(seed=8, probabilities={"kernel.run": 0.3}))
    with chaotic:
        chaotic.update_state()
        assert faults.active_plan().total_injected() > 0
        np.testing.assert_allclose(
            chaotic.state(), clean_state, atol=ATOL, rtol=0
        )
        assert chaotic.classical_value(c_chaos) == clean_value


def test_update_level_retry_preserves_trajectory():
    """Historical id: there is no update-level retry.  Fifteen scripted
    ``kernel.run`` faults in a row -- the slab attempt and fourteen attempts
    of one run -- stay within the per-run bound, and the dynamic circuit's
    outcomes equal a clean run's."""
    clean, c_clean = _dynamic_session(seed=6)
    with clean:
        clean.update_state()
        clean_state = clean.state().copy()
        clean_value = clean.classical_value(c_clean)

    chaotic, c_chaos = _dynamic_session(seed=6)
    faults.install(FaultPlan(script=[("kernel.run", i) for i in range(1, 16)]))
    with chaotic:
        chaotic.update_state()
        stats = chaotic.statistics()
        assert faults.active_plan().total_injected() == 15
        assert stats["run_retries"] == 14
        np.testing.assert_allclose(
            chaotic.state(), clean_state, atol=ATOL, rtol=0
        )
        assert chaotic.classical_value(c_chaos) == clean_value


# ---------------------------------------------------------------------------
# what is left where the backend ladder and the fork pool were
# ---------------------------------------------------------------------------


class _AlwaysFaulting:
    def execute_plan(self, reader, store, table):
        raise FaultInjected("kernel.run", 0)


def test_breaker_degrades_persistently_failing_backend():
    """Historical id: there is no ladder to walk.  A backend faulting on
    every call exhausts the first run's retries: the fault surfaces from
    ``update_state`` and the dirt stays for the next call."""
    levels = random_levels(random.Random(15), 5, 6)
    with _build_sim(5, levels, block_size=4, num_workers=1) as sim:
        with running_on(_AlwaysFaulting()), pytest.raises(FaultInjected):
            sim.update_state()
        stats = sim.statistics()
        assert (stats["backend_fallbacks"], stats["run_retries"]) == (1, _RUN_FAULT_RETRIES)
        assert sim.graph.has_pending
        sim.update_state()
        np.testing.assert_allclose(
            sim.state(), reference_state(5, levels), atol=ATOL, rtol=0)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_no_shared_memory_leaks_under_ship_faults():
    """Historical id: nothing is shipped anywhere.  Updates under fire at
    the kernel and publish sites run in this process alone -- no
    shared-memory segment and no child process, during or after."""
    before = shm_entries()
    children = set(multiprocessing.active_children())
    rng = random.Random(18)
    levels = random_levels(rng, 6, 4)
    faults.install(
        FaultPlan(
            seed=2,
            probabilities={"kernel.run": 0.3, "cow.publish": 0.3},
        )
    )
    with _build_sim(6, levels, block_size=4) as sim:
        for _ in range(3):
            net = sim.circuit.insert_net()
            sim.circuit.insert_gate("h", net, 0)
            sim.update_state()
            assert shm_entries() == before
            assert set(multiprocessing.active_children()) == children
        expected = reference_state(6, circuit_levels(sim.circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
    assert shm_entries() == before
